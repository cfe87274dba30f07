package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"eta2"
	"eta2/internal/httpapi"
	"eta2/internal/stats"
)

// runner executes one run of one workload.
type runner struct {
	w       *world
	seconds float64
	traced  bool
	work    string // directory for the run's data directories
	log     io.Writer
	ctx     context.Context

	tp *template
	tr *tracer // traced runs only

	ops      map[string]*opCount
	failures []string

	setupS     []span
	rounds     int
	steps      []*stepSample
	recoveries []span // crash-image recoveries
	errs       errAcc
	qualSum    float64
	qualTasks  int
	digests    [][32]byte  // per step of round 0: pairs and observations
	plans      []*stepPlan // per step, worked out in round 0
	cal        []float64   // calibration CPU times, in ms (see calibrate)
	probeOps   probeCounts
}

// span is one timed interval, in ms: its wall time and the CPU time the
// process spent in it (see cpuTime).
type span struct{ wall, cpu float64 }

// clock starts timing an interval; the function it returns ends it.
func clock() func() span {
	w0, c0 := time.Now(), cpuTime()
	return func() span { return span{millis(time.Since(w0)), millis(cpuTime() - c0)} }
}

// stepSample is one measured step's timings and the probe's samples
// taken during it.
type stepSample struct {
	step   span
	create []span // per create request
	alloc  span
	close  span
	submit []span // per submit request
	obs    int    // main observations submitted
	probe  probeSamples
}

type opCount struct{ attempted, failed int }

// opNames lists the operation kinds in report order.
var opNames = []string{"create", "allocate", "submit", "close", "read", "probe_write", "probe_read", "recover"}

func newRunner(ctx context.Context, w *world, seconds float64, traced bool, work string, log io.Writer) *runner {
	r := &runner{w: w, seconds: seconds, traced: traced, work: work, log: log, ctx: ctx, ops: make(map[string]*opCount)}
	for _, n := range opNames {
		r.ops[n] = &opCount{}
	}
	return r
}

// op records one attempted operation and returns err unchanged.
func (r *runner) op(kind string, err error) error {
	c := r.ops[kind]
	c.attempted++
	if err != nil {
		c.failed++
	}
	return err
}

// fail records a failed correctness check.
func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintf(r.log, "stepbench: CHECK FAILED: %s\n", msg)
}

// setup builds the starting state setupReps times (once when traced) and
// keeps the last copy.
func (r *runner) setup() error {
	reps := r.w.setupReps
	if r.traced {
		reps = 1
	}
	r.cal = calibrateN(r.cal)
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(r.work, fmt.Sprintf("template-%d", rep))
		end := clock()
		tp, sh, err := buildTemplate(r.w, dir, r.traced)
		r.setupS = append(r.setupS, end())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if rep < reps-1 {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		r.tp = tp
		if r.traced {
			r.tr = newTracer(r, sh)
		}
	}
	return nil
}

// measure runs whole rounds until the run's time is spent and the
// measured steps hold the probe's samples. Round 0 warms the process up
// and works out the steps' plans; a traced run measures that one round.
func (r *runner) measure() error {
	start := time.Now()
	for round := 0; ; round++ {
		r.rounds++
		if err := r.round(round); err != nil {
			return err
		}
		if r.traced {
			return nil
		}
		if time.Since(start).Seconds() >= r.seconds && r.probeEnough() {
			return nil
		}
	}
}

// measured reports whether round ri's samples count: every round but the
// warm-up, and the traced run's one round.
func (r *runner) measured(ri int) bool { return ri > 0 || r.traced }

// pooled gathers the steps' probe latencies.
func (r *runner) pooled() (writeDue, readDue []float64) {
	for _, ss := range r.steps {
		writeDue = append(writeDue, ss.probe.writeDue...)
		readDue = append(readDue, ss.probe.readDue...)
	}
	return writeDue, readDue
}

// probeEnough reports whether the steps hold minProbe probe samples
// of each kind, so that at least 10 lie beyond each p99.
func (r *runner) probeEnough() bool {
	wd, rd := r.pooled()
	return len(wd) >= r.w.minProbe && len(rd) >= r.w.minProbe
}

// round opens a copy of the starting state, runs stepsPerRound steps over
// HTTP with the probe running, then measures recovery from a crash image.
func (r *runner) round(ri int) error {
	w := r.w
	// Calibrating collects the last round's garbage, outside any timing,
	// so that it does not add to the next round's heap peak.
	r.cal = calibrateN(r.cal)
	dir := filepath.Join(r.work, fmt.Sprintf("round-%d", ri))
	if err := copyDir(r.tp.dir, dir); err != nil {
		return fmt.Errorf("copy starting state: %w", err)
	}
	defer os.RemoveAll(dir)
	srv, err := eta2.NewServer(serverOptions(dir, r.tp.emb, compactAt)...)
	if err != nil {
		return fmt.Errorf("open server: %w", err)
	}
	defer srv.Close()
	hs, err := serveHTTP(srv)
	if err != nil {
		return err
	}
	defer hs.stop()
	var wrap func(http.RoundTripper) http.RoundTripper
	if r.traced {
		wrap = forceTrace
	}
	op := dial(hs.base, wrap)
	defer op.close()
	pc := dial(hs.base, nil)
	defer pc.close()
	pr := &probe{c: pc.Client, w: w, targets: r.tp.readable, ops: &r.probeOps, ctx: r.ctx}

	if r.tr != nil {
		if err := r.tr.beginRound(srv); err != nil {
			return err
		}
	}
	for s := 0; s < w.stepsPerRound; s++ {
		if s == w.stepsPerRound-1 {
			// Where background compaction ran in this round (big-state),
			// compacting once it has settled makes the crash image's WAL
			// tail this last step, whenever the background cycles ran.
			if err := quiesce(srv, compactAt); err != nil {
				return err
			}
			if srv.DurabilityStats().Compactions > 0 {
				if err := srv.Compact(); err != nil {
					return fmt.Errorf("compact: %w", err)
				}
			}
		}
		if r.tr != nil {
			r.tr.beginStep()
		}
		ss := &stepSample{}
		pr.out = &ss.probe
		pr.start()
		rec, err := r.step(srv, op, ri, s)
		pr.end()
		if err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
		r.checkStep(ri, srv, rec, ss)
		if r.tr != nil {
			if err := r.tr.endStep(srv, rec); err != nil {
				return err
			}
		}
	}
	return r.recover(srv, dir, r.measured(ri))
}

// stepRecord is what one measured step sent and got back.
type stepRecord struct {
	step    int
	created []eta2.TaskID
	specs   [][]eta2.TaskSpec // per create request
	pairs   []eta2.Pair
	obs     []eta2.Observation   // main observations, in send order
	batches [][]eta2.Observation // per submit request
	est     map[eta2.TaskID]estimate
	problem allocProblem
	create  []span
	submit  []span
	alloc   span
	close   span
	total   span // the whole step, from the first create to the last read
}

// stepPlan is what round 0 worked out for one step, which every later
// round sends again: the create requests, the learned expertise the
// allocation used, and the observations drawn for the allocated pairs,
// encoded in their submit requests.
type stepPlan struct {
	creates [][]httpapi.TaskSpecJSON
	specs   [][]eta2.TaskSpec
	problem allocProblem
	obs     []eta2.Observation
	batches [][]eta2.Observation
	bodies  [][]byte
}

// step runs one step over HTTP. Round 0 works out the step's plan as it
// goes; later rounds send round 0's plan, so the benchmark does none of
// its own work inside their steps and their timings are the program's.
func (r *runner) step(srv *eta2.Server, op *apiConn, ri, s int) (*stepRecord, error) {
	w := r.w
	rec := &stepRecord{step: s, est: make(map[eta2.TaskID]estimate)}
	plan := &stepPlan{}
	if ri > 0 {
		plan = r.plans[s]
	} else {
		lo, hi := w.stepTasks(s)
		for b := lo; b < hi; b += w.createBatch {
			var specs []eta2.TaskSpec
			var body []httpapi.TaskSpecJSON
			for i := b; i < min(b+w.createBatch, hi); i++ {
				sp := w.specFor(i)
				specs = append(specs, sp)
				body = append(body, httpapi.TaskSpecJSON{Description: sp.Description, ProcTime: sp.ProcTime, Cost: sp.Cost, DomainHint: int(sp.DomainHint)})
			}
			plan.creates = append(plan.creates, body)
			plan.specs = append(plan.specs, specs)
		}
	}
	rec.specs = plan.specs
	begin := clock()

	next, _ := w.stepTasks(s)
	for _, body := range plan.creates {
		end := clock()
		ids, err := op.CreateTasks(r.ctx, body)
		rec.create = append(rec.create, end())
		if r.op("create", err) != nil {
			return nil, err
		}
		for _, id := range ids {
			if want := w.taskID(next); eta2.TaskID(id) != want {
				return nil, fmt.Errorf("created task got id %d, want %d", id, want)
			}
			rec.created = append(rec.created, eta2.TaskID(id))
			next++
		}
	}

	end := clock()
	pj, err := op.AllocateMaxQuality(r.ctx)
	rec.alloc = end()
	if r.op("allocate", err) != nil {
		return nil, err
	}
	for _, p := range pj {
		rec.pairs = append(rec.pairs, eta2.Pair{User: eta2.UserID(p.User), Task: eta2.TaskID(p.Task)})
	}

	if ri == 0 {
		plan.problem = r.allocProblem(srv, rec.created)
		plan.obs = w.observe(rec.pairs, w.rng(phaseStepPairs, s))
		if w.extraReadings > 0 {
			plan.obs = append(plan.obs, w.readings(w.recentTasks(s), w.extraReadings, w.rng(phaseStepExtra, s))...)
		}
		for b := 0; b < len(plan.obs); b += w.obsBatch {
			batch := plan.obs[b:min(b+w.obsBatch, len(plan.obs))]
			req := struct {
				Observations []httpapi.ObservationJSON `json:"observations"`
			}{make([]httpapi.ObservationJSON, len(batch))}
			for k, o := range batch {
				req.Observations[k] = httpapi.ObservationJSON{Task: int(o.Task), User: int(o.User), Value: o.Value}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			plan.batches = append(plan.batches, batch)
			plan.bodies = append(plan.bodies, body)
		}
		r.plans = append(r.plans, plan)
	}
	rec.problem, rec.obs, rec.batches = plan.problem, plan.obs, plan.batches

	for _, body := range plan.bodies {
		end := clock()
		err := op.postJSON(r.ctx, "/v1/observations", body)
		rec.submit = append(rec.submit, end())
		if r.op("submit", err) != nil {
			return nil, err
		}
	}

	end = clock()
	rep, err := op.CloseStep(r.ctx)
	rec.close = end()
	if r.op("close", err) != nil {
		return nil, err
	}
	for _, e := range rep.Estimates {
		if !w.isProbeTask(eta2.TaskID(e.Task)) {
			rec.est[eta2.TaskID(e.Task)] = estimate{mu: e.Value, sigma: e.Base}
		}
	}

	for _, id := range rec.created {
		want, ok := rec.est[id]
		if !ok {
			continue // no pair and no reading: nothing to estimate
		}
		got, err := op.Truth(r.ctx, int(id))
		if r.op("read", err) != nil {
			return nil, err
		}
		if got.Value != want.mu || got.Base != want.sigma {
			r.fail("step %d: read of task %d returned %g/%g, the close reported %g/%g", s, id, got.Value, got.Base, want.mu, want.sigma)
		}
	}
	rec.total = begin()
	return rec, nil
}

// allocProblem reads the learned expertise the allocation used: per user
// and per domain of the pending tasks, from the published state, before
// the close changes it.
func (r *runner) allocProblem(srv *eta2.Server, pending []eta2.TaskID) allocProblem {
	pr := allocProblem{users: r.w.users(), pending: pending, procTime: make(map[eta2.TaskID]float64, len(pending))}
	dom := make(map[eta2.TaskID]eta2.DomainID, len(pending))
	type key struct {
		u eta2.UserID
		d eta2.DomainID
	}
	p := make(map[key]float64)
	for _, t := range pending {
		pr.procTime[t] = r.w.task(t).ProcTime
		d := srv.Domain(t)
		dom[t] = d
		for _, u := range pr.users {
			k := key{u.ID, d}
			if _, ok := p[k]; !ok {
				p[k] = accuracyProb(epsilon, srv.ExpertiseInDomain(u.ID, d))
			}
		}
	}
	pr.p = func(u eta2.UserID, t eta2.TaskID) float64 { return p[key{u, dom[t]}] }
	return pr
}

// checkStep runs the correctness checks on one step and folds its
// samples into the run's.
func (r *runner) checkStep(ri int, srv *eta2.Server, rec *stepRecord, ss *stepSample) {
	w := r.w
	if err := checkAllocation(rec.problem, rec.pairs); err != nil {
		r.fail("step %d allocation: %v", rec.step, err)
	}
	if err := checkEstimates(rec.est, rec.obs); err != nil {
		r.fail("step %d estimates: %v", rec.step, err)
	}
	if d := stepDigest(rec); ri == 0 {
		r.digests = append(r.digests, d)
	} else if d != r.digests[rec.step] {
		r.fail("round %d step %d: allocated pairs or observations differ from round 0's", ri, rec.step)
	}
	if w.described && rec.step == w.stepsPerRound-1 {
		server := make(map[eta2.TaskID]eta2.DomainID)
		gen := make(map[eta2.TaskID]int)
		_, hi := w.stepTasks(rec.step)
		for id := eta2.TaskID(0); id <= w.taskID(hi-1); id++ {
			if !w.isProbeTask(id) {
				server[id] = srv.Domain(id)
				gen[id] = w.genDomain(id)
			}
		}
		if p := purity(server, gen); p < w.purityMin {
			r.fail("domain purity %.3f below %.2f", p, w.purityMin)
		}
	}
	r.errs.add(w, rec.est, rec.obs)
	qs, qn := allocQuality(w, rec.pairs)
	r.qualSum += qs
	r.qualTasks += qn
	ss.step, ss.create, ss.alloc, ss.close, ss.submit = rec.total, rec.create, rec.alloc, rec.close, rec.submit
	ss.obs = len(rec.obs)
	if r.measured(ri) {
		r.steps = append(r.steps, ss)
	}
}

// stepDigest hashes a step's allocated pairs and observations, which the
// seed alone must fix: every round of a run repeats round 0's, and two
// runs of one seed report the same digest.
func stepDigest(rec *stepRecord) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, p := range sortedPairs(rec.pairs) {
		binary.LittleEndian.PutUint64(b[:], uint64(p.User)<<32|uint64(uint32(p.Task)))
		h.Write(b[:])
	}
	for _, o := range rec.obs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(o.Value))
		h.Write(b[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// recover waits for background compaction to settle, then opens
// w.recoveries copies of the data directory, taken after the last
// acknowledged write and without Close, and checks each recovers the live
// state.
func (r *runner) recover(srv *eta2.Server, dir string, measured bool) error {
	if err := quiesce(srv, compactAt); err != nil {
		return err
	}
	var live bytes.Buffer
	t0 := time.Now()
	if err := srv.SaveStateBinary(&live); err != nil {
		return fmt.Errorf("encode live state: %w", err)
	}
	encode := time.Since(t0)
	for k := 0; k < r.w.recoveries; k++ {
		img := dir + "-crash"
		if err := copyDir(dir, img); err != nil {
			return fmt.Errorf("copy crash image: %w", err)
		}
		end := clock()
		back, err := eta2.NewServer(serverOptions(img, r.tp.emb, compactAt)...)
		took := end()
		if r.op("recover", err) != nil {
			os.RemoveAll(img)
			return fmt.Errorf("recover crash image: %w", err)
		}
		if measured {
			r.recoveries = append(r.recoveries, took)
		}
		var got bytes.Buffer
		if err := back.SaveStateBinary(&got); err != nil {
			return fmt.Errorf("encode recovered state: %w", err)
		}
		if err := checkRecovered(live.Bytes(), got.Bytes()); err != nil {
			r.fail("crash-image recovery: %v", err)
		}
		if r.tr != nil && k == 0 {
			if err := r.tr.recovered(img, time.Duration(took.wall*float64(time.Millisecond)), encode, live.Bytes()); err != nil {
				return err
			}
		}
		if err := back.Close(); err != nil {
			return fmt.Errorf("close recovered server: %w", err)
		}
		if err := os.RemoveAll(img); err != nil {
			return err
		}
	}
	return nil
}

// attempted and failed total the operations of every kind.
func (r *runner) totals() (attempted, failed int) {
	r.ops["probe_write"] = &r.probeOps.writes
	r.ops["probe_read"] = &r.probeOps.reads
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// endToEnd assembles the end-to-end metrics. Every timing is CPU time
// (see cpuTime) at the reference speed (see calRefMs): the step, create,
// allocate and recovery timings are the medians of the measured samples,
// and setup_s the median of the set-ups, in CPU seconds. The close and
// ingest timings, and every wall time, go to the report line instead
// (see wallReport).
func (r *runner) endToEnd() map[string]metric {
	eta, _ := r.errs.rmse()
	scale := r.speedScale()
	t := r.timings(func(s span) float64 { return s.cpu * scale })
	return map[string]metric{
		"setup_s":         {t["setup_s"], "s"},
		"step_cpu_ms":     {t["step_ms"], "ms"},
		"create_cpu_ms":   {t["create_ms"], "ms"},
		"allocate_cpu_ms": {t["allocate_ms"], "ms"},
		"recovery_cpu_s":  {t["recovery_s"], "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"truth_err":       {eta, "sigma"},
		"alloc_quality":   {r.qualSum / float64(max(r.qualTasks, 1)), "prob"},
	}
}

// speedScale turns the run's CPU times into CPU times at the reference
// speed: calRefMs over the median calibration time.
func (r *runner) speedScale() float64 {
	return calRefMs / stats.Median(r.cal)
}

// timings returns the medians of the run's timings, each interval read by
// at: its wall or its CPU time.
func (r *runner) timings(at func(span) float64) map[string]float64 {
	var step, create, alloc, closeMs, ingest []float64
	for _, ss := range r.steps {
		step = append(step, at(ss.step))
		for _, c := range ss.create {
			create = append(create, at(c))
		}
		alloc = append(alloc, at(ss.alloc))
		closeMs = append(closeMs, at(ss.close))
		submit := 0.0
		for _, s := range ss.submit {
			submit += at(s)
		}
		ingest = append(ingest, float64(ss.obs)/(submit/1000))
	}
	seconds := func(xs []span) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = at(x) / 1000
		}
		return out
	}
	return map[string]float64{
		"setup_s":          stats.Median(seconds(r.setupS)),
		"step_ms":          stats.Median(step),
		"create_ms":        stats.Median(create),
		"allocate_ms":      stats.Median(alloc),
		"close_ms":         stats.Median(closeMs),
		"ingest_obs_per_s": stats.Median(ingest),
		"recovery_s":       stats.Median(seconds(r.recoveries)),
	}
}

// wallReport gives the run's timings for the report line: the CPU-time
// medians of every request kind as measured, unscaled, the close and
// ingest included, and the
// wall-time medians with the probe's latency percentiles, timed from when
// each request was due. The close and the submits are short requests
// around an fsync, and their CPU time, like every wall time, moves with
// the load other guests put on the host by more than a metric's bound
// (see README.md), so they are recorded here beside the metrics.
func (r *runner) wallReport() map[string]map[string]float64 {
	wall := r.timings(func(s span) float64 { return s.wall })
	writeDue, readDue := r.pooled()
	wall["write_p50_ms"] = stats.Quantile(writeDue, 0.5)
	wall["write_p99_ms"] = stats.Quantile(writeDue, 0.99)
	wall["read_p50_ms"] = stats.Quantile(readDue, 0.5)
	wall["read_p99_ms"] = stats.Quantile(readDue, 0.99)
	return map[string]map[string]float64{"cpu": r.timings(func(s span) float64 { return s.cpu }), "wall": wall}
}

// finalChecks runs the checks over the whole run.
func (r *runner) finalChecks() {
	eta, mean := r.errs.rmse()
	if r.errs.n == 0 {
		r.fail("no main task was estimated")
	} else if eta > mean {
		r.fail("truth error %.4fσ is worse than the unweighted mean's %.4fσ", eta, mean)
	}
	fmt.Fprintf(r.log, "stepbench: truth error %.4fσ vs unweighted mean %.4fσ over %d estimates\n", eta, mean, r.errs.n)
	if !r.traced && !r.probeEnough() {
		wd, rd := r.pooled()
		r.fail("the steps hold %d probe writes and %d reads, fewer than %d", len(wd), len(rd), r.w.minProbe)
	}
}
