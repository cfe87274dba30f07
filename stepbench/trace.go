package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"eta2"
	"eta2/internal/obs"
	"eta2/internal/repl"
	"eta2/internal/stats"
	"eta2/internal/trace"
)

// tracer gathers the traced run's per-layer numbers from the benchmark's
// own side of the program's public surface:
//
//   - a twin server, opened on the same starting state, receives each
//     step's exact requests in-process after the HTTP step, each call
//     back to back with the shadow's replay of the same work, so the
//     difference of the two is the eta2 layer's own time;
//   - the twin also serves a loopback listener no probe uses: the
//     repeatable requests (allocate, truth reads) go to it over HTTP and
//     in-process back to back, and their difference is the HTTP layer's
//     own time;
//   - the shadow replays each step through the layers' public functions
//     and must reproduce the server's pairs, estimates and domains;
//   - the /metrics series and write-trace spans the server already
//     exposes give the WAL's numbers.
type tracer struct {
	r       *runner
	sh      *shadow
	twin    *eta2.Server
	twinAPI *httpServer
	twinCon *apiConn
	dir     string

	seen      map[*trace.Trace]bool
	httpStart series
	mem       runtime.MemStats
	roundBase series

	// per request or read
	submitSelf, submitIn, createSelf, appendUs, readSelf []float64
	// per step
	allocSelf, allocHTTPSelf, closeSelf, lockHeld         []float64
	estimate, iterations, observations, clone, tableBuild []float64
	maxQuality, candidates, pairs, addItems, items        []float64
	gcPause, allocMB                                      []float64
	merges, vectorizeNs, described                        float64
	wal                                                   series // summed HTTP-phase deltas

	snapBytes, encodeMs, decodeMs, replayMs, compactions float64

	// unresolved names each self time whose median is within the
	// spread of its samples, with that median and spread in ms.
	unresolved map[string][2]float64
}

// allocReps is how many times the traced run times each step's
// allocation on the twin, in-process and over HTTP, and through the
// shadow; each side's figure is the median.
const allocReps = 3

func newTracer(r *runner, sh *shadow) *tracer {
	return &tracer{r: r, sh: sh, seen: make(map[*trace.Trace]bool), wal: make(series), unresolved: make(map[string][2]float64)}
}

// forceTrace marks every observation submit so the server records its
// write trace whatever its sampling rate.
func forceTrace(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/v1/observations" {
			req = req.Clone(req.Context())
			req.Header.Set(repl.HeaderTrace, "1")
		}
		return next.RoundTrip(req)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// beginRound opens the twin on its own copy of the starting state, with
// automatic compaction off so it never writes in the background while the
// HTTP server is measured, and serves it on its own loopback listener.
func (t *tracer) beginRound(srv *eta2.Server) error {
	t.dir = filepath.Join(t.r.work, "twin")
	if err := copyDir(t.r.tp.dir, t.dir); err != nil {
		return fmt.Errorf("copy twin state: %w", err)
	}
	twin, err := eta2.NewServer(serverOptions(t.dir, t.r.tp.emb, -1)...)
	if err != nil {
		return fmt.Errorf("open twin: %w", err)
	}
	t.twin = twin
	if t.twinAPI, err = serveHTTP(twin); err != nil {
		return err
	}
	t.twinCon = dial(t.twinAPI.base, nil)
	t.roundBase = scrape()
	return nil
}

func (t *tracer) beginStep() {
	t.httpStart = scrape()
	runtime.ReadMemStats(&t.mem)
}

// endStep closes the step's HTTP phase, then replays the step on the twin
// and through the shadow and checks both agree with the server.
func (t *tracer) endStep(srv *eta2.Server, rec *stepRecord) error {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.gcPause = append(t.gcPause, float64(mem.PauseTotalNs-t.mem.PauseTotalNs)/1e6)
	t.allocMB = append(t.allocMB, float64(mem.TotalAlloc-t.mem.TotalAlloc)/(1<<20))
	t.wal.add(scrape().minus(t.httpStart))
	for _, tr := range srv.Tracer().Recorder().Snapshot() {
		if t.seen[tr] {
			continue
		}
		t.seen[tr] = true
		for _, sp := range tr.Spans() {
			if sp.Name == trace.SpanJournalAppend {
				t.appendUs = append(t.appendUs, float64(sp.Dur)/float64(time.Microsecond))
			}
		}
	}

	replayStart := scrape()
	st, err := t.replay(srv, rec)
	if err != nil {
		return err
	}
	d := scrape().minus(replayStart)
	fsyncMs := 1000 * d.ratio("eta2_wal_fsync_duration_seconds_sum", "eta2_wal_fsync_duration_seconds_count")
	if math.IsNaN(fsyncMs) {
		fsyncMs = 0
	}
	for _, c := range st.creates {
		t.createSelf = append(t.createSelf, c-fsyncMs)
	}
	t.allocSelf = append(t.allocSelf, st.alloc-st.maxQuality-fsyncMs)
	t.closeSelf = append(t.closeSelf, st.close-fsyncMs)
	return nil
}

// stepTimes are one step's in-process figures on the twin, in ms, less
// the matching shadow work (fsync is taken off once the step's mean is
// known).
type stepTimes struct {
	creates    []float64 // per request: twin create − vectorise − cluster
	alloc      float64   // median twin allocate
	maxQuality float64   // median shadow MaxQuality
	close      float64   // twin close − table build − estimate
}

// replay sends the step's requests to the twin and the matching work
// through the shadow, each pair of calls back to back.
func (t *tracer) replay(srv *eta2.Server, rec *stepRecord) (stepTimes, error) {
	var st stepTimes
	var held float64
	k := 0
	for _, specs := range rec.specs {
		t0 := time.Now()
		ids, err := t.twin.CreateTasks(specs...)
		took := millis(time.Since(t0))
		if err != nil {
			return st, fmt.Errorf("twin create: %w", err)
		}
		for _, id := range ids {
			if id != rec.created[k] {
				t.r.fail("step %d: twin created task %d, the HTTP server %d", rec.step, id, rec.created[k])
			}
			k++
		}
		ct, err := t.sh.createTasks(specs)
		if err != nil {
			return st, err
		}
		held += took
		st.creates = append(st.creates, took-millis(ct.vectorize+ct.addItems))
		t.addItems = append(t.addItems, millis(ct.addItems))
		t.vectorizeNs += float64(ct.vectorize)
		t.described += float64(ct.described)
		t.merges += float64(ct.merges)
		t.items = append(t.items, float64(ct.items))
	}
	for id, d := range t.sh.domainOf {
		if got := srv.Domain(id); got != d {
			t.r.fail("step %d: shadow puts task %d in domain %d, the server %d", rec.step, id, d, got)
			break
		}
	}

	var inProc, viaHTTP, maxQ []float64
	var at allocTiming
	for rep := 0; rep < allocReps; rep++ {
		t0 := time.Now()
		alloc, err := t.twin.AllocateMaxQuality()
		inProc = append(inProc, millis(time.Since(t0)))
		if err != nil {
			return st, fmt.Errorf("twin allocate: %w", err)
		}
		if at, err = t.sh.allocate(); err != nil {
			return st, err
		}
		maxQ = append(maxQ, millis(at.maxQuality))
		t0 = time.Now()
		pj, err := t.twinCon.AllocateMaxQuality(t.r.ctx)
		viaHTTP = append(viaHTTP, millis(time.Since(t0)))
		if err != nil {
			return st, fmt.Errorf("twin HTTP allocate: %w", err)
		}
		viaPairs := make([]eta2.Pair, len(pj))
		for i, p := range pj {
			viaPairs[i] = eta2.Pair{User: eta2.UserID(p.User), Task: eta2.TaskID(p.Task)}
		}
		if !equalPairs(alloc.Pairs, rec.pairs) || !equalPairs(viaPairs, rec.pairs) {
			t.r.fail("step %d: twin allocation differs from the HTTP server's", rec.step)
		}
		if !equalPairs(at.pairs, rec.pairs) {
			t.r.fail("step %d: shadow allocation differs from the server's", rec.step)
		}
	}
	st.alloc, st.maxQuality = stats.Median(inProc), stats.Median(maxQ)
	held += st.alloc
	t.allocHTTPSelf = append(t.allocHTTPSelf, stats.Median(viaHTTP)-st.alloc)
	t.maxQuality = append(t.maxQuality, st.maxQuality)
	t.candidates = append(t.candidates, float64(at.candidates))
	t.pairs = append(t.pairs, float64(len(at.pairs)))

	for i, b := range rec.batches {
		t0 := time.Now()
		err := t.twin.SubmitObservations(b...)
		took := millis(time.Since(t0))
		if err != nil {
			return st, fmt.Errorf("twin submit: %w", err)
		}
		t.submitIn = append(t.submitIn, took)
		t.submitSelf = append(t.submitSelf, rec.submit[i].wall-took)
	}

	t0 := time.Now()
	rep, err := t.twin.CloseTimeStep()
	took := millis(time.Since(t0))
	if err != nil {
		return st, fmt.Errorf("twin close: %w", err)
	}
	ct, err := t.sh.closeStep(rec.obs)
	if err != nil {
		return st, err
	}
	held += took
	st.close = took - millis(ct.tableBuild+ct.estimate)
	if !sameEstimates(rep.Estimates, rec.est) {
		t.r.fail("step %d: twin estimates differ from the HTTP server's", rec.step)
	}
	for id, e := range rec.est {
		if math.Float64bits(ct.mu[id]) != math.Float64bits(e.mu) || math.Float64bits(ct.sigma[id]) != math.Float64bits(e.sigma) {
			t.r.fail("step %d: shadow estimate of task %d is %v/%v, the server's %v/%v", rec.step, id, ct.mu[id], ct.sigma[id], e.mu, e.sigma)
			break
		}
	}
	if len(ct.mu) != len(rec.est) {
		t.r.fail("step %d: shadow estimated %d tasks, the server %d main tasks", rec.step, len(ct.mu), len(rec.est))
	}
	t.estimate = append(t.estimate, millis(ct.estimate))
	t.iterations = append(t.iterations, float64(ct.iterations))
	t.observations = append(t.observations, float64(ct.obs))
	t.clone = append(t.clone, millis(ct.storeClone))
	t.tableBuild = append(t.tableBuild, millis(ct.tableBuild))
	t.lockHeld = append(t.lockHeld, held)

	for _, id := range rec.created {
		if _, ok := rec.est[id]; !ok {
			continue
		}
		t0 := time.Now()
		_, err := t.twinCon.Truth(t.r.ctx, int(id))
		viaHTTP := millis(time.Since(t0))
		if err != nil {
			return st, fmt.Errorf("twin HTTP read: %w", err)
		}
		t0 = time.Now()
		_, ok := t.twin.Truth(id)
		t.readSelf = append(t.readSelf, viaHTTP-millis(time.Since(t0)))
		if !ok {
			t.r.fail("step %d: twin has no truth for task %d", rec.step, id)
		}
	}
	return st, nil
}

// sameEstimates compares a step report's main-task estimates bit for bit.
func sameEstimates(got []eta2.TruthEstimate, want map[eta2.TaskID]estimate) bool {
	n := 0
	for _, e := range got {
		w, ok := want[e.Task]
		if !ok {
			continue // a probe task
		}
		n++
		if math.Float64bits(w.mu) != math.Float64bits(e.Value) || math.Float64bits(w.sigma) != math.Float64bits(e.Base) {
			return false
		}
	}
	return n == len(want)
}

// recovered takes the snapshot numbers from the round's first crash-image
// recovery: the live state's encoded size and encode time, the time to
// decode the image's newest snapshot on its own, and the rest of the
// recovery time, which is the WAL-tail replay.
func (t *tracer) recovered(img string, took, encode time.Duration, live []byte) error {
	t.snapBytes = float64(len(live))
	t.encodeMs = millis(encode)
	snaps, _ := filepath.Glob(filepath.Join(img, "snapshot-*.bin"))
	sort.Strings(snaps) // zero-padded LSNs: the last is the newest
	if len(snaps) > 0 {
		data, err := os.ReadFile(snaps[len(snaps)-1])
		if err != nil {
			return err
		}
		var opts []eta2.Option
		if t.r.tp.emb != nil {
			opts = append(opts, eta2.WithEmbedder(t.r.tp.emb))
		}
		t0 := time.Now()
		if _, err := eta2.LoadServer(bytes.NewReader(data), opts...); err != nil {
			return fmt.Errorf("decode crash-image snapshot: %w", err)
		}
		t.decodeMs = millis(time.Since(t0))
	}
	t.replayMs = millis(took) - t.decodeMs
	t.compactions = scrape().minus(t.roundBase)[`eta2_server_compaction_duration_seconds_count{mode="background"}`]
	return nil
}

// close releases the twin and its listener.
func (t *tracer) close() {
	if t.twinCon != nil {
		t.twinCon.close()
	}
	if t.twinAPI != nil {
		t.twinAPI.stop()
	}
	if t.twin != nil {
		t.twin.Close()
		os.RemoveAll(t.dir)
	}
}

// self is the median of a self time's samples, or 0 when that median is
// within the samples' interquartile spread, which the two timings' noise
// alone can produce; it is then listed in the report line as unresolved.
func (t *tracer) self(name string, d []float64) float64 {
	med := stats.Median(d)
	spread := stats.Quantile(d, 0.75) - stats.Quantile(d, 0.25)
	if len(d) > 0 && med <= spread {
		t.unresolved[name] = [2]float64{med, spread}
		return 0
	}
	return med
}

// perLayer assembles the per-layer metrics.
func (t *tracer) perLayer() map[string]metric {
	vec := 0.0
	if t.described > 0 {
		vec = t.vectorizeNs / t.described / 1e3
	}
	median := stats.Median
	return map[string]metric{
		"httpapi.submit_self_ms":    {t.self("httpapi.submit_self_ms", t.submitSelf), "ms"},
		"httpapi.allocate_self_ms":  {t.self("httpapi.allocate_self_ms", t.allocHTTPSelf), "ms"},
		"httpapi.read_self_ms":      {t.self("httpapi.read_self_ms", t.readSelf), "ms"},
		"eta2.create_self_ms":       {t.self("eta2.create_self_ms", t.createSelf), "ms"},
		"eta2.allocate_self_ms":     {t.self("eta2.allocate_self_ms", t.allocSelf), "ms"},
		"eta2.close_self_ms":        {t.self("eta2.close_self_ms", t.closeSelf), "ms"},
		"eta2.submit_ms":            {median(t.submitIn), "ms"},
		"eta2.lock_held_ms":         {median(t.lockHeld), "ms"},
		"eta2.snapshot_bytes":       {t.snapBytes, "bytes"},
		"eta2.snapshot_encode_ms":   {t.encodeMs, "ms"},
		"eta2.compactions":          {t.compactions, "count"},
		"eta2.snapshot_decode_ms":   {t.decodeMs, "ms"},
		"eta2.replay_ms":            {t.replayMs, "ms"},
		"wal.append_us":             {median(t.appendUs), "us"},
		"wal.fsync_ms":              {1000 * t.wal.ratio("eta2_wal_fsync_duration_seconds_sum", "eta2_wal_fsync_duration_seconds_count"), "ms"},
		"wal.records_per_fsync":     {t.wal.ratio("eta2_wal_appended_records_total", "eta2_wal_fsyncs_total"), "count"},
		"wal.bytes_per_obs":         {t.wal.ratio("eta2_wal_appended_bytes_total", "eta2_server_observations_accepted_total"), "bytes"},
		"truth.estimate_ms":         {median(t.estimate), "ms"},
		"truth.iterations":          {median(t.iterations), "count"},
		"truth.observations":        {median(t.observations), "count"},
		"truth.store_clone_ms":      {median(t.clone), "ms"},
		"core.table_build_ms":       {median(t.tableBuild), "ms"},
		"allocation.max_quality_ms": {median(t.maxQuality), "ms"},
		"allocation.candidates":     {median(t.candidates), "count"},
		"allocation.pairs":          {median(t.pairs), "count"},
		"cluster.add_items_ms":      {median(t.addItems), "ms"},
		"cluster.items":             {median(t.items), "count"},
		"cluster.merges":            {t.merges, "count"},
		"semantic.vectorize_us":     {vec, "us"},
		"runtime.gc_pause_ms":       {median(t.gcPause), "ms"},
		"runtime.alloc_mb_per_step": {median(t.allocMB), "MB"},
	}
}

// series is one scrape of the process's /metrics exposition, keyed by
// series name with labels.
type series map[string]float64

func scrape() series {
	var buf bytes.Buffer
	_ = obs.Default().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	out := make(series)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func (s series) minus(base series) series {
	out := make(series, len(s))
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

func (s series) add(d series) {
	for k, v := range d {
		s[k] += v
	}
}

func (s series) ratio(num, den string) float64 {
	if s[den] == 0 {
		return math.NaN()
	}
	return s[num] / s[den]
}
