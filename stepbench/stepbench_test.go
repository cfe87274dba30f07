package main

import (
	"context"
	"io"
	"log/slog"
	"math"
	"os"
	"testing"

	"eta2"
)

func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(m.Run())
}

// TestTinyWorkloads runs every workload at tiny scale, plain and traced,
// and requires every check to pass with no failed operation.
func TestTinyWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []int{0, 1} {
			o := options{workload: name, seed: 7, seconds: 0.2, trace: traced, tiny: true, work: t.TempDir(), src: "."}
			res, err := runOnce(o, specs(true)[name], io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEndNames
			if traced == 1 {
				want = perLayerNames
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", name, traced, m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

var endToEndNames = []string{"setup_s", "step_cpu_ms", "create_cpu_ms", "allocate_cpu_ms", "recovery_cpu_s",
	"peak_rss_mb", "truth_err", "alloc_quality"}

var perLayerNames = []string{"httpapi.submit_self_ms", "httpapi.allocate_self_ms", "httpapi.read_self_ms",
	"eta2.create_self_ms", "eta2.allocate_self_ms", "eta2.close_self_ms", "eta2.submit_ms", "eta2.lock_held_ms",
	"eta2.snapshot_bytes", "eta2.snapshot_encode_ms", "eta2.compactions", "eta2.snapshot_decode_ms", "eta2.replay_ms",
	"wal.append_us", "wal.fsync_ms", "wal.records_per_fsync", "wal.bytes_per_obs",
	"truth.estimate_ms", "truth.iterations", "truth.observations", "truth.store_clone_ms", "core.table_build_ms",
	"allocation.max_quality_ms", "allocation.candidates", "allocation.pairs",
	"cluster.add_items_ms", "cluster.items", "cluster.merges", "semantic.vectorize_us",
	"runtime.gc_pause_ms", "runtime.alloc_mb_per_step"}

func TestCheckEstimatesRejectsTruthOutsideRange(t *testing.T) {
	obs := []eta2.Observation{{Task: 1, User: 0, Value: 2}, {Task: 1, User: 1, Value: 4}}
	if err := checkEstimates(map[eta2.TaskID]estimate{1: {mu: 3, sigma: 1}}, obs); err != nil {
		t.Fatalf("valid estimate rejected: %v", err)
	}
	for _, bad := range []estimate{{mu: 4.5, sigma: 1}, {mu: 1.9, sigma: 1}, {mu: 3, sigma: 0}, {mu: math.NaN(), sigma: 1}} {
		if err := checkEstimates(map[eta2.TaskID]estimate{1: bad}, obs); err == nil {
			t.Errorf("estimate %+v accepted", bad)
		}
	}
	if err := checkEstimates(map[eta2.TaskID]estimate{1: {mu: 3, sigma: 1}, 2: {mu: 3, sigma: 1}}, obs); err == nil {
		t.Error("estimate of an unobserved task accepted")
	}
}

// problem is two users and two one-hour tasks; user 1 can take one task.
func problem() allocProblem {
	return allocProblem{
		users:    []eta2.User{{ID: 0, Capacity: 2.5}, {ID: 1, Capacity: 1.5}},
		pending:  []eta2.TaskID{10, 11},
		procTime: map[eta2.TaskID]float64{10: 1, 11: 1},
		p:        func(eta2.UserID, eta2.TaskID) float64 { return 0.2 },
	}
}

func TestCheckAllocationRejectsFaults(t *testing.T) {
	good := []eta2.Pair{{User: 0, Task: 10}, {User: 0, Task: 11}, {User: 1, Task: 10}}
	if err := checkAllocation(problem(), good); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	faults := map[string][]eta2.Pair{
		"over capacity":        {{User: 0, Task: 10}, {User: 0, Task: 11}, {User: 1, Task: 10}, {User: 1, Task: 11}},
		"duplicate pair":       {{User: 0, Task: 10}, {User: 0, Task: 10}, {User: 0, Task: 11}, {User: 1, Task: 10}},
		"unregistered user":    {{User: 0, Task: 10}, {User: 0, Task: 11}, {User: 1, Task: 10}, {User: 5, Task: 11}},
		"task not pending":     {{User: 0, Task: 10}, {User: 0, Task: 11}, {User: 1, Task: 12}},
		"feasible pair left":   {{User: 0, Task: 10}, {User: 1, Task: 10}},
		"capacity left unused": {{User: 0, Task: 10}, {User: 0, Task: 11}},
	}
	for name, pairs := range faults {
		if err := checkAllocation(problem(), pairs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckAllocationAcceptsZeroGainLeftovers(t *testing.T) {
	pr := problem()
	pr.p = func(u eta2.UserID, _ eta2.TaskID) float64 {
		if u == 1 {
			return 0 // expertise 0: no gain, so leaving user 1 idle is right
		}
		return 0.2
	}
	if err := checkAllocation(pr, []eta2.Pair{{User: 0, Task: 10}, {User: 0, Task: 11}}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRecoveredRejectsDifference(t *testing.T) {
	if err := checkRecovered([]byte("state"), []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered([]byte("state"), []byte("stale")); err == nil {
		t.Fatal("differing recovered state accepted")
	}
}

func TestPurity(t *testing.T) {
	server := map[eta2.TaskID]eta2.DomainID{1: 1, 2: 1, 3: 2, 4: 2}
	gen := map[eta2.TaskID]int{1: 0, 2: 0, 3: 1, 4: 0}
	if got := purity(server, gen); got != 0.75 {
		t.Fatalf("purity %v, want 0.75", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestSameSeedSameContent checks a step's pairs and observations depend
// on the seed alone.
func TestSameSeedSameContent(t *testing.T) {
	digest := func(seed int64) string {
		o := options{workload: "crowd-surge", seed: seed, seconds: 0.1, tiny: true, work: t.TempDir(), src: "."}
		w := newWorld(specs(true)[o.workload], o.seed)
		r := newRunner(context.Background(), w, o.seconds, false, o.work, io.Discard)
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		if err := r.measure(); err != nil {
			t.Fatal(err)
		}
		return r.contentDigest()
	}
	a, b, c := digest(3), digest(3), digest(4)
	if a != b {
		t.Errorf("seed 3 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same digest %s", a)
	}
}

// TestEndToEndReadsCPUTime checks the metrics are the medians of the
// intervals' CPU times scaled to the reference speed, and that the report
// line records the close and ingest timings unscaled (the ingest rate is
// main observations per second of the step's submits) and the wall times.
func TestEndToEndReadsCPUTime(t *testing.T) {
	r := &runner{}
	for _, k := range []float64{1, 2, 3} {
		r.steps = append(r.steps, &stepSample{step: span{100 * k, 10 * k}, create: []span{{9 * k, 3 * k}},
			alloc: span{50 * k, 5 * k}, close: span{5 * k, 2 * k}, submit: []span{{20 * k, 1 * k}, {20 * k, 1 * k}}, obs: 100,
			probe: probeSamples{writeDue: []float64{7 * k}, readDue: []float64{8 * k}}})
	}
	r.recoveries = []span{{2000, 1500}}
	r.setupS = []span{{4000, 3000}, {5000, 3500}, {9000, 8000}}
	r.cal = []float64{10, 10, 10} // twice the reference speed
	want := map[string]float64{
		"step_cpu_ms": 40, "create_cpu_ms": 12, "allocate_cpu_ms": 20, "recovery_cpu_s": 3, "setup_s": 7,
	}
	got := r.endToEnd()
	for k, w := range want {
		if math.Abs(got[k].Value-w) > 1e-9 {
			t.Errorf("%s: %v, want %v", k, got[k].Value, w)
		}
	}
	rep := r.wallReport()
	for k, w := range map[string]float64{"close_ms": 4, "ingest_obs_per_s": 25000} {
		if math.Abs(rep["cpu"][k]-w) > 1e-9 {
			t.Errorf("cpu %s: %v, want %v", k, rep["cpu"][k], w)
		}
	}
	for k, w := range map[string]float64{"step_ms": 200, "ingest_obs_per_s": 1250, "write_p50_ms": 14, "read_p50_ms": 16} {
		if math.Abs(rep["wall"][k]-w) > 1e-9 {
			t.Errorf("wall %s: %v, want %v", k, rep["wall"][k], w)
		}
	}
}

// TestSelfTimeWithinSpreadIsUnresolved checks a self time is reported only
// when its median stands clear of its samples' spread.
func TestSelfTimeWithinSpreadIsUnresolved(t *testing.T) {
	tr := newTracer(nil, nil)
	if got := tr.self("clear", []float64{10, 11, 12, 10.5}); got != 10.75 {
		t.Errorf("clear self time %v, want 10.75", got)
	}
	if got := tr.self("noise", []float64{-20, 5, 30, -2}); got != 0 {
		t.Errorf("noisy self time %v, want 0", got)
	}
	if _, ok := tr.unresolved["noise"]; !ok {
		t.Error("noisy self time not listed as unresolved")
	}
	if _, ok := tr.unresolved["clear"]; ok {
		t.Error("clear self time listed as unresolved")
	}
}
