package main

import (
	"fmt"

	"eta2"
	"eta2/internal/core"
	"eta2/internal/dataset"
	"eta2/internal/stats"
)

// spec is the make-up of one workload. Every count here is fixed: the seed
// only chooses the values drawn from the generators.
type spec struct {
	name string

	users     int
	domains   int
	capacity  float64 // τ, the mean user capacity in hours
	described bool    // tasks carry descriptions and no domain hint

	// Set-up builds the starting state: loopSteps full loop steps
	// (create, allocate, submit the allocated pairs, close) of
	// tasksPerStep tasks each, then bulkSteps steps that create
	// bulkTasks tasks each and submit bulkReadings readings per task from
	// random users, with no allocation.
	loopSteps    int
	bulkSteps    int
	bulkTasks    int
	bulkReadings int
	setupReps    int // set-ups per run; setup_s is their median

	// Each measured step creates tasksPerStep tasks in requests of
	// createBatch, allocates them, submits the allocated pairs'
	// observations plus extraReadings repeat readings on the recentWindow
	// most recent older tasks, in requests of obsBatch, closes and reads
	// the step's truths back.
	tasksPerStep  int
	createBatch   int
	obsBatch      int
	extraReadings int
	recentWindow  int
	stepsPerRound int
	recoveries    int // crash-image recoveries per round

	// Probe (see probe.go): probeTasks tasks to write to, and the samples
	// of each kind a run must collect.
	probeTasks int
	minProbe   int

	purityMin float64 // paper-loop only: domain purity the server must reach
}

// specs returns the workloads at full or tiny scale. Tiny takes the same
// code paths as a full run, except that its WAL never grows enough for a
// background compaction; the benchmark's own tests use it.
func specs(tiny bool) map[string]spec {
	paper := spec{
		name: "paper-loop", described: true,
		users: 100, domains: 6, capacity: 12,
		loopSteps: 20, setupReps: 3,
		tasksPerStep: 100, createBatch: 100, obsBatch: 100, stepsPerRound: 15, recoveries: 1,
		probeTasks: 64, minProbe: 1000,
		purityMin: 0.9,
	}
	surge := spec{
		name:  "crowd-surge",
		users: 400, domains: 8, capacity: 12,
		loopSteps: 2, setupReps: 3,
		tasksPerStep: 100, createBatch: 100, obsBatch: 200, stepsPerRound: 4, recoveries: 3,
		probeTasks: 64, minProbe: 1000,
	}
	big := spec{
		name:  "big-state",
		users: 100, domains: 16, capacity: 12,
		bulkSteps: 10, bulkTasks: 20000, bulkReadings: 3, setupReps: 3,
		tasksPerStep: 100, createBatch: 10, obsBatch: 1000,
		extraReadings: 100000, recentWindow: 2000, stepsPerRound: 4, recoveries: 1,
		probeTasks: 64, minProbe: 1000,
	}
	if tiny {
		paper.users, paper.loopSteps, paper.tasksPerStep, paper.createBatch = 12, 3, 12, 12
		paper.obsBatch, paper.stepsPerRound, paper.setupReps = 10, 2, 1
		paper.probeTasks, paper.minProbe, paper.purityMin = 8, 20, 0.6
		surge.users, surge.tasksPerStep, surge.createBatch, surge.obsBatch = 40, 10, 10, 25
		surge.stepsPerRound, surge.setupReps, surge.probeTasks, surge.minProbe = 2, 1, 8, 20
		big.users, big.bulkSteps, big.bulkTasks, big.createBatch = 10, 2, 500, 5
		big.tasksPerStep, big.obsBatch, big.extraReadings, big.recentWindow = 10, 200, 2000, 100
		big.stepsPerRound, big.setupReps, big.probeTasks, big.minProbe = 2, 1, 8, 20
	}
	return map[string]spec{paper.name: paper, surge.name: surge, big.name: big}
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"paper-loop", "crowd-surge", "big-state"}

func (s spec) setupTasks() int   { return s.loopSteps*s.tasksPerStep + s.bulkSteps*s.bulkTasks }
func (s spec) catalogTasks() int { return s.setupTasks() + s.stepsPerRound*s.tasksPerStep }

// world is everything the generator knows and the server does not: true
// expertise, true values and generator domains. Server task ids are dense
// and assigned in creation order, so the benchmark knows every id in
// advance: the set-up catalogue first, then the probe tasks (created with
// the last set-up step, after its allocation), then the round's tasks.
// Every round starts from the same state and replays the same steps, so
// its tasks get the same ids and its allocations the same pairs.
type world struct {
	spec
	seed int64
	ds   *dataset.Dataset

	probeUser   eta2.UserID
	probeDomain eta2.DomainID
}

func newWorld(sp spec, seed int64) *world {
	var ds *dataset.Dataset
	if sp.described {
		cfg := dataset.SurveyConfig(seed)
		cfg.NumUsers, cfg.NumTasks, cfg.NumDomains = sp.users, sp.catalogTasks(), sp.domains
		cfg.AvgCapacity = sp.capacity
		ds = dataset.Textual(cfg)
	} else {
		ds = dataset.Synthetic(dataset.SyntheticConfig{
			Seed: seed, NumUsers: sp.users, NumTasks: sp.catalogTasks(),
			NumDomains: sp.domains, AvgCapacity: sp.capacity,
		})
	}
	w := &world{spec: sp, seed: seed, ds: ds, probeUser: eta2.UserID(sp.users)}
	// The probe domain is a hint no workload task uses: hinted workloads
	// use 1..domains, and clustering numbers its domains from 1 upward,
	// creating at most one per task.
	w.probeDomain = eta2.DomainID(sp.domains + 1)
	if sp.described {
		w.probeDomain = eta2.DomainID(1 << 30)
	}
	return w
}

// users returns the main users plus the probe user, whose capacity of 0
// keeps every allocation away from it.
func (w *world) users() []eta2.User {
	out := make([]eta2.User, 0, len(w.ds.Users)+1)
	out = append(out, w.ds.Users...)
	return append(out, eta2.User{ID: w.probeUser, Capacity: 0})
}

// taskID maps a catalogue index to its server id.
func (w *world) taskID(i int) eta2.TaskID {
	if i < w.setupTasks() {
		return eta2.TaskID(i)
	}
	return eta2.TaskID(i + w.probeTasks)
}

// catalogIndex maps a server id back to the catalogue; false for probe
// tasks.
func (w *world) catalogIndex(id eta2.TaskID) (int, bool) {
	i := int(id)
	if i < w.setupTasks() {
		return i, true
	}
	if w.isProbeTask(id) {
		return 0, false
	}
	return i - w.probeTasks, true
}

func (w *world) isProbeTask(id eta2.TaskID) bool {
	i := int(id) - w.setupTasks()
	return i >= 0 && i < w.probeTasks
}

// probeTask is the server id of probe task k.
func (w *world) probeTask(k int) eta2.TaskID { return eta2.TaskID(w.setupTasks() + k%w.probeTasks) }

func (w *world) task(id eta2.TaskID) core.Task {
	i, _ := w.catalogIndex(id)
	return w.ds.Tasks[i]
}

func (w *world) genDomain(id eta2.TaskID) int {
	i, _ := w.catalogIndex(id)
	return w.ds.GenDomain[i]
}

// trueExpertise is u_ij as the generator draws observations with it.
func (w *world) trueExpertise(u eta2.UserID, id eta2.TaskID) float64 {
	return w.ds.TrueExpertise[int(u)][w.genDomain(id)]
}

// specFor is the TaskSpec the server receives for a catalogue index: the
// description for described workloads, the domain hint otherwise. Truth
// and base never leave the benchmark.
func (w *world) specFor(i int) eta2.TaskSpec {
	t := w.ds.Tasks[i]
	s := eta2.TaskSpec{ProcTime: t.ProcTime, Cost: t.Cost}
	if w.described {
		s.Description = t.Description
	} else {
		s.DomainHint = t.Domain
	}
	return s
}

func (w *world) probeSpecs() []eta2.TaskSpec {
	out := make([]eta2.TaskSpec, w.probeTasks)
	for i := range out {
		out[i] = eta2.TaskSpec{ProcTime: 1, DomainHint: w.probeDomain}
	}
	return out
}

// rng returns the generator stream of one phase of one step. Streams are
// independent of each other and of how long a run lasts, so a step's
// content depends only on the seed and the allocation it follows.
func (w *world) rng(phase, step int) *stats.RNG {
	x := uint64(w.seed)*0x9E3779B97F4A7C15 ^ uint64(phase)<<40 ^ uint64(step)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return stats.NewRNG(int64(x >> 1))
}

// Generator phases.
const (
	phaseSetupPairs = iota + 1
	phaseSetupBulk
	phaseStepPairs
	phaseStepExtra
	phaseProbe
)

var model = dataset.ObservationModel{}

// observe draws the allocated pairs' values from N(μ_j, (σ_j/u_ij)²).
func (w *world) observe(pairs []eta2.Pair, rng *stats.RNG) []eta2.Observation {
	out := make([]eta2.Observation, 0, len(pairs))
	for _, p := range pairs {
		v := model.Observe(w.task(p.Task), w.trueExpertise(p.User, p.Task), rng)
		out = append(out, eta2.Observation{Task: p.Task, User: p.User, Value: v})
	}
	return out
}

// readings draws n repeat readings by random main users on tasks drawn
// from ids.
func (w *world) readings(ids []eta2.TaskID, n int, rng *stats.RNG) []eta2.Observation {
	out := make([]eta2.Observation, 0, n)
	for k := 0; k < n; k++ {
		id := ids[rng.Intn(len(ids))]
		u := eta2.UserID(rng.Intn(len(w.ds.Users)))
		v := model.Observe(w.task(id), w.trueExpertise(u, id), rng)
		out = append(out, eta2.Observation{Task: id, User: u, Value: v})
	}
	return out
}

// stepTasks returns the catalogue indices created by measured step s.
func (w *world) stepTasks(s int) (lo, hi int) {
	lo = w.setupTasks() + s*w.tasksPerStep
	return lo, lo + w.tasksPerStep
}

// recentTasks is the window of older tasks that step s's repeat readings
// go to: the recentWindow main tasks created just before the step.
func (w *world) recentTasks(s int) []eta2.TaskID {
	lo, _ := w.stepTasks(s)
	out := make([]eta2.TaskID, 0, w.recentWindow)
	for id := int(w.taskID(lo)) - 1; id >= 0 && len(out) < w.recentWindow; id-- {
		if !w.isProbeTask(eta2.TaskID(id)) {
			out = append(out, eta2.TaskID(id))
		}
	}
	return out
}

func (w *world) String() string { return fmt.Sprintf("%s seed %d", w.name, w.seed) }
