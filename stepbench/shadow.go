package main

import (
	"fmt"
	"time"

	"eta2"
	"eta2/internal/allocation"
	"eta2/internal/cluster"
	"eta2/internal/core"
	"eta2/internal/semantic"
	"eta2/internal/truth"
)

// shadow replays the server's pipeline step by step through the layers'
// public functions, on the same inputs, timing each call. It holds the
// state those functions need (domains, pending tasks, the expertise
// store, the clustering engine), fed only with the benchmark's own
// inputs. Its results must equal the server's bit for bit, which shows
// that each layer timing measures the work the server did. A nil
// *shadow ignores every call, so set-up code mirrors unconditionally.
type shadow struct {
	vec        *semantic.Vectorizer
	eng        *cluster.Engine
	vectors    []semantic.TaskVector
	itemToTask []eta2.TaskID

	users    []core.User
	tasks    []core.Task
	domainOf map[eta2.TaskID]eta2.DomainID
	pending  []eta2.TaskID
	store    *truth.Store
	day      int
}

// Server defaults the shadow mirrors: decay α, clustering γ.
const (
	serverAlpha = 0.5
	serverGamma = 0.5
)

func newShadow(emb eta2.Embedder) (*shadow, error) {
	sh := &shadow{domainOf: make(map[eta2.TaskID]eta2.DomainID), store: truth.NewStore(serverAlpha)}
	if emb != nil {
		sh.vec = semantic.NewVectorizer(emb)
		eng, err := cluster.New(serverGamma, func(a, b int) float64 {
			return semantic.Distance(sh.vectors[a], sh.vectors[b])
		})
		if err != nil {
			return nil, err
		}
		sh.eng = eng
	}
	return sh, nil
}

func (sh *shadow) addUsers(users []eta2.User) {
	if sh != nil {
		sh.users = append(sh.users, users...)
	}
}

// createTiming is one create request's layer work.
type createTiming struct {
	vectorize time.Duration // summed over the described tasks
	described int
	addItems  time.Duration
	items     int // clustered items after the request
	merges    int
}

func (sh *shadow) createTasks(specs []eta2.TaskSpec) (createTiming, error) {
	var ct createTiming
	if sh == nil {
		return ct, nil
	}
	base := len(sh.tasks)
	for i, spec := range specs {
		t := core.Task{
			ID: eta2.TaskID(base + i), Description: spec.Description, Domain: spec.DomainHint,
			ProcTime: spec.ProcTime, Cost: spec.Cost, Day: sh.day,
		}
		if t.Cost == 0 {
			t.Cost = 1
		}
		if spec.DomainHint == eta2.DomainNone {
			start := time.Now()
			tv, err := sh.vec.Vectorize(spec.Description)
			ct.vectorize += time.Since(start)
			if err != nil {
				return ct, fmt.Errorf("shadow vectorize: %w", err)
			}
			sh.vectors = append(sh.vectors, tv)
			sh.itemToTask = append(sh.itemToTask, t.ID)
			ct.described++
		} else {
			sh.domainOf[t.ID] = spec.DomainHint
		}
		sh.tasks = append(sh.tasks, t)
		sh.pending = append(sh.pending, t.ID)
	}
	if ct.described > 0 {
		start := time.Now()
		up, err := sh.eng.AddItems(ct.described)
		ct.addItems = time.Since(start)
		if err != nil {
			return ct, fmt.Errorf("shadow clustering: %w", err)
		}
		if len(up.Merges) > 0 {
			store := sh.store.Clone()
			for _, m := range up.Merges {
				store.MergeDomains(m.Into, m.From)
			}
			sh.store = store
		}
		for item, dom := range up.Assigned {
			sh.domainOf[sh.itemToTask[item]] = dom
		}
		ct.merges = len(up.Merges)
	}
	if sh.eng != nil {
		ct.items = sh.eng.NumItems()
	}
	return ct, nil
}

// allocTiming is one allocation's layer work.
type allocTiming struct {
	maxQuality time.Duration
	candidates int // users × pending tasks
	pairs      []eta2.Pair
}

func (sh *shadow) allocate() (allocTiming, error) {
	var at allocTiming
	if sh == nil {
		return at, nil
	}
	tasks := make([]core.Task, 0, len(sh.pending))
	for _, id := range sh.pending {
		tasks = append(tasks, sh.tasks[int(id)])
	}
	in := allocation.Input{
		Users: sh.users,
		Tasks: tasks,
		Expertise: func(u eta2.UserID, t eta2.TaskID) float64 {
			return sh.store.Expertise(u, sh.domainOf[t])
		},
		Epsilon: allocation.DefaultEpsilon,
	}
	start := time.Now()
	res, err := allocation.MaxQuality(in, allocation.MaxQualityOptions{})
	at.maxQuality = time.Since(start)
	if err != nil {
		return at, fmt.Errorf("shadow allocation: %w", err)
	}
	at.candidates = len(sh.users) * len(tasks)
	at.pairs = res.Allocation.Pairs
	return at, nil
}

// closeTiming is one step close's layer work and results.
type closeTiming struct {
	tableBuild time.Duration
	storeClone time.Duration
	estimate   time.Duration
	iterations int
	obs        int
	mu, sigma  map[eta2.TaskID]float64
}

// closeStep estimates the step from obs: the joint MLE on the first step,
// the dynamic update afterwards, as the server does.
func (sh *shadow) closeStep(obs []eta2.Observation) (closeTiming, error) {
	var ct closeTiming
	if sh == nil {
		return ct, nil
	}
	stamped := make([]eta2.Observation, len(obs))
	for i, o := range obs {
		o.Day = sh.day
		stamped[i] = o
	}
	domainFn := func(id eta2.TaskID) eta2.DomainID { return sh.domainOf[id] }
	cfg := truth.Config{}

	start := time.Now()
	table := core.NewObservationTable(stamped)
	ct.tableBuild = time.Since(start)
	start = time.Now()
	store := sh.store.Clone()
	ct.storeClone = time.Since(start)

	start = time.Now()
	if sh.day == 0 {
		res, err := truth.Estimate(table, domainFn, nil, cfg)
		if err != nil {
			return ct, fmt.Errorf("shadow estimate: %w", err)
		}
		store.Commit(truth.Contributions(table, domainFn, res.Mu, res.Sigma, cfg))
		ct.mu, ct.sigma, ct.iterations = res.Mu, res.Sigma, res.Iterations
	} else {
		res, err := truth.UpdateStep(store, table, domainFn, cfg)
		if err != nil {
			return ct, fmt.Errorf("shadow update: %w", err)
		}
		ct.mu, ct.sigma, ct.iterations = res.Mu, res.Sigma, res.Iterations
	}
	ct.estimate = time.Since(start)
	ct.obs = len(obs)
	sh.store = store
	sh.pending = nil
	sh.day++
	return ct, nil
}
