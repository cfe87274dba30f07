package main

import (
	"bytes"
	"fmt"
	"math"

	"eta2"
)

// The checkers below are computed apart from the program: they take the
// program's outputs and the benchmark's own inputs, and test properties
// the method must have. None compares against stored output.

// estimate is one truth estimate as the server reported it.
type estimate struct {
	mu, sigma float64
}

// checkEstimates tests every main-task estimate against the observations
// it was made from: Eq. 5 is a positively weighted mean, so μ̂_j lies in
// the range of task j's observations, and σ̂_j must be positive.
func checkEstimates(est map[eta2.TaskID]estimate, obs []eta2.Observation) error {
	lo := make(map[eta2.TaskID]float64)
	hi := make(map[eta2.TaskID]float64)
	for _, o := range obs {
		if l, ok := lo[o.Task]; !ok || o.Value < l {
			lo[o.Task] = o.Value
		}
		if h, ok := hi[o.Task]; !ok || o.Value > h {
			hi[o.Task] = o.Value
		}
	}
	if len(est) != len(lo) {
		return fmt.Errorf("%d main tasks observed but %d estimated", len(lo), len(est))
	}
	for id, e := range est {
		l, ok := lo[id]
		if !ok {
			return fmt.Errorf("task %d estimated without observations", id)
		}
		// A weighted mean can round one ulp outside the range.
		slack := 1e-12 * math.Max(1, math.Max(math.Abs(l), math.Abs(hi[id])))
		if e.mu < l-slack || e.mu > hi[id]+slack || math.IsNaN(e.mu) {
			return fmt.Errorf("task %d: estimate %g outside its observations' range [%g, %g]", id, e.mu, l, hi[id])
		}
		if !(e.sigma > 0) {
			return fmt.Errorf("task %d: base estimate %g is not positive", id, e.sigma)
		}
	}
	return nil
}

// accuracyProb is p = Φ(εu) − Φ(−εu), the chance a reading of a user of
// expertise u lands within ε base numbers of the truth (paper Eq. 11).
func accuracyProb(eps, u float64) float64 {
	if u <= 0 {
		return 0
	}
	return math.Erf(eps * u / math.Sqrt2)
}

// allocProblem is what one max-quality allocation was asked to solve.
type allocProblem struct {
	users    []eta2.User
	pending  []eta2.TaskID
	procTime map[eta2.TaskID]float64
	// p is p_ij from the expertise the allocation read.
	p func(eta2.UserID, eta2.TaskID) float64
}

// checkAllocation tests a max-quality allocation: each user's summed
// processing time is within capacity, no pair repeats, every pair names
// a pending task and a registered user, and no feasible pair with a
// positive gain p_ij·(1 − p_j) is left out, since Algorithm 1 and its
// size-agnostic pass stop only there.
func checkAllocation(pr allocProblem, pairs []eta2.Pair) error {
	capacity := make(map[eta2.UserID]float64, len(pr.users))
	for _, u := range pr.users {
		capacity[u.ID] = u.Capacity
	}
	isPending := make(map[eta2.TaskID]bool, len(pr.pending))
	for _, t := range pr.pending {
		isPending[t] = true
	}
	used := make(map[eta2.UserID]float64)
	seen := make(map[eta2.Pair]bool, len(pairs))
	miss := make(map[eta2.TaskID]float64) // Π(1 − p_ij) over the task's users
	for _, p := range pairs {
		if _, ok := capacity[p.User]; !ok {
			return fmt.Errorf("pair %v names an unregistered user", p)
		}
		if !isPending[p.Task] {
			return fmt.Errorf("pair %v names a task that is not pending", p)
		}
		if seen[p] {
			return fmt.Errorf("pair %v allocated twice", p)
		}
		seen[p] = true
		used[p.User] += pr.procTime[p.Task]
		if _, ok := miss[p.Task]; !ok {
			miss[p.Task] = 1
		}
		miss[p.Task] *= 1 - pr.p(p.User, p.Task)
	}
	const tol = 1e-9
	for u, t := range used {
		if t > capacity[u]+tol {
			return fmt.Errorf("user %d allocated %.6gh over capacity %.6gh", u, t, capacity[u])
		}
	}
	// A pair counts as feasible only when it fits with tol to spare, so
	// the server's own rounding of the remaining capacity cannot make a
	// correct allocation fail.
	for _, u := range pr.users {
		rem := capacity[u.ID] - used[u.ID]
		for _, t := range pr.pending {
			if seen[eta2.Pair{User: u.ID, Task: t}] || pr.procTime[t] > rem-tol {
				continue
			}
			pj := 0.0
			if m, ok := miss[t]; ok {
				pj = 1 - m
			}
			if gain := pr.p(u.ID, t) * (1 - pj); gain > 1e-12 {
				return fmt.Errorf("feasible pair (user %d, task %d) with gain %.3g left unallocated", u.ID, t, gain)
			}
		}
	}
	return nil
}

// purity is the share of tasks whose server domain's majority generator
// domain is their own.
func purity(server map[eta2.TaskID]eta2.DomainID, gen map[eta2.TaskID]int) float64 {
	counts := make(map[eta2.DomainID]map[int]int)
	for id, d := range server {
		if counts[d] == nil {
			counts[d] = make(map[int]int)
		}
		counts[d][gen[id]]++
	}
	agree := 0
	for _, c := range counts {
		best := 0
		for _, n := range c {
			best = max(best, n)
		}
		agree += best
	}
	if len(server) == 0 {
		return 0
	}
	return float64(agree) / float64(len(server))
}

// checkRecovered compares the state a crash image recovered to with the
// live server's.
func checkRecovered(live, recovered []byte) error {
	if !bytes.Equal(live, recovered) {
		return fmt.Errorf("recovered state differs from the live state (%d vs %d bytes)", len(recovered), len(live))
	}
	return nil
}

// errAcc accumulates normalized truth errors: ETA²'s estimate and the
// unweighted mean of the same observations.
type errAcc struct {
	n            int
	eta, meanErr float64
}

// add folds one step's main-task estimates in.
func (a *errAcc) add(w *world, est map[eta2.TaskID]estimate, obs []eta2.Observation) {
	sum := make(map[eta2.TaskID]float64)
	cnt := make(map[eta2.TaskID]int)
	for _, o := range obs {
		sum[o.Task] += o.Value
		cnt[o.Task]++
	}
	for id, e := range est {
		t := w.task(id)
		d := (e.mu - t.Truth) / t.Base
		m := (sum[id]/float64(cnt[id]) - t.Truth) / t.Base
		a.eta += d * d
		a.meanErr += m * m
		a.n++
	}
}

func (a *errAcc) rmse() (eta, mean float64) {
	if a.n == 0 {
		return 0, 0
	}
	return math.Sqrt(a.eta / float64(a.n)), math.Sqrt(a.meanErr / float64(a.n))
}

// allocQuality is the mean over allocated tasks of q_j = 1 − Π(1 − p_ij),
// with p_ij from the generator's true expertise.
func allocQuality(w *world, pairs []eta2.Pair) (sum float64, tasks int) {
	miss := make(map[eta2.TaskID]float64)
	for _, p := range pairs {
		if _, ok := miss[p.Task]; !ok {
			miss[p.Task] = 1
		}
		miss[p.Task] *= 1 - accuracyProb(epsilon, w.trueExpertise(p.User, p.Task))
	}
	for _, m := range miss {
		sum += 1 - m
	}
	return sum, len(miss)
}

// epsilon is the accuracy threshold ε the server allocates with (the
// paper's 0.1, the server default).
const epsilon = 0.1
