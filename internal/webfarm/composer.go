package webfarm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/perfavail"
	"repro/internal/queueing"
	"repro/internal/sweep"
)

// repairKey identifies one structural (repair-model) configuration: the
// parameters the Figure 9/10 chains depend on. Two farm cells that differ
// only in arrival rate or buffer size share the same repair solution.
type repairKey struct {
	servers                             int
	failure, repair, coverage, reconfig float64
}

// repairSolution holds memoized structural-state probabilities. The slices
// are shared between all cells with the same key and must be treated as
// immutable.
type repairSolution struct {
	operational, reconfig []float64
}

// lossKey identifies one M/M/i/K loss curve: the queueing inputs other than
// the operational server count. Cells that differ only in server count or
// failure/repair parameters share one curve.
type lossKey struct {
	arrival, service float64
	buffer           int
}

// lossCurve holds p_K(i), i = 1..K, for one lossKey. Each p_K(i) is solved
// on its first lookup; mu guards the slots, which only grow.
type lossCurve struct {
	mu    sync.Mutex
	slots []lossSlot // slots[i-1] holds p_K(i)
}

// lossSlot is one solved (or not yet solved) p_K(i) and its error.
type lossSlot struct {
	pk     float64
	err    error
	solved bool
}

// Composer assembles composite farm models like Farm.Compose but memoizes
// the two expensive, reusable ingredients across calls:
//
//   - the repair-model solution, keyed by (Servers, FailureRate, RepairRate,
//     Coverage, ReconfigRate) — reused across all (ArrivalRate, BufferSize)
//     cells of a sweep, and
//   - the M/M/i/K loss curve p_K(1..K), one entry per (ArrivalRate,
//     ServiceRate, BufferSize) whose p_K(i) are solved lazily, each once,
//     for the clamped server count i — reused across all failure-parameter
//     and farm-size cells. A cell pays one curve lookup, not one per
//     server count.
//
// On the paper's Figure 11/12 grid (3 failure rates × 3 arrival rates × 10
// farm sizes) this cuts 90 repair solves to 30 and 495 queueing solves to
// 30 (3 curves of 10) per coverage setting, with results bit-identical to
// the uncached path (the same computations run, just once).
//
// A Composer is safe for concurrent use by the workers of a parallel sweep;
// each repair solution and each p_K(i) is computed exactly once even under
// contention. The zero value is ready to use.
type Composer struct {
	repairs sweep.Memo[repairKey, repairSolution]

	mu                   sync.Mutex // guards curves
	curves               map[lossKey]*lossCurve
	lossHits, lossMisses atomic.Int64
}

// NewComposer returns an empty Composer.
func NewComposer() *Composer { return &Composer{} }

// structural returns the memoized repair-model solution for the farm. Warm
// lookups go through Memo.Get and allocate nothing.
func (c *Composer) structural(f Farm) (repairSolution, error) {
	key := repairKey{f.Servers, f.FailureRate, f.RepairRate, f.Coverage, f.ReconfigRate}
	if sol, err, ok := c.repairs.Get(key); ok {
		return sol, err
	}
	return c.repairs.Do(key, func() (repairSolution, error) {
		operational, reconfig, err := f.structuralStates()
		if err != nil {
			return repairSolution{}, err
		}
		return repairSolution{operational: operational, reconfig: reconfig}, nil
	})
}

// curve returns the farm's loss curve, adding an empty one on first use.
func (c *Composer) curve(f Farm) *lossCurve {
	key := lossKey{f.ArrivalRate, f.ServiceRate, f.BufferSize}
	c.mu.Lock()
	lc := c.curves[key]
	if lc == nil {
		if c.curves == nil {
			c.curves = make(map[lossKey]*lossCurve)
		}
		lc = new(lossCurve)
		c.curves[key] = lc
	}
	c.mu.Unlock()
	return lc
}

// lossProbability returns p_K(i) from the farm's curve lc, applying the same
// small-buffer clamp as Farm.lossProbability so equivalent queues share one
// slot, and solving it on the first lookup. Each lookup counts one hit or
// one miss. operational must not exceed f.Servers.
func (c *Composer) lossProbability(lc *lossCurve, f Farm, operational int) (float64, error) {
	if operational > f.BufferSize {
		operational = f.BufferSize
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if n := min(f.Servers, f.BufferSize); n > len(lc.slots) {
		lc.slots = append(lc.slots, make([]lossSlot, n-len(lc.slots))...)
	}
	s := &lc.slots[operational-1]
	if s.solved {
		c.lossHits.Add(1)
		return s.pk, s.err
	}
	c.lossMisses.Add(1)
	q := queueing.MMcK{
		Arrival:  f.ArrivalRate,
		Service:  f.ServiceRate,
		Servers:  operational,
		Capacity: f.BufferSize,
	}
	s.pk, s.err = q.LossProbability()
	s.solved = true
	return s.pk, s.err
}

// Compose builds the composite model of the farm, reusing memoized repair
// and queueing solutions. It is numerically identical to Farm.Compose.
func (c *Composer) Compose(f Farm) (*perfavail.Model, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	sol, err := c.structural(f)
	if err != nil {
		return nil, err
	}
	lc := c.curve(f)
	return f.composeStatesWith(sol.operational, sol.reconfig, func(i int) (float64, error) {
		return c.lossProbability(lc, f, i)
	})
}

// Availability returns the user-perceived web-service availability.
func (c *Composer) Availability(f Farm) (float64, error) {
	u, err := c.unavailabilityDirect(f)
	if err != nil {
		return 0, err
	}
	return 1 - u, nil
}

// Unavailability returns 1 − A computed without cancellation.
func (c *Composer) Unavailability(f Farm) (float64, error) {
	return c.unavailabilityDirect(f)
}

// UnavailabilityBatch evaluates a whole batch of farm cells through the
// allocation-free direct path with the sweep engine's bounded worker pool,
// returning unavailabilities in input order. All workers share this
// composer's memo caches, so each distinct repair and queueing configuration
// solves exactly once across the batch; per-cell evaluation on a warm cache
// allocates nothing. Results are bit-identical to calling Unavailability per
// cell, in any worker configuration.
//
//ta:deterministic
func (c *Composer) UnavailabilityBatch(farms []Farm, workers int) ([]float64, error) {
	return sweep.Run(farms, func(f Farm) (float64, error) {
		return c.unavailabilityDirect(f)
	}, sweep.Options{Workers: workers})
}

// unavailabilityDirect computes Model.Unavailability for the farm's composite
// model without materializing it. It replays Compose (validation, memo
// lookups, state sequence), perfavail.New's per-state validation and
// probability-sum check, and Unavailability's accumulation expression for
// expression in the same order, so the result — and any validation error — is
// bit-identical to Compose + Model.Unavailability while allocating nothing on
// a warm cache. The bit-identity is gated by TestComposerMatchesFarmCompose.
//
//ta:hotpath
//ta:deterministic
func (c *Composer) unavailabilityDirect(f Farm) (float64, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	sol, err := c.structural(f)
	if err != nil {
		return 0, err
	}
	operational, reconfig := sol.operational, sol.reconfig
	if len(operational) != f.Servers+1 {
		return 0, fmt.Errorf("%w: %d operational-state probabilities for %d servers", ErrParam, len(operational), f.Servers)
	}
	if len(reconfig) != f.Servers+1 {
		return 0, fmt.Errorf("%w: %d reconfiguration-state probabilities for %d servers", ErrParam, len(reconfig), f.Servers)
	}
	// Replay composeStatesWith's state sequence, folding perfavail.New's
	// per-state validation and sum accumulation together with Unavailability's
	// Σ π·(1−success); each accumulator sees its terms in exactly the state
	// order of the materialized model.
	lc := c.curve(f)
	var sum, u float64
	if operational[0] < 0 || math.IsNaN(operational[0]) {
		return 0, fmt.Errorf("%w: state %q probability %v", perfavail.ErrInvalid, "0-servers", operational[0])
	}
	sum += operational[0]
	u += operational[0] * (1 - 0)
	for i := 1; i <= f.Servers; i++ {
		pk, err := c.lossProbability(lc, f, i)
		if err != nil {
			return 0, err
		}
		success := 1 - pk
		if operational[i] < 0 || math.IsNaN(operational[i]) {
			return 0, fmt.Errorf("%w: state %q probability %v", perfavail.ErrInvalid, fmt.Sprintf("%d-servers", i), operational[i])
		}
		if success < 0 || success > 1 || math.IsNaN(success) {
			return 0, fmt.Errorf("%w: state %q success probability %v", perfavail.ErrInvalid, fmt.Sprintf("%d-servers", i), success)
		}
		sum += operational[i]
		u += operational[i] * (1 - success)
		if reconfig[i] > 0 {
			if math.IsNaN(reconfig[i]) {
				return 0, fmt.Errorf("%w: state %q probability %v", perfavail.ErrInvalid, fmt.Sprintf("reconfig-y%d", i), reconfig[i])
			}
			sum += reconfig[i]
			u += reconfig[i] * (1 - 0)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return 0, fmt.Errorf("%w: state probabilities sum to %v", perfavail.ErrInvalid, sum)
	}
	return math.Min(1, math.Max(0, u)), nil
}

// Breakdown returns the structural-vs-performance unavailability split.
func (c *Composer) Breakdown(f Farm) (perfavail.Breakdown, error) {
	m, err := c.Compose(f)
	if err != nil {
		return perfavail.Breakdown{}, err
	}
	return m.UnavailabilityBreakdown(), nil
}

// CacheSizes reports the number of memoized repair solutions and of solved
// loss probabilities p_K(i), for diagnostics and tests.
func (c *Composer) CacheSizes() (repairs, losses int) {
	return c.repairs.Len(), int(c.lossMisses.Load())
}

// CacheStats reports hit/miss counters for the repair memo and the loss
// curves, one loss hit or miss per p_K(i) lookup. Because both solve each
// key under a lock, misses equal the number of distinct repair keys and of
// distinct p_K(i) ever requested, which makes these counters deterministic
// for a given grid regardless of how many sweep workers shared the composer.
func (c *Composer) CacheStats() (repairHits, repairMisses, lossHits, lossMisses int64) {
	repairHits, repairMisses = c.repairs.Stats()
	return repairHits, repairMisses, c.lossHits.Load(), c.lossMisses.Load()
}
