package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/opprofile"
	"repro/internal/telemetry"
	"repro/internal/travelagency"
)

// LoadGen replays user visits against a cluster: each visit samples its
// scenario from the Table 1 operational profile of the selected class and
// runs as a real request chain. Visits are distributed over a worker pool,
// but every visit derives its own rng from (Seed, visit index), so results
// are independent of scheduling and fully reproducible for a fixed seed in
// unpaced runs. Each worker reseeds one visitSource per visit, whose draws
// equal those of rand.NewSource(visitSeed(Seed, index)).
type LoadGen struct {
	Cluster *Cluster
	Class   travelagency.UserClass
	// Visits is the total number of visits to run.
	Visits int64
	// Workers sizes the pool (default: GOMAXPROCS, capped at 16).
	Workers int
	// Seed makes the run reproducible.
	Seed int64
	// Offset shifts the global visit index: visit i of this run is visit
	// Offset+i of the (Seed-determined) global stream, taking its ID and rng
	// from there. Successive batches with Offset advanced by the previous
	// batch's Visits replay exactly the visit stream one contiguous run would
	// — the mechanism controller loops use to interleave observation windows
	// with actuation while keeping the whole experiment seed-reproducible.
	Offset int64
	// Rate, with a paced cluster (Scale > 0), spaces visit starts evenly at
	// this model-time rate (visits per model second). 0 runs visits back to
	// back.
	Rate float64
	// KeepSteps retains per-step traces in the visit records (more memory,
	// full latency histograms either way).
	KeepSteps bool
}

// Run executes the configured load and records every visit into the
// collector. It returns the first visit error, if any. For a fixed (Seed,
// Offset) the recorded visit stream is bit-reproducible in unpaced runs —
// the property the CI determinism gate byte-compares — so Run is held to the
// deterministic contract, with the pacing clock explicitly exempted.
//
//ta:deterministic
func (g *LoadGen) Run(col *telemetry.Collector) error {
	if g.Cluster == nil {
		return fmt.Errorf("%w: load generator needs a cluster", ErrTestbed)
	}
	if col == nil {
		return fmt.Errorf("%w: load generator needs a collector", ErrTestbed)
	}
	if g.Visits < 1 {
		return fmt.Errorf("%w: %d visits", ErrTestbed, g.Visits)
	}
	if g.Rate < 0 || math.IsNaN(g.Rate) || math.IsInf(g.Rate, 0) {
		return fmt.Errorf("%w: rate %v", ErrTestbed, g.Rate)
	}
	scenarios, err := travelagency.Scenarios(g.Class)
	if err != nil {
		return err
	}
	weights := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		weights[i] = sc.Probability
	}
	sampler, err := opprofile.NewSampler(weights)
	if err != nil {
		return err
	}
	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 16 {
			workers = 16
		}
	}

	var (
		next     atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	start := time.Now() //lint:ignore detrand pacing reference only; visit results derive from (Seed, visit index)
	scale := g.Cluster.opts.Scale
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(newVisitSource(0))
			for {
				i := next.Add(1) - 1
				if i >= g.Visits {
					return
				}
				rng.Seed(visitSeed(g.Seed, g.Offset+i))
				if g.Rate > 0 && scale > 0 {
					// Visit i starts at its absolute deadline i/Rate, so
					// pacing never perturbs the per-visit rng stream.
					deadline := start.Add(time.Duration(float64(i) / g.Rate * scale * float64(time.Second)))
					waitUntil(deadline)
				}
				idx := sampler.Sample(rng)
				tr, err := g.Cluster.RunVisit(uint64(g.Offset+i), scenarios[idx], rng, g.KeepSteps)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				tr.Class = g.Class.String()
				col.RecordVisit(tr)
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// visitSeed derives a per-visit rng seed from the run seed and the visit
// index with a splitmix64 mix, so consecutive indices yield decorrelated
// streams.
//
//ta:deterministic
func visitSeed(seed, visit int64) int64 {
	z := uint64(seed) + uint64(visit)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// WebLoad drives an open-loop Poisson stream of raw page requests at the web
// tier's admission queue and returns the measured loss fraction — the live
// counterpart of the M/M/i/K loss probability p_K swept in Figure 11. It
// requires a paced cluster (Scale > 0): without real service times the
// bounded buffer cannot overflow.
func (c *Cluster) WebLoad(requests int64, arrivalRate float64, seed int64) (float64, error) {
	if c.opts.Scale <= 0 {
		return 0, fmt.Errorf("%w: WebLoad needs a paced cluster (Scale > 0)", ErrTestbed)
	}
	if requests < 1 {
		return 0, fmt.Errorf("%w: %d requests", ErrTestbed, requests)
	}
	if arrivalRate <= 0 || math.IsNaN(arrivalRate) || math.IsInf(arrivalRate, 0) {
		return 0, fmt.Errorf("%w: arrival rate %v", ErrTestbed, arrivalRate)
	}
	rng := rand.New(rand.NewSource(seed))
	// Pre-draw the whole arrival process so pacing jitter cannot perturb it.
	arrivals := make([]time.Duration, requests)
	demands := make([]float64, requests)
	var clock float64
	for i := range arrivals {
		clock += rng.ExpFloat64() / arrivalRate
		arrivals[i] = time.Duration(clock * c.opts.Scale * float64(time.Second))
		demands[i] = rng.ExpFloat64() / c.params.ServiceRate
	}
	var (
		lost atomic.Int64
		wg   sync.WaitGroup
	)
	// Pin the topology for the whole stream so a concurrent Reconfigure
	// cannot close the queue under outstanding requests.
	t := c.acquire()
	defer c.release(t)
	start := time.Now()
	for i := int64(0); i < requests; i++ {
		waitUntil(start.Add(arrivals[i]))
		wg.Add(1)
		go func(demand float64) {
			defer wg.Done()
			if err := t.web.serve(demand); err != nil {
				lost.Add(1)
			}
		}(demands[i])
	}
	wg.Wait()
	return float64(lost.Load()) / float64(requests), nil
}

// waitUntil sleeps toward an absolute deadline, spinning through the last
// two milliseconds because timer granularity would otherwise clump scaled
// sub-millisecond arrival gaps into bursts.
func waitUntil(deadline time.Time) {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}
