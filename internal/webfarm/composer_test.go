package webfarm

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/queueing"
)

// figureGridFarms enumerates the Figure 11/12-shaped grid used by the
// composer tests: failure rates × arrival rates × farm sizes at one
// coverage setting.
func figureGridFarms(coverage float64) []Farm {
	var farms []Farm
	for _, lambda := range []float64{1e-2, 1e-3, 1e-4} {
		for _, alpha := range []float64{50, 100, 150} {
			for n := 1; n <= 10; n++ {
				farms = append(farms, Farm{
					Servers: n, ArrivalRate: alpha, ServiceRate: 100, BufferSize: 10,
					FailureRate: lambda, RepairRate: 1, Coverage: coverage, ReconfigRate: 12,
				})
			}
		}
	}
	return farms
}

// TestComposerMatchesFarmCompose requires the memoized path to be
// bit-identical to the direct path over the full figure grid, for both
// coverage regimes.
func TestComposerMatchesFarmCompose(t *testing.T) {
	for _, coverage := range []float64{1, 0.98} {
		c := NewComposer()
		for _, f := range figureGridFarms(coverage) {
			direct, err := f.Unavailability()
			if err != nil {
				t.Fatal(err)
			}
			cached, err := c.Unavailability(f)
			if err != nil {
				t.Fatal(err)
			}
			if direct != cached {
				t.Fatalf("farm %+v: composer %v != direct %v (must be bit-identical)", f, cached, direct)
			}
			// Second pass must serve from cache with the same value.
			again, err := c.Unavailability(f)
			if err != nil {
				t.Fatal(err)
			}
			if again != direct {
				t.Fatalf("farm %+v: cached re-read drifted", f)
			}
		}
	}
}

// TestComposerMemoization checks the promised reuse counts on the Figure 12
// grid: 30 structural keys (3 λ × 10 N_W) and 30 loss keys (3 α × 10
// distinct operational-server counts; K=10 ≥ N_W so clamping never bites),
// versus 90 repair solves and 495 loss solves on the uncached path.
func TestComposerMemoization(t *testing.T) {
	c := NewComposer()
	for _, f := range figureGridFarms(0.98) {
		if _, err := c.Unavailability(f); err != nil {
			t.Fatal(err)
		}
	}
	repairs, losses := c.CacheSizes()
	if repairs != 30 {
		t.Errorf("repair cache holds %d keys, want 30", repairs)
	}
	if losses != 30 {
		t.Errorf("loss cache holds %d keys, want 30", losses)
	}
	// Misses equal distinct keys; hits are the avoided solves (90−30 repair,
	// 495−30 loss). These exact values back the cache lines printed by
	// cmd/taeval's figure output, so pin them.
	rh, rm, lh, lm := c.CacheStats()
	if rh != 60 || rm != 30 {
		t.Errorf("repair cache hits/misses = %d/%d, want 60/30", rh, rm)
	}
	if lh != 465 || lm != 30 {
		t.Errorf("loss cache hits/misses = %d/%d, want 465/30", lh, lm)
	}
}

// TestComposerClampSharesCache verifies that over-provisioned farms
// (Servers > BufferSize) share loss entries with their clamped equivalents.
func TestComposerClampSharesCache(t *testing.T) {
	c := NewComposer()
	base := Farm{
		Servers: 3, ArrivalRate: 10, ServiceRate: 5, BufferSize: 2,
		FailureRate: 1e-3, RepairRate: 1, Coverage: 1,
	}
	if _, err := c.Unavailability(base); err != nil {
		t.Fatal(err)
	}
	_, losses := c.CacheSizes()
	// i = 1, 2, 3 clamp to server counts 1, 2, 2 → two distinct loss keys.
	if losses != 2 {
		t.Errorf("loss cache holds %d keys, want 2 (clamped)", losses)
	}
	direct, err := base.Unavailability()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := c.Unavailability(base)
	if err != nil {
		t.Fatal(err)
	}
	if direct != cached {
		t.Fatalf("clamped farm: composer %v != direct %v", cached, direct)
	}
}

// TestComposerBreakdownAndAvailability covers the remaining accessors.
func TestComposerBreakdownAndAvailability(t *testing.T) {
	c := NewComposer()
	f := Farm{
		Servers: 4, ArrivalRate: 100, ServiceRate: 100, BufferSize: 10,
		FailureRate: 1e-4, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12,
	}
	a, err := c.Availability(f)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := f.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if a != wantA {
		t.Fatalf("Availability %v != %v", a, wantA)
	}
	b, err := c.Breakdown(f)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := f.Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if b != wantB {
		t.Fatalf("Breakdown %+v != %+v", b, wantB)
	}
}

// TestComposerInvalidFarm checks parameter validation still fires through
// the memoized path and is not cached as a spurious success.
func TestComposerInvalidFarm(t *testing.T) {
	c := NewComposer()
	if _, err := c.Unavailability(Farm{Servers: 0}); !errors.Is(err, ErrParam) {
		t.Fatalf("invalid farm: %v", err)
	}
	repairs, losses := c.CacheSizes()
	if repairs != 0 || losses != 0 {
		t.Fatalf("invalid farm polluted caches: %d/%d", repairs, losses)
	}
}

// TestUnavailabilityBatchBitIdentical requires the batch path to reproduce
// the per-cell Unavailability values bit for bit, serial and parallel, for
// both coverage regimes.
func TestUnavailabilityBatchBitIdentical(t *testing.T) {
	for _, coverage := range []float64{1, 0.98} {
		farms := figureGridFarms(coverage)
		want := make([]float64, len(farms))
		for i, f := range farms {
			u, err := f.Unavailability()
			if err != nil {
				t.Fatal(err)
			}
			want[i] = u
		}
		for _, workers := range []int{1, 4, 8} {
			c := NewComposer()
			got, err := c.UnavailabilityBatch(farms, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("coverage %v workers %d cell %d: batch %v != direct %v (must be bit-identical)",
						coverage, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestUnavailabilityBatchEmptyAndError covers the batch edge cases: an empty
// batch returns nil, and an invalid cell surfaces its parameter error with
// the sweep's point index.
func TestUnavailabilityBatchEmptyAndError(t *testing.T) {
	c := NewComposer()
	if got, err := c.UnavailabilityBatch(nil, 4); err != nil || got != nil {
		t.Fatalf("empty batch = %v, %v", got, err)
	}
	farms := figureGridFarms(1)[:3]
	farms[1].Servers = 0
	if _, err := c.UnavailabilityBatch(farms, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("invalid cell error = %v", err)
	}
}

// TestComposerUnavailabilityAllocationFree pins the direct path's core
// promise: once the memo caches are warm, evaluating a cell allocates
// nothing.
func TestComposerUnavailabilityAllocationFree(t *testing.T) {
	c := NewComposer()
	farms := figureGridFarms(0.98)
	for _, f := range farms {
		if _, err := c.Unavailability(f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, f := range farms {
			if _, err := c.Unavailability(f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm-cache allocs per grid pass = %v, want 0", allocs)
	}
}

// TestComposerConcurrent hammers one composer from many goroutines over the
// shared grid; run with -race to exercise the memo locking.
func TestComposerConcurrent(t *testing.T) {
	c := NewComposer()
	farms := figureGridFarms(0.98)
	want := make([]float64, len(farms))
	for i, f := range farms {
		u, err := f.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = u
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range farms {
				// Stagger start points so workers collide on fresh keys.
				idx := (i + g*11) % len(farms)
				u, err := c.Unavailability(farms[idx])
				if err != nil {
					t.Error(err)
					return
				}
				if u != want[idx] {
					t.Errorf("farm %d: concurrent %v != %v", idx, u, want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzComposerLossCurve holds every p_K(i) a loss curve serves to
// MMcK.LossProbability on the clamped server count with tolerance 0, and
// requires the loss hit and miss counts of a batch over one curve to be the
// same for 1 to 4 workers (run it under -race). The batch visits every farm
// size from 1 to n twice, so sizes above K exercise the clamp and the second
// pass hits.
func FuzzComposerLossCurve(f *testing.F) {
	f.Add(100.0, 100.0, uint8(10), uint8(10))
	f.Add(10.0, 5.0, uint8(3), uint8(2))
	f.Add(1e6, 1.0, uint8(12), uint8(1))
	f.Add(1e-9, 3.0, uint8(1), uint8(200))
	f.Add(1e12, 1e-12, uint8(16), uint8(255))
	f.Add(0.0, 100.0, uint8(4), uint8(10))
	f.Fuzz(func(t *testing.T, arrival, service float64, servers, buffer uint8) {
		n, k := 1+int(servers%16), 1+int(buffer)
		var farms []Farm
		for range 2 {
			for s := 1; s <= n; s++ {
				farms = append(farms, Farm{
					Servers: s, ArrivalRate: arrival, ServiceRate: service, BufferSize: k,
					FailureRate: 1e-3, RepairRate: 1, Coverage: 1,
				})
			}
		}
		var firstErr error
		var first [2]int64
		for workers := 1; workers <= 4; workers++ {
			c := NewComposer()
			_, err := c.UnavailabilityBatch(farms, workers)
			if (err != nil) != (firstErr != nil) && workers > 1 {
				t.Fatalf("workers %d: error %v, 1 worker: %v", workers, err, firstErr)
			}
			_, _, hits, misses := c.CacheStats()
			switch {
			case workers == 1:
				firstErr, first = err, [2]int64{hits, misses}
			case err == nil && [2]int64{hits, misses} != first:
				t.Fatalf("workers %d: loss hits/misses %d/%d, 1 worker %d/%d", workers, hits, misses, first[0], first[1])
			}
			// Every p_K(i) the curve serves, after the batch filled it.
			big := farms[n-1]
			if big.check() != nil {
				continue
			}
			lc := c.curve(big)
			for i := 1; i <= n; i++ {
				got, gotErr := c.lossProbability(lc, big, i)
				q := queueing.MMcK{Arrival: arrival, Service: service, Servers: min(i, k), Capacity: k}
				want, wantErr := q.LossProbability()
				if (gotErr != nil) != (wantErr != nil) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers %d: p_K(%d) = %v (%v), LossProbability %v (%v)", workers, i, got, gotErr, want, wantErr)
				}
			}
		}
	})
}
