package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/interaction"
	"repro/internal/opprofile"
	"repro/internal/stats"
)

// VisitSimulator replays user visits against a four-level model:
// per visit it samples each service up/down from its availability, walks the
// operational profile, and for every function invocation walks the
// function's interaction diagram, sampling branches. The visit succeeds iff
// every invoked function execution only touches operational services.
//
// Because all functions within one visit see the same sampled service
// states, shared services are handled exactly as in the analytic user-level
// evaluation — by construction rather than by conditioning. A function's
// branches are drawn once per visit: a repeated invocation reuses the first
// execution's outcome, as equation (10) evaluates each function's branch
// bracket once per scenario (cycles collapse).
type VisitSimulator struct {
	// Profile drives the random walk over functions.
	Profile *opprofile.Profile
	// Diagrams maps every function of the profile to its diagram.
	Diagrams map[string]*interaction.Diagram
	// ServiceAvailability maps every service referenced by the diagrams to
	// its availability.
	ServiceAvailability map[string]float64
}

// VisitResult summarizes a visit-simulation run.
type VisitResult struct {
	// Visits simulated.
	Visits int64
	// Availability is the fraction of fully successful visits — the
	// simulation estimate of the user-perceived availability.
	Availability float64
	// CI95 is its 95% confidence interval.
	CI95 stats.Interval
	// ScenarioCounts tallies visits per scenario key (set of functions
	// invoked), for comparison against analytic scenario probabilities.
	ScenarioCounts map[string]int64
}

// Run simulates the given number of visits.
func (v VisitSimulator) Run(visits int64, seed int64) (VisitResult, error) {
	w, err := newWalker(v.Profile, v.Diagrams)
	if err != nil {
		return VisitResult{}, err
	}
	avail := make([]float64, len(w.services))
	for i, svc := range w.services {
		a, ok := v.ServiceAvailability[svc]
		if !ok {
			return VisitResult{}, fmt.Errorf("%w: no availability for service %q", ErrSim, svc)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 || a > 1 {
			return VisitResult{}, fmt.Errorf("%w: availability %v for service %q", ErrSim, a, svc)
		}
		avail[i] = a
	}
	if visits < 1 {
		return VisitResult{}, fmt.Errorf("%w: visits %d", ErrSim, visits)
	}
	rng := rand.New(rand.NewSource(seed))

	var success stats.Proportion
	byMask := make(map[uint64]int64) // visits per set of invoked profile nodes
	up := make([]bool, len(avail))
	for i := int64(0); i < visits; i++ {
		// Sample service states once per visit, in name order.
		for k, a := range avail {
			up[k] = rng.Float64() < a
		}
		var invoked, failed uint64 // by profile node
		ok, err := walk(rng, &w.profile, func(fn int) (bool, error) {
			bit := uint64(1) << fn
			if invoked&bit != 0 {
				return failed&bit == 0, nil
			}
			invoked |= bit
			fnOK, err := w.execute(rng, fn, func(services []int) bool {
				for _, s := range services {
					if !up[s] {
						return false
					}
				}
				return true
			})
			if !fnOK {
				failed |= bit
			}
			return fnOK, err
		})
		if err != nil {
			return VisitResult{}, err
		}
		byMask[invoked]++
		success.Add(ok)
	}

	ci, err := success.ConfidenceInterval(0.95)
	if err != nil {
		return VisitResult{}, err
	}
	// Profile nodes are in name order, so a mask lists its functions sorted.
	counts := make(map[string]int64, len(byMask))
	for mask, n := range byMask {
		var fns []string
		for fn, name := range w.profile.Names {
			if mask&(1<<fn) != 0 {
				fns = append(fns, name)
			}
		}
		counts[strings.Join(fns, "+")] = n
	}
	return VisitResult{
		Visits:         visits,
		Availability:   ci.Mean,
		CI95:           ci,
		ScenarioCounts: counts,
	}, nil
}
