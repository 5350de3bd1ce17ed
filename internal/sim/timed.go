package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/interaction"
	"repro/internal/opprofile"
	"repro/internal/resilience"
	"repro/internal/stats"
)

// TimedVisitSimulator is the timed extension of VisitSimulator: instead of
// sampling a frozen up/down state per visit from steady-state
// availabilities, every interaction-diagram step executes at a concrete
// instant against a fault-injected timeline (resilience.Campaign) under a
// recovery policy (resilience.Policy). Time advances with every step
// (StepLatency plus injected latency spikes), with every failover try, and
// with every retry backoff — so a retry that outlives a short outage rescues
// the visit, while the same retry inside a long outage does not. This makes
// user-perceived availability depend on outage durations, which the paper's
// steady-state model cannot express.
//
// Each visit samples a fresh timeline realization and starts at a uniform
// instant in the first half of the campaign horizon (the second half is
// margin so long visits stay inside the injected fault window); visits are
// therefore independent and the Wald confidence interval is honest. Repeated
// function invocations always re-execute — outcomes are time-dependent, so
// unlike VisitSimulator it does not reuse a function's first outcome.
type TimedVisitSimulator struct {
	// Profile drives the random walk over functions.
	Profile *opprofile.Profile
	// Diagrams maps every function of the profile to its diagram.
	Diagrams map[string]*interaction.Diagram
	// Campaign is the fault-injection plan, covering every service whose
	// outages matter (absent services never fail).
	Campaign resilience.Campaign
	// Policy is the recovery policy; the zero value reproduces the paper's
	// no-recovery semantics.
	Policy resilience.Policy
	// StepLatency is the base execution time of one diagram step, in the
	// campaign's time unit.
	StepLatency float64
}

// TimedResult summarizes a timed visit-simulation run.
type TimedResult struct {
	// Visits simulated.
	Visits int64
	// Availability is the fraction of successful visits (degraded-mode
	// completions count as successes and are tallied separately).
	Availability float64
	// CI95 is its 95% confidence interval.
	CI95 stats.Interval
	// RescuedVisits counts successful visits that needed at least one retry
	// or failover — visits the paper's model would have lost.
	RescuedVisits int64
	// DegradedVisits counts successful visits in which at least one step
	// completed in degraded mode.
	DegradedVisits int64
	// TimeoutSteps counts step attempts that failed by exceeding the
	// policy's timeout.
	TimeoutSteps int64
	// MeanVisitDuration is the average wall-clock time of a visit, including
	// retry backoff and failover latency — the latency price of the policy.
	MeanVisitDuration float64
}

func (s TimedVisitSimulator) check() (*walker, error) {
	w, err := newWalker(s.Profile, s.Diagrams)
	if err != nil {
		return nil, err
	}
	if err := s.Campaign.Validate(); err != nil {
		return nil, err
	}
	if err := s.Policy.Validate(); err != nil {
		return nil, err
	}
	if s.StepLatency < 0 || math.IsNaN(s.StepLatency) || math.IsInf(s.StepLatency, 0) {
		return nil, fmt.Errorf("%w: step latency %v", ErrSim, s.StepLatency)
	}
	return w, nil
}

// Run simulates the given number of visits.
func (s TimedVisitSimulator) Run(visits int64, seed int64) (TimedResult, error) {
	w, err := s.check()
	if err != nil {
		return TimedResult{}, err
	}
	if visits < 1 {
		return TimedResult{}, fmt.Errorf("%w: visits %d", ErrSim, visits)
	}
	rng := rand.New(rand.NewSource(seed))

	var (
		success   stats.Proportion
		durations stats.Welford
		res       TimedResult
	)
	for i := int64(0); i < visits; i++ {
		tl, err := s.Campaign.Generate(rng)
		if err != nil {
			return TimedResult{}, err
		}
		v := &timedVisit{
			sim:      &s,
			walker:   w,
			timeline: tl,
			rng:      rng,
			now:      0.5 * s.Campaign.Horizon * rng.Float64(),
			breakers: make(map[string]*breakerState),
		}
		start := v.now
		// Every invocation executes the function's diagram in visit time.
		ok, err := walk(rng, &w.profile, func(fn int) (bool, error) {
			return w.execute(rng, fn, func(services []int) bool {
				return v.executeStep(w.profile.Names[fn], services)
			})
		})
		if err != nil {
			return TimedResult{}, err
		}
		success.Add(ok)
		durations.Add(v.now - start)
		if ok && v.recovered {
			res.RescuedVisits++
		}
		if ok && v.degraded {
			res.DegradedVisits++
		}
		res.TimeoutSteps += v.timeouts
	}

	ci, err := success.ConfidenceInterval(0.95)
	if err != nil {
		return TimedResult{}, err
	}
	res.Visits = visits
	res.Availability = ci.Mean
	res.CI95 = ci
	res.MeanVisitDuration = durations.Mean()
	return res, nil
}

// breakerState tracks one provider's circuit breaker within a visit.
type breakerState struct {
	consecutive int
	openUntil   float64
}

// timedVisit carries the mutable state of one simulated visit.
type timedVisit struct {
	sim      *TimedVisitSimulator
	walker   *walker
	timeline *resilience.Timeline
	rng      *rand.Rand
	now      float64
	breakers map[string]*breakerState

	recovered bool // a retry or failover turned a failure into a success
	degraded  bool // a step completed in degraded mode
	timeouts  int64
}

// executeStep runs one diagram step under the policy: the step's services
// are checked in parallel (AND semantics — the attempt's latency is the
// maximum over services), failover tries add serial latency per service,
// failed attempts are retried with backoff, and exhausted steps may still
// complete in degraded mode.
func (v *timedVisit) executeStep(fn string, services []int) bool {
	pol := v.sim.Policy
	attempts := pol.MaxAttempts()
	for attempt := 1; ; attempt++ {
		var (
			extra  float64
			failed []string
		)
		for _, k := range services {
			svc := v.walker.services[k]
			up, lat := v.resolveService(svc)
			if lat > extra {
				extra = lat
			}
			if !up {
				failed = append(failed, svc)
			}
		}
		duration := v.sim.StepLatency + extra
		timedOut := pol.Timeout > 0 && duration > pol.Timeout
		if timedOut {
			duration = pol.Timeout // the caller gives up at the deadline
			v.timeouts++
		}
		v.now += duration
		if len(failed) == 0 && !timedOut {
			if attempt > 1 {
				v.recovered = true
			}
			return true
		}
		if attempt >= attempts {
			if !timedOut && pol.DegradedAllows(fn, failed) {
				v.degraded = true
				return true
			}
			return false
		}
		v.now += pol.Retry.Delay(attempt, v.rng)
	}
}

// resolveService checks one required service at the current instant, failing
// over to alternates when the primary is down. It returns whether any
// provider answered and the extra latency accumulated doing so (injected
// spikes plus one step latency per failover try). Providers whose circuit
// breaker is open are skipped entirely — fail-fast costs no latency.
func (v *timedVisit) resolveService(svc string) (bool, float64) {
	var lat float64
	if !v.breakerOpen(svc, v.now) {
		lat += v.timeline.ExtraLatency(svc, v.now)
		if v.checkProvider(svc, v.now) {
			return true, lat
		}
	}
	for _, alt := range v.sim.Policy.Failover[svc] {
		if v.breakerOpen(alt, v.now+lat) {
			continue
		}
		lat += v.sim.StepLatency
		at := v.now + lat
		lat += v.timeline.ExtraLatency(alt, at)
		if v.checkProvider(alt, at) {
			v.recovered = true
			return true, lat
		}
	}
	return false, lat
}

// breakerOpen reports whether the provider's circuit breaker rejects calls
// at the given instant. Once OpenDuration elapses the next call goes through
// as the half-open probe.
func (v *timedVisit) breakerOpen(name string, at float64) bool {
	pol := v.sim.Policy
	if pol.Breaker == nil {
		return false
	}
	br := v.breakers[name]
	return br != nil && br.consecutive >= pol.Breaker.FailureThreshold && at < br.openUntil
}

// checkProvider performs one availability check against a provider, keeping
// its circuit breaker up to date. Callers consult breakerOpen first, so a
// check reaching this point always touches the provider.
func (v *timedVisit) checkProvider(name string, at float64) bool {
	up := v.timeline.Up(name, at)
	pol := v.sim.Policy
	if pol.Breaker == nil {
		return up
	}
	br := v.breakers[name]
	if br == nil {
		br = &breakerState{}
		v.breakers[name] = br
	}
	if up {
		br.consecutive = 0
	} else {
		br.consecutive++
		if br.consecutive >= pol.Breaker.FailureThreshold {
			br.openUntil = at + pol.Breaker.OpenDuration
		}
	}
	return up
}
