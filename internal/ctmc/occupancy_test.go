package ctmc

import (
	"math"
	"testing"
)

// upTime is the expected time in the up states over [0, t] from the
// compiled occupancy.
func upTime(t *testing.T, c *Chain, initial Distribution, horizon float64, up func(string) bool) float64 {
	t.Helper()
	occ, err := mustCompile(t, c).Occupancy(initial, horizon, 0)
	if err != nil {
		t.Fatalf("Occupancy(%v): %v", horizon, err)
	}
	return occ.SumOver(up)
}

// For the two-state repairable component the expected up time over [0, t]
// has the closed form
//
//	E[up time] = A·t + (1−A)·(1 − e^{−(λ+µ)t})/(λ+µ),  A = µ/(λ+µ),
//
// starting from the up state.
func TestExpectedUpTimeTwoStateClosedForm(t *testing.T) {
	const lambda, mu = 0.4, 1.6
	c := twoState(t, lambda, mu)
	a := mu / (lambda + mu)
	for _, tt := range []float64{0.1, 0.5, 1, 3, 10} {
		got := upTime(t, c, Distribution{"up": 1}, tt, func(s string) bool { return s == "up" })
		want := a*tt + (1-a)*(1-math.Exp(-(lambda+mu)*tt))/(lambda+mu)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("E[up time](%v) = %.10f, want %.10f", tt, got, want)
		}
	}
}

func TestIntervalAvailabilityConvergesToSteadyState(t *testing.T) {
	c := twoState(t, 0.2, 0.8)
	ss, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	up := func(s string) bool { return s == "up" }
	ia := upTime(t, c, Distribution{"up": 1}, 200, up) / 200
	// Closed form: A + (1−A)(1−e^{−(λ+µ)t})/((λ+µ)t) = 0.8 + 0.2/200.
	want := 0.8 + 0.2*(1-math.Exp(-200))/200
	if math.Abs(ia-want) > 1e-6 {
		t.Errorf("interval availability %v, want %v (steady state %v)", ia, want, ss.Probability("up"))
	}
	// Starting up, the interval availability over a short window exceeds
	// the steady-state value (the system has not had time to fail).
	short := upTime(t, c, Distribution{"up": 1}, 0.1, up) / 0.1
	if !(short > ss.Probability("up")) {
		t.Errorf("short-window availability %v should exceed steady state %v", short, ss.Probability("up"))
	}
}

func TestExpectedAccumulatedRewardValidation(t *testing.T) {
	cc := mustCompile(t, twoState(t, 1, 1))
	if _, err := cc.Occupancy(Distribution{"up": 0.5}, 1, 0); err == nil {
		t.Error("bad initial distribution accepted")
	}
	if _, err := cc.Occupancy(Distribution{"up": 1}, -1, 0); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := cc.Occupancy(Distribution{"up": 1}, math.NaN(), 0); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := cc.Occupancy(Distribution{"ghost": 1}, 1, 0); err == nil {
		t.Error("unknown initial state accepted")
	}
	occ, err := cc.Occupancy(Distribution{"up": 1}, 0, 0)
	if err != nil || occ["up"] != 0 || occ["down"] != 0 {
		t.Errorf("occupancy over [0,0] = %v, %v", occ, err)
	}
	// A horizon so short that Λ·t rounds 1 − e^{−Λt} to 0 still sums to t.
	occ, err = cc.Occupancy(Distribution{"up": 1}, 1e-18, 0)
	if err != nil || occ["up"] != 1e-18 || occ["down"] != 0 {
		t.Errorf("occupancy over [0,1e-18] = %v, %v", occ, err)
	}
}

func TestExpectedAccumulatedRewardNoTransitions(t *testing.T) {
	c := New()
	c.AddState("only")
	c.AddState("other")
	occ, err := mustCompile(t, c).Occupancy(Distribution{"only": 0.75, "other": 0.25}, 8, 0)
	if err != nil {
		t.Fatalf("Occupancy: %v", err)
	}
	if occ["only"] != 6 || occ["other"] != 2 {
		t.Errorf("occupancy = %v, want only 6, other 2", occ)
	}
}

// First-year downtime of the paper's web farm (structural only): starting
// from full strength the transient unavailability stays below steady state,
// so the downtime is positive and below UA_ss·t, and it matches the
// reference accumulated-reward solver.
func TestFirstYearDowntime(t *testing.T) {
	const year = 8760.0
	for _, tc := range []struct {
		servers  int
		coverage float64
	}{{2, 1}, {4, 0.98}} {
		c := figure10Chain(t, tc.servers, 1e-3, 1, tc.coverage, 12)
		full := Distribution{c.names[0]: 1}
		down := func(s string) bool { return s == "0" || s[0] == 'y' }
		downtime := year - upTime(t, c, full, year, func(s string) bool { return !down(s) })
		ss, err := c.SteadyState()
		if err != nil {
			t.Fatalf("SteadyState: %v", err)
		}
		ssDowntime := ss.SumOver(down) * year
		if downtime <= 0 {
			t.Fatalf("N=%d: downtime = %v", tc.servers, downtime)
		}
		if downtime > ssDowntime {
			t.Errorf("N=%d: first-year downtime %v should not exceed the steady-state bound %v when starting from full strength", tc.servers, downtime, ssDowntime)
		}
		// But it should be the right order of magnitude (within 2×).
		if downtime < ssDowntime/2 {
			t.Errorf("N=%d: first-year downtime %v implausibly below steady state %v", tc.servers, downtime, ssDowntime)
		}
		ref, err := c.ExpectedUpTime(full, year, func(s string) bool { return !down(s) })
		if err != nil {
			t.Fatalf("reference ExpectedUpTime: %v", err)
		}
		if d := math.Abs((year - ref) - downtime); d > 1e-9*year {
			t.Errorf("N=%d: downtime %v, reference %v", tc.servers, downtime, year-ref)
		}
	}
}
