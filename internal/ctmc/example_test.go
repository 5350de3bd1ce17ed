package ctmc_test

import (
	"fmt"

	"repro/internal/ctmc"
)

// The classic repairable component: availability µ/(λ+µ) at steady state.
func ExampleCompiled_SteadyState() {
	c := ctmc.New()
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	check(c.AddTransition("up", "down", 0.001))
	check(c.AddTransition("down", "up", 0.5))
	cc, err := c.Compile()
	if err != nil {
		panic(err)
	}
	dist, err := cc.SteadyState()
	if err != nil {
		panic(err)
	}
	fmt.Printf("A = %.6f\n", dist.Probability("up"))
	// Output: A = 0.998004
}

// Interval availability: the expected up fraction of the first 1000 hours,
// starting from the up state, slightly exceeds the steady-state value.
func ExampleChain_IntervalAvailability() {
	c := ctmc.New()
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	check(c.AddTransition("up", "down", 0.001))
	check(c.AddTransition("down", "up", 0.5))
	ia, err := c.IntervalAvailability(ctmc.Distribution{"up": 1}, 1000,
		func(s string) bool { return s == "up" })
	if err != nil {
		panic(err)
	}
	fmt.Printf("interval availability = %.6f\n", ia)
	// Output: interval availability = 0.998008
}
