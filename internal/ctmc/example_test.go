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

// Expected occupancy over the first 1000 hours, starting from the up
// state: the up time divided by the horizon is the interval availability,
// slightly above the steady-state value.
func ExampleCompiled_Occupancy() {
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
	occ, err := cc.Occupancy(ctmc.Distribution{"up": 1}, 1000, 0)
	if err != nil {
		panic(err)
	}
	up := occ.SumOver(func(s string) bool { return s == "up" })
	fmt.Printf("up %.3f h, down %.3f h\n", up, occ["down"])
	fmt.Printf("interval availability = %.6f\n", up/1000)
	// Output:
	// up 998.008 h, down 1.992 h
	// interval availability = 0.998008
}
