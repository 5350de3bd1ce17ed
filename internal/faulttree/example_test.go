package faulttree_test

import (
	"fmt"

	"repro/internal/faulttree"
)

// The Search function's failure logic: any single internal service failing,
// or ALL replicas of an external reservation service failing.
func ExampleMinimalCutSets() {
	ws := faulttree.MustBasicEvent("web", 1e-5)
	flight1 := faulttree.MustBasicEvent("flight-1", 0.1)
	flight2 := faulttree.MustBasicEvent("flight-2", 0.1)
	top := faulttree.OR("search-fails",
		ws,
		faulttree.AND("flights-all-fail", flight1, flight2),
	)
	cc, err := faulttree.Compile(top)
	if err != nil {
		panic(err)
	}
	for _, cs := range cc.MinimalCutSets() {
		fmt.Println(cs)
	}
	fmt.Printf("P(top) = %.6f\n", cc.TopEventProbability())
	// Output:
	// [web]
	// [flight-1 flight-2]
	// P(top) = 0.010010
}
