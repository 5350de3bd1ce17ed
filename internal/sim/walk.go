package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dtmc"
	"repro/internal/interaction"
	"repro/internal/opprofile"
)

// maxWalkSteps guards a walk against a graph it cannot leave.
const maxWalkSteps = 100000

// walker is the model both visit simulators walk: the operational profile
// and each function's interaction diagram as path graphs. The simulators
// differ only in what happens at a diagram step.
type walker struct {
	profile  dtmc.PathGraph
	diagrams []dtmc.PathGraph // by profile node
	// steps holds, by profile node and diagram node, the services the step
	// requires (in the step's order) as indices into services.
	steps    [][][]int
	services []string // every service a step requires, in name order
}

// newWalker checks the structure both simulators need, a valid profile and a
// valid diagram for each of its functions, and compiles it.
func newWalker(profile *opprofile.Profile, diagrams map[string]*interaction.Diagram) (*walker, error) {
	if profile == nil {
		return nil, fmt.Errorf("%w: nil profile", ErrSim)
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	w := &walker{profile: profile.Graph()}
	index := make(map[string]int)
	for _, fn := range profile.Functions() {
		d := diagrams[fn]
		if d == nil {
			return nil, fmt.Errorf("%w: no diagram for function %q", ErrSim, fn)
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		for _, svc := range d.Services() {
			if _, ok := index[svc]; !ok {
				index[svc] = 0
				w.services = append(w.services, svc)
			}
		}
	}
	sort.Strings(w.services)
	for i, svc := range w.services {
		index[svc] = i
	}
	w.diagrams = make([]dtmc.PathGraph, len(w.profile.Names))
	w.steps = make([][][]int, len(w.profile.Names))
	for fn := 1; fn < w.profile.End; fn++ {
		d := diagrams[w.profile.Names[fn]]
		w.diagrams[fn] = d.Graph()
		w.steps[fn] = make([][]int, len(w.diagrams[fn].Names))
		for node, step := range w.diagrams[fn].Names {
			svcs, _ := d.StepServices(step)
			for _, svc := range svcs {
				w.steps[fn][node] = append(w.steps[fn][node], index[svc])
			}
		}
	}
	return w, nil
}

// execute walks one execution of function fn's diagram, calling step with
// the services of every step it enters, and reports whether every step
// succeeded.
func (w *walker) execute(rng *rand.Rand, fn int, step func(services []int) bool) (bool, error) {
	ok, err := walk(rng, &w.diagrams[fn], func(node int) (bool, error) {
		return step(w.steps[fn][node]), nil
	})
	if err != nil {
		return false, fmt.Errorf("diagram %q: %w", w.profile.Names[fn], err)
	}
	return ok, nil
}

// walk follows g from Start until End, one successor draw per move, calling
// enter on every node in between. It reports whether every enter call
// succeeded, and keeps walking after a failure so path frequencies stay
// faithful to the graph.
func walk(rng *rand.Rand, g *dtmc.PathGraph, enter func(node int) (bool, error)) (bool, error) {
	ok := true
	for node, steps := g.Start, 1; ; steps++ {
		if steps > maxWalkSteps {
			return false, fmt.Errorf("%w: walk exceeded %d steps without reaching %s", ErrSim, maxWalkSteps, g.Names[g.End])
		}
		if len(g.Succ[node]) == 0 {
			return false, fmt.Errorf("%w: node %q has no successors", ErrSim, g.Names[node])
		}
		if node = sampleSuccessor(rng, g.Succ[node]); node == g.End {
			return ok, nil
		}
		nodeOK, err := enter(node)
		if err != nil {
			return false, err
		}
		ok = ok && nodeOK
	}
}

// sampleSuccessor draws one successor in proportion to its probability: the
// first, in name order, whose cumulative probability exceeds u·Σp for one
// uniform draw u, or the last.
//
//ta:deterministic
func sampleSuccessor(rng *rand.Rand, succ []dtmc.Arc) int {
	var total float64
	for _, a := range succ {
		total += a.P
	}
	u := rng.Float64() * total
	var acc float64
	for _, a := range succ {
		acc += a.P
		if u < acc {
			return a.To
		}
	}
	return succ[len(succ)-1].To
}
