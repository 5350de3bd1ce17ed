package testbed

import (
	"fmt"
	"math/rand"

	"repro/internal/dtmc"
	"repro/internal/hierarchy"
	"repro/internal/interaction"
	"repro/internal/telemetry"
	"repro/internal/travelagency"
)

// maxWalkSteps bounds one function's diagram walk; the TA diagrams are
// acyclic, so hitting the bound means a malformed custom diagram.
const maxWalkSteps = 10000

// RunVisit executes one complete user visit against the live deployment: it
// pins the current topology, snapshots a frozen fault-plane state from its
// plane, then invokes the scenario's functions in order, each function
// walking its interaction diagram step by step with every step dispatched to
// the owning tier component. The pin guarantees a concurrent Reconfigure
// never changes the world under a visit already in flight.
//
// Randomness is consumed in a fixed order (fault-plane snapshot, then per
// function: successor choices, per-service demands, and — with an offered
// load configured — one admission draw per entry step, in step order), so a
// per-visit seeded rng makes the visit's outcome reproducible regardless of
// how load-generator workers are scheduled.
func (c *Cluster) RunVisit(id uint64, scenario hierarchy.UserScenario, rng *rand.Rand, keepSteps bool) (telemetry.VisitTrace, error) {
	t := c.acquire()
	defer c.release(t)
	state, err := t.plane.Snapshot(rng)
	if err != nil {
		return telemetry.VisitTrace{}, err
	}
	up := 0
	for _, r := range t.webServers {
		if state.Up(r, state.Start()) {
			up++
		}
	}
	c.webUpSum.Add(int64(up))
	c.webUpN.Add(1)
	if m := c.metrics; m != nil {
		m.observeSnapshot(up)
	}
	if c.opts.Transport == HTTP {
		c.visitStates.Store(id, state)
		defer c.visitStates.Delete(id)
	}
	tr := telemetry.VisitTrace{
		ID:        id,
		Scenario:  scenario.Name,
		Start:     state.Start(),
		OK:        true,
		Functions: make([]telemetry.FunctionTrace, 0, len(scenario.Functions)),
	}
	at := state.Start()
	for _, fn := range scenario.Functions {
		ftr, err := c.runFunction(t, id, fn, at, state, rng, keepSteps)
		if err != nil {
			return telemetry.VisitTrace{}, err
		}
		at += ftr.Duration
		tr.Duration += ftr.Duration
		tr.Functions = append(tr.Functions, ftr)
		if !ftr.OK && tr.OK {
			tr.OK = false
			tr.Cause = ftr.Cause
			tr.FailedService = ftr.FailedService
		}
	}
	return tr, nil
}

// runFunction walks one function's interaction diagram from Begin to End,
// executing each step against the deployment. The function fails as soon as
// a step fails (the user sees the error page and the visit's remaining
// functions still execute, mirroring the paper's per-function availability
// semantics under frozen service states).
func (c *Cluster) runFunction(t *topology, id uint64, fn string, at float64, state VisitState, rng *rand.Rand, keepSteps bool) (telemetry.FunctionTrace, error) {
	w, err := c.walkOf(fn)
	if err != nil {
		return telemetry.FunctionTrace{}, err
	}
	ftr := telemetry.FunctionTrace{Function: fn, OK: true}
	node := w.Start
	for walked := 0; ; walked++ {
		if walked >= maxWalkSteps {
			return telemetry.FunctionTrace{}, fmt.Errorf("%w: function %q walk exceeded %d steps", ErrTestbed, fn, maxWalkSteps)
		}
		arcs := w.Succ[node]
		if len(arcs) == 0 {
			return telemetry.FunctionTrace{}, fmt.Errorf("testbed: function %q at %q: %w: node has no outgoing transitions", fn, w.Names[node], ErrTestbed)
		}
		next := sampleArc(arcs, rng.Float64())
		if next == w.End {
			return ftr, nil
		}
		st, err := c.runStep(t, id, fn, &w.steps[next], at+ftr.Duration, state, rng)
		if err != nil {
			return telemetry.FunctionTrace{}, err
		}
		ftr.Duration += st.Latency
		if keepSteps {
			ftr.Steps = append(ftr.Steps, st)
		}
		if !st.OK {
			ftr.OK = false
			ftr.Cause = st.Cause
			ftr.FailedService = st.FailedService
			return ftr, nil
		}
		node = next
	}
}

// walk is one function's interaction diagram compiled for the visit walk:
// its path graph, whose rows list successors in name order, and each node's
// step plan. Both are shared by every visit and never mutated.
type walk struct {
	dtmc.PathGraph
	steps []stepPlan
}

// stepPlan is one diagram step resolved for execution: the services it
// calls, the indices of the groups implementing them (-1 for a service the
// deployment lacks), and whether it is the user-facing page request.
type stepPlan struct {
	name     string
	services []string
	groups   []int
	entry    bool
}

// planStep resolves the named step of a diagram.
func planStep(d *interaction.Diagram, name string) stepPlan {
	services, _ := d.StepServices(name)
	sp := stepPlan{name: name, services: services, groups: make([]int, len(services))}
	for i, svc := range services {
		sp.groups[i] = serviceIndex(svc)
		// Every function's first step traverses the Internet connection,
		// and only that request competes for the web admission buffer.
		if svc == travelagency.SvcInternet {
			sp.entry = true
		}
	}
	return sp
}

// walkOf returns fn's compiled walk, building it on the function's first
// walk so that New does not pay for it.
func (c *Cluster) walkOf(fn string) (*walk, error) {
	if w, ok := c.walks.Load(fn); ok {
		return w.(*walk), nil
	}
	d, ok := c.diagrams[fn]
	if !ok {
		return nil, fmt.Errorf("%w: unknown function %q", ErrTestbed, fn)
	}
	w := &walk{PathGraph: d.Graph()}
	w.steps = make([]stepPlan, len(w.Names))
	for i, name := range w.Names {
		w.steps[i] = planStep(d, name)
	}
	got, _ := c.walks.LoadOrStore(fn, w)
	return got.(*walk), nil
}

// sampleArc picks the first arc, in row order, whose cumulative probability
// exceeds the uniform draw u, or the last arc. Unlike sim's walker it does
// not scale u by the row sum: recorded visit streams, and the spans mined
// from them, are pinned to this draw.
func sampleArc(arcs []dtmc.Arc, u float64) int {
	var acc float64
	for _, a := range arcs {
		acc += a.P
		if u < acc {
			return a.To
		}
	}
	return arcs[len(arcs)-1].To
}

// runStep executes one diagram step: every required service is called (the
// AND fan-out of Figure 4 runs them against their tiers), the step succeeds
// only if all calls succeed, and its latency is the maximum call latency
// since fan-out calls proceed in parallel in the modeled system.
func (c *Cluster) runStep(t *topology, id uint64, fn string, sp *stepPlan, at float64, state VisitState, rng *rand.Rand) (telemetry.StepTrace, error) {
	st := telemetry.StepTrace{
		Function: fn,
		Step:     sp.name,
		Services: sp.services,
		At:       at,
		OK:       true,
	}
	// The admission draw is consumed before per-service demands so the rng
	// stream of a visit depends only on the offered-load mode, never on the
	// fault-plane state or topology size.
	lossU := -1.0
	if sp.entry && t.offered > 0 && c.opts.Scale <= 0 {
		lossU = rng.Float64()
	}
	for i, g := range sp.groups {
		cl := call{
			visit:   id,
			service: g,
			at:      at,
			demand:  rng.ExpFloat64() / c.params.ServiceRate,
			entry:   sp.entry,
			lossU:   lossU,
		}
		res, err := c.disp.dispatch(t, cl, state)
		if err != nil {
			return telemetry.StepTrace{}, err
		}
		if res.latency > st.Latency {
			st.Latency = res.latency
		}
		if !res.ok && st.OK {
			st.OK = false
			st.Cause = res.cause
			st.FailedService = sp.services[i]
		}
	}
	return st, nil
}
