package travelagency

import (
	"repro/internal/hierarchy"
	"repro/internal/sweep"
	"repro/internal/webfarm"
)

// EvaluateMany evaluates the full four-level hierarchy for every parameter
// set concurrently through the sweep engine (workers ≤ 0 selects
// GOMAXPROCS), returning the reports in input order.
//
// Every cell runs the same path as serial Evaluate. All workers share one
// webfarm.Composer, so each distinct repair model and each p_K(i) in the
// batch solves exactly once, and a cell looks up one loss curve per
// (arrival rate, service rate, buffer), not one entry per server count.
// Every cell takes its model structure from Evaluate's process-wide cache,
// so the diagrams' scenario analysis and the compiled user layer are built
// once per (class, diagram inputs) in the process, not per batch or per
// worker. A cell only computes its service availabilities as a vector in
// declaration order (still validating its parameters) and hands it to the
// shared model's EvaluateVector; no service map is built. The reports and
// errors are bit-identical to independent serial Evaluate calls (gated by
// tests), regardless of the worker count. This is the batch path behind
// the Table 8 rows and the what-if parameter studies.
//
//ta:deterministic
func EvaluateMany(ps []Params, class UserClass, workers int) ([]*hierarchy.Report, error) {
	comp := webfarm.NewComposer()
	return sweep.Run(ps, func(p Params) (*hierarchy.Report, error) {
		return evaluate(p, class, comp)
	}, sweep.Options{Workers: workers})
}
