package travelagency

import (
	"repro/internal/hierarchy"
	"repro/internal/sweep"
	"repro/internal/webfarm"
)

// batchScratch is one EvaluateMany worker's reusable state: the evaluation
// workspace and one model per diagram key (the class is fixed for the
// batch), each with its user layer compiled on first use.
type batchScratch struct {
	ws     *hierarchy.Workspace
	models map[diagramKey]*hierarchy.Model
}

// EvaluateMany evaluates the full four-level hierarchy for every parameter
// set concurrently through the sweep engine (workers ≤ 0 selects
// GOMAXPROCS), returning the reports in input order.
//
// The batch is truly batched. All workers share one webfarm.Composer, so
// each distinct repair-model and queueing configuration in the batch solves
// exactly once. Each worker keeps one model per diagram key: the diagrams'
// scenario analysis and the compiled user layer are built once per
// structure, and a cell only computes its service availabilities (still
// validating its parameters) and refreshes them into the model with
// SetServiceAvailability. Both reuses are bit-identical to independent
// serial Evaluate calls (gated by tests), so the reports and errors are
// identical regardless of the worker count. This is the batch path behind
// the Table 8 rows and the what-if parameter studies.
//
//ta:deterministic
func EvaluateMany(ps []Params, class UserClass, workers int) ([]*hierarchy.Report, error) {
	comp := webfarm.NewComposer()
	return sweep.RunScratch(ps,
		func() *batchScratch {
			return &batchScratch{ws: hierarchy.NewWorkspace(), models: make(map[diagramKey]*hierarchy.Model)}
		},
		func(s *batchScratch, p Params) (*hierarchy.Report, error) {
			avail, err := serviceAvailabilities(p, comp)
			if err != nil {
				return nil, err
			}
			key := diagramKeyOf(p)
			m := s.models[key]
			if m == nil {
				if m, err = newModel(p, class); err != nil {
					return nil, err
				}
				s.models[key] = m
			}
			if err := setServices(m, avail); err != nil {
				return nil, err
			}
			return m.EvaluateWorkspace(s.ws)
		},
		sweep.Options{Workers: workers})
}
