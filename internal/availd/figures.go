package availd

import (
	"encoding/json"
	"fmt"

	"repro/internal/travelagency"
)

// FigureResponse is the Figure 11/12 web-service unavailability grid: the
// paper's 3 failure rates × 3 arrival rates × 10 farm sizes, evaluated at
// one coverage setting. Unavailability is indexed
// [failureRate][arrivalRate][servers].
type FigureResponse struct {
	Figure         int           `json:"figure"`
	Coverage       float64       `json:"coverage"`
	FailureRates   []float64     `json:"failureRates"`
	ArrivalRates   []float64     `json:"arrivalRates"`
	Servers        []int         `json:"servers"`
	Unavailability [][][]float64 `json:"unavailability"`
}

// Figure evaluates the Figure 11 (perfect coverage) or Figure 12 (imperfect
// coverage, c = 0.98) grid on the sweep pool, with the repair-model and
// queueing sub-solves shared through the evaluator's cross-request composer.
// The rendered body is memoized, so after the first request the figure is
// served from cache.
func (e *Evaluator) Figure(n int) ([]byte, error) {
	var coverage float64
	switch n {
	case 11:
		coverage = 1
	case 12:
		coverage = 0.98
	default:
		return nil, fmt.Errorf("%w: figure %d (have 11, 12)", ErrNotFound, n)
	}
	return e.cached(fmt.Sprintf("figure:%d", n), func() ([]byte, error) {
		lambdas, alphas, servers := travelagency.FigureGrid()
		unavail, err := e.composer.UnavailabilityBatch(travelagency.FigureFarms(coverage), e.workers)
		if err != nil {
			return nil, err
		}
		resp := FigureResponse{
			Figure:       n,
			Coverage:     coverage,
			FailureRates: lambdas,
			ArrivalRates: alphas,
			Servers:      servers,
		}
		k := 0
		for range lambdas {
			grid := make([][]float64, 0, len(alphas))
			for range alphas {
				grid = append(grid, unavail[k:k+len(servers)])
				k += len(servers)
			}
			resp.Unavailability = append(resp.Unavailability, grid)
		}
		return json.Marshal(resp)
	})
}

// Table8Row is one line of the Table 8 reproduction.
type Table8Row struct {
	N      int     `json:"n"`
	ClassA float64 `json:"classA"`
	ClassB float64 `json:"classB"`
}

// Table8Response is the user-perceived availability versus the number of
// reservation systems, for both user classes.
type Table8Response struct {
	Table int         `json:"table"`
	Rows  []Table8Row `json:"rows"`
}

// Table8 evaluates the Table 8 rows through the batch evaluator's worker
// pool; the rendered body is memoized across requests.
func (e *Evaluator) Table8() ([]byte, error) {
	return e.cached("table:8", func() ([]byte, error) {
		ns, repsA, repsB, err := travelagency.Table8(e.workers)
		if err != nil {
			return nil, err
		}
		resp := Table8Response{Table: 8, Rows: make([]Table8Row, len(ns))}
		for i, n := range ns {
			resp.Rows[i] = Table8Row{
				N:      n,
				ClassA: repsA[i].UserAvailability,
				ClassB: repsB[i].UserAvailability,
			}
		}
		return json.Marshal(resp)
	})
}

// cached memoizes a rendered body that has no headline number.
func (e *Evaluator) cached(key string, compute func() ([]byte, error)) ([]byte, error) {
	r, err := e.memo.Do(key, func() (rendered, error) {
		body, err := compute()
		return rendered{body: body}, err
	})
	return r.body, err
}
