package travelagency

import (
	"repro/internal/hierarchy"
	"repro/internal/webfarm"
)

// FigureGrid returns the parameter grid of Figures 11 and 12: web-server
// failure rates λ (per hour), request arrival rates α (per second) and
// web-server counts N_W = 1, …, 10.
func FigureGrid() (lambdas, alphas []float64, servers []int) {
	return []float64{1e-2, 1e-3, 1e-4}, []float64{50, 100, 150}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
}

// FigureFarms returns the Table 7 web farm of every Figure 11/12 grid cell at
// the given coverage, ordered by λ, then α, then N_W.
func FigureFarms(coverage float64) []webfarm.Farm {
	lambdas, alphas, servers := FigureGrid()
	base := WebFarm(DefaultParams())
	farms := make([]webfarm.Farm, 0, len(lambdas)*len(alphas)*len(servers))
	for _, lambda := range lambdas {
		for _, alpha := range alphas {
			for _, n := range servers {
				farm := base
				farm.Servers = n
				farm.ArrivalRate = alpha
				farm.FailureRate = lambda
				farm.Coverage = coverage
				farms = append(farms, farm)
			}
		}
	}
	return farms
}

// Table8Rows returns the reservation-system counts N_F = N_H = N_C of the
// rows of Table 8.
func Table8Rows() []int { return []int{1, 2, 3, 4, 5, 10} }

// Table8 evaluates both user classes at every Table 8 row, the Table 7
// parameters with N_F = N_H = N_C = n, through EvaluateMany on the given
// number of workers. Reports come back in row order.
func Table8(workers int) (rows []int, classA, classB []*hierarchy.Report, err error) {
	rows = Table8Rows()
	ps := make([]Params, len(rows))
	for i, n := range rows {
		ps[i] = DefaultParams()
		ps[i].FlightSystems, ps[i].HotelSystems, ps[i].CarSystems = n, n, n
	}
	if classA, err = EvaluateMany(ps, ClassA, workers); err != nil {
		return nil, nil, nil, err
	}
	classB, err = EvaluateMany(ps, ClassB, workers)
	return rows, classA, classB, err
}
