package travelagency

import (
	"fmt"
	"slices"

	"repro/internal/hierarchy"
	"repro/internal/sweep"
	"repro/internal/webfarm"
)

// ServiceAvailabilities computes every TA service availability from the
// parameters: Tables 3, 4 and 5 of the paper in one map.
func ServiceAvailabilities(p Params) (map[string]float64, error) {
	avail, err := serviceAvailabilities(p, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, numServices)
	for i, name := range serviceNames {
		out[name] = avail[i]
	}
	return out, nil
}

// serviceAvailabilities computes Tables 3–5 into a vector in serviceNames
// order, the web-farm solve routed through comp when non-nil.
func serviceAvailabilities(p Params, comp *webfarm.Composer) ([numServices]float64, error) {
	var out [numServices]float64
	if err := p.Validate(); err != nil {
		return out, err
	}
	out[idxInternet] = p.NetAvailability
	out[idxLAN] = p.LANAvailability
	out[idxPayment] = p.PaymentAvailability

	// Table 3: external reservation services are 1-of-N parallel groups.
	out[idxFlight] = oneOfN(p.FlightSystems, p.FlightSystemAvailability)
	out[idxHotel] = oneOfN(p.HotelSystems, p.HotelSystemAvailability)
	out[idxCar] = oneOfN(p.CarSystems, p.CarSystemAvailability)

	// Table 4: application and database services. The redundant DB service
	// is a 1-of-2 host group in series with a 1-of-2 mirrored-disk group.
	switch p.Architecture {
	case Basic:
		out[idxApp] = p.AppHostAvailability
		out[idxDB] = p.DBHostAvailability * p.DiskAvailability
	case Redundant:
		out[idxApp] = oneOfN(2, p.AppHostAvailability)
		out[idxDB] = oneOfN(2, p.DBHostAvailability) * oneOfN(2, p.DiskAvailability)
	}

	// Table 5: web service via the composite performance-availability model.
	var ws float64
	var err error
	if comp != nil {
		ws, err = comp.Availability(WebFarm(p))
	} else {
		ws, err = WebFarm(p).Availability()
	}
	if err != nil {
		return out, fmt.Errorf("travelagency: web service: %w", err)
	}
	out[idxWeb] = ws
	return out, nil
}

// oneOfN is the availability of a 1-of-n group of independent components
// of availability a, 1 − (1−a)ⁿ. It multiplies the n unavailabilities in
// turn, as the rbd parallel block does over rbd.Replicate's leaves, so it is
// bit-identical to rbd.Eval(rbd.Parallel(name, rbd.Replicate(prefix, n,
// a)...)) (TestOneOfNMatchesRBD); Params.Validate has already rejected
// every n and a on which Replicate would fail.
//
//ta:hotpath
func oneOfN(n int, a float64) float64 {
	u := 1.0
	for range n {
		u *= 1 - a
	}
	return 1 - u
}

// WebFarm returns the webfarm model configured from the parameters.
func WebFarm(p Params) webfarm.Farm {
	return webfarm.Farm{
		Servers:      p.WebServers,
		ArrivalRate:  p.ArrivalRate,
		ServiceRate:  p.ServiceRate,
		BufferSize:   p.BufferSize,
		FailureRate:  p.WebFailureRate,
		RepairRate:   p.WebRepairRate,
		Coverage:     p.Coverage,
		ReconfigRate: p.ReconfigRate,
	}
}

// Build assembles the full four-level TA model for one user class: the
// model SpecForClass describes.
func Build(p Params, class UserClass) (*hierarchy.Model, error) {
	return BuildWith(p, class, nil)
}

// BuildWith is Build with the web-farm solve routed through a shared
// Composer.
func BuildWith(p Params, class UserClass, comp *webfarm.Composer) (*hierarchy.Model, error) {
	s, err := resolvedSpec(p, class, comp)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// modelKey identifies a TA model structure: the user class and the
// diagram inputs.
type modelKey struct {
	class    UserClass
	diagrams diagramKey
}

// modelCacheLimit bounds the process-wide model cache; a sweep over the
// diagram inputs would otherwise grow it without limit.
const modelCacheLimit = 64

// models caches one TA model structure, spec(p, class).BuildStructure(), per
// modelKey for the whole process. Its services stay at availability 1: every
// evaluation passes its own availability vector to EvaluateVector, which
// never mutates the model, so concurrent callers share the cached models and
// their compiled user layer.
var models = func() *sweep.Memo[modelKey, *hierarchy.Model] {
	m := new(sweep.Memo[modelKey, *hierarchy.Model])
	m.SetLimit(modelCacheLimit)
	return m
}()

// evaluate computes the service availability vector of p (validating it)
// with the web-farm solve routed through comp, when non-nil, and evaluates
// the cached model structure of (class, p) with it.
func evaluate(p Params, class UserClass, comp *webfarm.Composer) (*hierarchy.Report, error) {
	avail, err := serviceAvailabilities(p, comp)
	if err != nil {
		return nil, err
	}
	key := modelKey{class: class, diagrams: diagramKeyOf(p)}
	m, err, ok := models.Get(key)
	if !ok {
		m, err = models.Do(key, func() (*hierarchy.Model, error) {
			s, err := spec(p, class)
			if err != nil {
				return nil, err
			}
			m, err := s.BuildStructure()
			if err != nil {
				return nil, err
			}
			// The vector is in serviceNames order; the model must declare
			// its services in the same order.
			if names := m.ServiceNames(); !slices.Equal(names, serviceNames[:]) {
				return nil, fmt.Errorf("travelagency: model declares services %v, want %v", names, serviceNames)
			}
			return m, nil
		})
	}
	if err != nil {
		return nil, err
	}
	return m.EvaluateVector(avail[:])
}

// Evaluate evaluates the TA model for one user class. The model structure
// comes from a process-wide cache, so only the service availabilities and
// the compiled user-layer arithmetic are computed per call; the report is
// bit-identical to evaluating a fresh Build.
func Evaluate(p Params, class UserClass) (*hierarchy.Report, error) {
	return evaluate(p, class, nil)
}

// EvaluateWithComposer is Evaluate with the web-farm solve routed through a
// shared Composer. Inside a control loop — where the same (servers, buffer)
// candidates recur tick after tick at varying arrival rates — the memoized
// repair chains make each re-evaluation cost only the incremental queueing
// solves, keeping the full hierarchy solve in the microsecond range.
func EvaluateWithComposer(p Params, class UserClass, comp *webfarm.Composer) (*hierarchy.Report, error) {
	return evaluate(p, class, comp)
}

// CategoryUnavailability computes the Figure 13 decomposition: the
// contribution of each scenario category to the user-perceived
// unavailability, Σ_{i ∈ SC} π_i·(1 − A_i).
func CategoryUnavailability(rep *hierarchy.Report) (map[Category]float64, error) {
	out := make(map[Category]float64, 4)
	for _, sc := range rep.Scenarios {
		cat, err := ScenarioCategory(sc.Name)
		if err != nil {
			return nil, err
		}
		out[cat] += sc.Probability * (1 - sc.Availability)
	}
	return out, nil
}
