package travelagency

import (
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/rbd"
	"repro/internal/sweep"
	"repro/internal/webfarm"
)

// ServiceAvailabilities computes every TA service availability from the
// parameters: Tables 3, 4 and 5 of the paper in one map.
func ServiceAvailabilities(p Params) (map[string]float64, error) {
	return serviceAvailabilities(p, nil)
}

// ServiceAvailabilitiesWith is ServiceAvailabilities with the web-farm solve
// routed through a shared Composer, so repeated evaluations across a sweep —
// or inside a control loop — reuse memoized repair and queueing solutions.
func ServiceAvailabilitiesWith(p Params, comp *webfarm.Composer) (map[string]float64, error) {
	return serviceAvailabilities(p, comp)
}

func serviceAvailabilities(p Params, comp *webfarm.Composer) (map[string]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := map[string]float64{
		SvcInternet: p.NetAvailability,
		SvcLAN:      p.LANAvailability,
		SvcPayment:  p.PaymentAvailability,
	}

	// Table 3: external reservation services are 1-of-N parallel groups.
	external := []struct {
		svc   string
		n     int
		avail float64
	}{
		{SvcFlight, p.FlightSystems, p.FlightSystemAvailability},
		{SvcHotel, p.HotelSystems, p.HotelSystemAvailability},
		{SvcCar, p.CarSystems, p.CarSystemAvailability},
	}
	for _, e := range external {
		blocks, err := rbd.Replicate(e.svc, e.n, e.avail)
		if err != nil {
			return nil, fmt.Errorf("travelagency: %s: %w", e.svc, err)
		}
		a, err := rbd.Eval(rbd.Parallel(e.svc+"-1ofN", blocks...))
		if err != nil {
			return nil, fmt.Errorf("travelagency: %s: %w", e.svc, err)
		}
		out[e.svc] = a
	}

	// Table 4: application and database services.
	switch p.Architecture {
	case Basic:
		out[SvcApp] = p.AppHostAvailability
		out[SvcDB] = p.DBHostAvailability * p.DiskAvailability
	case Redundant:
		hosts, err := rbd.Replicate("app-host", 2, p.AppHostAvailability)
		if err != nil {
			return nil, err
		}
		as, err := rbd.Eval(rbd.Parallel("app-service", hosts...))
		if err != nil {
			return nil, err
		}
		out[SvcApp] = as

		dbHosts, err := rbd.Replicate("db-host", 2, p.DBHostAvailability)
		if err != nil {
			return nil, err
		}
		disks, err := rbd.Replicate("disk", 2, p.DiskAvailability)
		if err != nil {
			return nil, err
		}
		ds, err := rbd.Eval(rbd.Series("db-service",
			rbd.Parallel("db-hosts", dbHosts...),
			rbd.Parallel("mirrored-disks", disks...),
		))
		if err != nil {
			return nil, err
		}
		out[SvcDB] = ds
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
		return nil, fmt.Errorf("travelagency: web service: %w", err)
	}
	out[SvcWeb] = ws
	return out, nil
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

// Build assembles the full four-level TA model for one user class.
func Build(p Params, class UserClass) (*hierarchy.Model, error) {
	return buildWith(p, class, nil)
}

// BuildWith is Build with the web-farm solve routed through a shared
// Composer.
func BuildWith(p Params, class UserClass, comp *webfarm.Composer) (*hierarchy.Model, error) {
	return buildWith(p, class, comp)
}

func buildWith(p Params, class UserClass, comp *webfarm.Composer) (*hierarchy.Model, error) {
	avail, err := serviceAvailabilities(p, comp)
	if err != nil {
		return nil, err
	}
	m, err := newModel(p, class)
	if err != nil {
		return nil, err
	}
	if err := setServices(m, avail); err != nil {
		return nil, err
	}
	return m, nil
}

// serviceNames is the TA's service declaration order.
var serviceNames = []string{
	SvcInternet, SvcLAN, SvcWeb, SvcApp, SvcDB,
	SvcFlight, SvcHotel, SvcCar, SvcPayment,
}

// newModel assembles the structure of the TA model for one class: the nine
// services, the five function diagrams and the class's scenarios. The
// services are declared at availability 1, to be refreshed by setServices or
// overridden per evaluation; the model depends on p only through
// diagramKeyOf(p).
func newModel(p Params, class UserClass) (*hierarchy.Model, error) {
	m := hierarchy.New()
	for _, svc := range serviceNames {
		if err := m.AddService(svc, 1); err != nil {
			return nil, err
		}
	}
	diagrams, err := Diagrams(p)
	if err != nil {
		return nil, err
	}
	for _, fn := range []string{FnHome, FnBrowse, FnSearch, FnBook, FnPay} {
		if err := m.AddFunction(diagrams[fn]); err != nil {
			return nil, err
		}
	}
	scenarios, err := Scenarios(class)
	if err != nil {
		return nil, err
	}
	if err := m.SetScenarios(scenarios); err != nil {
		return nil, err
	}
	return m, nil
}

// setServices refreshes the model's service availabilities, walking the
// services in declaration order so batch evaluation stays deterministic.
func setServices(m *hierarchy.Model, avail map[string]float64) error {
	for _, svc := range serviceNames {
		if err := m.SetServiceAvailability(svc, avail[svc]); err != nil {
			return err
		}
	}
	return nil
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

// models caches one TA model structure per modelKey for the whole process.
// Its services stay at availability 1: every evaluation passes its own
// availabilities to EvaluateWith, which never mutates the model, so
// concurrent callers share the cached models and their compiled user layer.
var models = func() *sweep.Memo[modelKey, *hierarchy.Model] {
	m := new(sweep.Memo[modelKey, *hierarchy.Model])
	m.SetLimit(modelCacheLimit)
	return m
}()

// evaluate computes the service availabilities of p (validating it) with
// the web-farm solve routed through comp, when non-nil, and evaluates the
// cached model structure of (class, p) with them.
func evaluate(p Params, class UserClass, comp *webfarm.Composer) (*hierarchy.Report, error) {
	avail, err := serviceAvailabilities(p, comp)
	if err != nil {
		return nil, err
	}
	key := modelKey{class: class, diagrams: diagramKeyOf(p)}
	m, err, ok := models.Get(key)
	if !ok {
		m, err = models.Do(key, func() (*hierarchy.Model, error) { return newModel(p, class) })
	}
	if err != nil {
		return nil, err
	}
	return m.EvaluateWith(avail)
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
