package travelagency

import (
	"fmt"

	"repro/internal/interaction"
	"repro/internal/modelspec"
	"repro/internal/webfarm"
)

// serviceNames is the TA's service declaration order.
var serviceNames = []string{
	SvcInternet, SvcLAN, SvcWeb, SvcApp, SvcDB,
	SvcFlight, SvcHotel, SvcCar, SvcPayment,
}

// SpecForClass exports the travel-agency model for one user class as a
// modelspec document: service availabilities resolved from the parameters
// (Tables 3–5), the five interaction diagrams (Figures 3–6) and the Table 1
// scenario mix. It is the document Build evaluates and the canonical diff
// target for trace mining — `tracemine -diff` compares discovered models
// against exactly this spec.
func SpecForClass(p Params, class UserClass) (*modelspec.Spec, error) {
	return resolvedSpec(p, class, nil)
}

// resolvedSpec is spec(p, class) with every service availability computed
// from the parameters (validating them), the web-farm solve routed through
// comp when non-nil.
func resolvedSpec(p Params, class UserClass, comp *webfarm.Composer) (*modelspec.Spec, error) {
	avail, err := serviceAvailabilities(p, comp)
	if err != nil {
		return nil, err
	}
	s, err := spec(p, class)
	if err != nil {
		return nil, err
	}
	for _, svc := range s.Services {
		*svc.Availability = avail[svc.Name]
	}
	return s, nil
}

// spec writes the travel-agency model down for one user class: the nine
// services in serviceNames order, each at availability 1 (resolvedSpec fills
// in the real ones), the five function diagrams and the Table 1 scenarios.
// It is the model's only definition: Build, the model cache, SpecForClass
// and Diagrams all derive from it. It depends on p only through
// diagramKeyOf(p).
//
//ta:deterministic
func spec(p Params, class UserClass) (*modelspec.Spec, error) {
	functions, err := functionSpecs(p)
	if err != nil {
		return nil, err
	}
	scenarios, err := Scenarios(class)
	if err != nil {
		return nil, err
	}
	s := &modelspec.Spec{
		Name:      "travel-agency " + class.String(),
		Services:  make([]modelspec.ServiceSpec, len(serviceNames)),
		Functions: functions,
		Scenarios: make([]modelspec.ScenarioSpec, len(scenarios)),
	}
	avail := make([]float64, len(serviceNames))
	for i, svc := range serviceNames {
		avail[i] = 1
		s.Services[i] = modelspec.ServiceSpec{Name: svc, Availability: &avail[i]}
	}
	for i, sc := range scenarios {
		s.Scenarios[i] = modelspec.ScenarioSpec{Name: sc.Name, Functions: sc.Functions, Probability: sc.Probability}
	}
	return s, nil
}

// functionSpecs writes down the five function diagrams. The first step of
// every function requires the Internet connection and the LAN alongside the
// web service: every request traverses them, which realizes the A_net·A_LAN
// factors of Table 6. Transitions are listed per source node (Begin, then
// the steps in order), destinations alphabetically: the order
// testdata/spec_class_*.golden pins.
//
// A document reads a probability of 0 as the default 1, so a zero branch
// probability in p is rejected here rather than silently turned into 1.
//
//ta:deterministic
func functionSpecs(p Params) ([]modelspec.FunctionSpec, error) {
	const begin, end = interaction.Begin, interaction.End
	step := func(name string, services ...string) modelspec.StepSpec {
		return modelspec.StepSpec{Name: name, Services: services}
	}
	arc := func(from, to string, q float64) modelspec.TransitionSpec {
		return modelspec.TransitionSpec{From: from, To: to, Probability: q}
	}
	fns := []modelspec.FunctionSpec{{
		// Home: the web server returns the home page.
		Name:  FnHome,
		Steps: []modelspec.StepSpec{step("serve-home", SvcInternet, SvcLAN, SvcWeb)},
		Transitions: []modelspec.TransitionSpec{
			arc(begin, "serve-home", 1),
			arc("serve-home", end, 1),
		},
	}, {
		// Browse, Figure 3: three execution scenarios — cache hit on the
		// web server (q23), dynamic page from the application server
		// (q24·q45), and a database-backed page (q24·q47).
		Name: FnBrowse,
		Steps: []modelspec.StepSpec{
			step("ws-receive", SvcInternet, SvcLAN, SvcWeb), // node 2
			step("ws-cache-reply", SvcWeb),                  // node 3
			step("as-process", SvcApp),                      // node 4
			step("as-dynamic-page", SvcApp),                 // node 5
			step("ws-forward-dynamic", SvcWeb),              // node 6
			step("ds-lookup", SvcDB),                        // node 7
			step("as-merge", SvcApp),                        // node 8
			step("ws-results", SvcWeb),                      // node 9
			step("ws-render-html", SvcWeb),                  // node 10
		},
		Transitions: []modelspec.TransitionSpec{
			arc(begin, "ws-receive", 1),
			arc("ws-receive", "as-process", p.Q24),
			arc("ws-receive", "ws-cache-reply", p.Q23),
			arc("ws-cache-reply", end, 1),
			arc("as-process", "as-dynamic-page", p.Q45),
			arc("as-process", "ds-lookup", p.Q47),
			arc("as-dynamic-page", "ws-forward-dynamic", 1),
			arc("ws-forward-dynamic", end, 1),
			arc("ds-lookup", "as-merge", 1),
			arc("as-merge", "ws-results", 1),
			arc("ws-results", "ws-render-html", 1),
			arc("ws-render-html", end, 1),
		},
	}, {
		// Search, Figure 4: the web server validates and splits the
		// request, the application server queries the database for the
		// booking systems to contact, then fans out to the flight, hotel
		// and car services in parallel (the AND operator: one step
		// requiring all three), formats the answers and replies. The
		// input-validation exception branch (node 3) is not modelled: the
		// paper gives no probability for it, and its Table 6 formula is
		// that of the non-exception path.
		Name: FnSearch,
		Steps: []modelspec.StepSpec{
			step("ws-validate", SvcInternet, SvcLAN, SvcWeb),    // nodes 1–2
			step("as-formulate", SvcApp),                        // node 4
			step("ds-booking-systems", SvcDB),                   // node 5
			step("as-query", SvcApp),                            // node 6
			step("booking-fanout", SvcFlight, SvcHotel, SvcCar), // nodes 7.a–7.c (AND)
			step("as-format", SvcApp),                           // node 8
			step("ws-reply", SvcWeb),                            // nodes 9–10
		},
		Transitions: []modelspec.TransitionSpec{
			arc(begin, "ws-validate", 1),
			arc("ws-validate", "as-formulate", 1),
			arc("as-formulate", "ds-booking-systems", 1),
			arc("ds-booking-systems", "as-query", 1),
			arc("as-query", "booking-fanout", 1),
			arc("booking-fanout", "as-format", 1),
			arc("as-format", "ws-reply", 1),
			arc("ws-reply", end, 1),
		},
	}, {
		// Book, Figure 5: the booking order flows through the web and
		// application servers to the booking systems, the references are
		// stored in the database, and a confirmation returns to the user.
		// Its service set equals Search's, which is why Table 6 assigns
		// Book the same availability.
		Name: FnBook,
		Steps: []modelspec.StepSpec{
			step("ws-order", SvcInternet, SvcLAN, SvcWeb),
			step("as-book", SvcApp),
			step("booking-commit", SvcFlight, SvcHotel, SvcCar),
			step("ds-store-refs", SvcDB),
			step("ws-confirm", SvcWeb),
		},
		Transitions: []modelspec.TransitionSpec{
			arc(begin, "ws-order", 1),
			arc("ws-order", "as-book", 1),
			arc("as-book", "booking-commit", 1),
			arc("booking-commit", "ds-store-refs", 1),
			arc("ds-store-refs", "ws-confirm", 1),
			arc("ws-confirm", end, 1),
		},
	}, {
		// Pay, Figure 6: the application server checks the booking, calls
		// the external payment service, updates the customer-order
		// database and confirms through the web server.
		Name: FnPay,
		Steps: []modelspec.StepSpec{
			step("ws-payment-call", SvcInternet, SvcLAN, SvcWeb),
			step("as-check-booking", SvcApp),
			step("ps-authorize", SvcPayment),
			step("ds-update-orders", SvcDB),
			step("ws-confirm", SvcWeb),
		},
		Transitions: []modelspec.TransitionSpec{
			arc(begin, "ws-payment-call", 1),
			arc("ws-payment-call", "as-check-booking", 1),
			arc("as-check-booking", "ps-authorize", 1),
			arc("ps-authorize", "ds-update-orders", 1),
			arc("ds-update-orders", "ws-confirm", 1),
			arc("ws-confirm", end, 1),
		},
	}}
	for _, fn := range fns {
		for _, tr := range fn.Transitions {
			if tr.Probability == 0 {
				return nil, fmt.Errorf("travelagency: %s diagram: %w: probability 0 for %s→%s",
					fn.Name, interaction.ErrDiagram, tr.From, tr.To)
			}
		}
	}
	return fns, nil
}

// diagramKey is every Params input the function diagrams read: parameter
// sets with equal keys yield identical Diagrams scenarios, so a model's
// structure can be reused across them.
type diagramKey struct {
	Q23, Q24, Q45, Q47 float64
}

// diagramKeyOf returns the diagram inputs of a parameter set.
func diagramKeyOf(p Params) diagramKey {
	return diagramKey{Q23: p.Q23, Q24: p.Q24, Q45: p.Q45, Q47: p.Q47}
}

// Diagrams builds all five function diagrams for the given parameters, keyed
// by function name; they depend on p only through diagramKeyOf(p).
func Diagrams(p Params) (map[string]*interaction.Diagram, error) {
	fns, err := functionSpecs(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*interaction.Diagram, len(fns))
	for _, fn := range fns {
		d, err := fn.Diagram()
		if err == nil {
			err = d.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("travelagency: %s diagram: %w", fn.Name, err)
		}
		out[fn.Name] = d
	}
	return out, nil
}
