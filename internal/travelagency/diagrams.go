package travelagency

import (
	"fmt"

	"repro/internal/interaction"
)

// diagramBuilder accumulates errors so diagram definitions read linearly.
type diagramBuilder struct {
	d   *interaction.Diagram
	err error
}

func newDiagram(name string) *diagramBuilder {
	return &diagramBuilder{d: interaction.New(name)}
}

func (b *diagramBuilder) step(name string, services ...string) *diagramBuilder {
	if b.err == nil {
		b.err = b.d.AddStep(name, services...)
	}
	return b
}

func (b *diagramBuilder) arc(from, to string, q float64) *diagramBuilder {
	if b.err == nil {
		b.err = b.d.AddTransition(from, to, q)
	}
	return b
}

func (b *diagramBuilder) build() (*interaction.Diagram, error) {
	if b.err != nil {
		return nil, fmt.Errorf("travelagency: %s diagram: %w", b.d.Name(), b.err)
	}
	if err := b.d.Validate(); err != nil {
		return nil, fmt.Errorf("travelagency: %s diagram: %w", b.d.Name(), err)
	}
	return b.d, nil
}

// HomeDiagram builds the Home function: the web server returns the home
// page. Every request traverses the Internet connection and the LAN, so the
// first step requires them alongside the web service (this realizes the
// A_net·A_LAN factors of Table 6).
func HomeDiagram() (*interaction.Diagram, error) {
	return newDiagram(FnHome).
		step("serve-home", SvcInternet, SvcLAN, SvcWeb).
		arc(interaction.Begin, "serve-home", 1).
		arc("serve-home", interaction.End, 1).
		build()
}

// BrowseDiagram builds Figure 3: three execution scenarios — cache hit on
// the web server (q23), dynamic page from the application server (q24·q45),
// and a database-backed page (q24·q47).
func BrowseDiagram(p Params) (*interaction.Diagram, error) {
	return newDiagram(FnBrowse).
		step("ws-receive", SvcInternet, SvcLAN, SvcWeb). // node 2
		step("ws-cache-reply", SvcWeb).                  // node 3
		step("as-process", SvcApp).                      // node 4
		step("as-dynamic-page", SvcApp).                 // node 5
		step("ws-forward-dynamic", SvcWeb).              // node 6
		step("ds-lookup", SvcDB).                        // node 7
		step("as-merge", SvcApp).                        // node 8
		step("ws-results", SvcWeb).                      // node 9
		step("ws-render-html", SvcWeb).                  // node 10
		arc(interaction.Begin, "ws-receive", 1).
		arc("ws-receive", "ws-cache-reply", p.Q23).
		arc("ws-cache-reply", interaction.End, 1).
		arc("ws-receive", "as-process", p.Q24).
		arc("as-process", "as-dynamic-page", p.Q45).
		arc("as-dynamic-page", "ws-forward-dynamic", 1).
		arc("ws-forward-dynamic", interaction.End, 1).
		arc("as-process", "ds-lookup", p.Q47).
		arc("ds-lookup", "as-merge", 1).
		arc("as-merge", "ws-results", 1).
		arc("ws-results", "ws-render-html", 1).
		arc("ws-render-html", interaction.End, 1).
		build()
}

// SearchDiagram builds Figure 4: the web server validates and splits the
// request, the application server queries the database for the booking
// systems to contact, then fans out to the flight, hotel and car services in
// parallel (the AND operator: one step requiring all three), formats the
// answers and replies. The input-validation exception path (node 3) returns
// to the user without touching further services.
//
// The exception branch probability is not given in the paper (its node 3
// "exception" is drawn unlabeled); the paper's Table 6 availability formula
// corresponds to the non-exception path, so the default build uses
// probability 1 for valid input. SearchDiagramWithExceptions exposes the
// knob for sensitivity studies.
func SearchDiagram(p Params) (*interaction.Diagram, error) {
	return SearchDiagramWithExceptions(p, 0)
}

// SearchDiagramWithExceptions is SearchDiagram with an explicit probability
// that the user's input fails validation (the node-3 exception path of
// Figure 4, which ends the function at the web server).
func SearchDiagramWithExceptions(p Params, exceptionProb float64) (*interaction.Diagram, error) {
	if exceptionProb < 0 || exceptionProb >= 1 || exceptionProb != exceptionProb {
		return nil, fmt.Errorf("%w: exception probability %v", ErrParams, exceptionProb)
	}
	b := newDiagram(FnSearch).
		step("ws-validate", SvcInternet, SvcLAN, SvcWeb).    // nodes 1–2
		step("as-formulate", SvcApp).                        // node 4
		step("ds-booking-systems", SvcDB).                   // node 5
		step("as-query", SvcApp).                            // node 6
		step("booking-fanout", SvcFlight, SvcHotel, SvcCar). // nodes 7.a–7.c (AND)
		step("as-format", SvcApp).                           // node 8
		step("ws-reply", SvcWeb).                            // nodes 9–10
		arc(interaction.Begin, "ws-validate", 1)
	if exceptionProb > 0 {
		b = b.step("ws-exception", SvcWeb). // node 3
							arc("ws-validate", "ws-exception", exceptionProb).
							arc("ws-exception", interaction.End, 1).
							arc("ws-validate", "as-formulate", 1-exceptionProb)
	} else {
		b = b.arc("ws-validate", "as-formulate", 1)
	}
	return b.
		arc("as-formulate", "ds-booking-systems", 1).
		arc("ds-booking-systems", "as-query", 1).
		arc("as-query", "booking-fanout", 1).
		arc("booking-fanout", "as-format", 1).
		arc("as-format", "ws-reply", 1).
		arc("ws-reply", interaction.End, 1).
		build()
}

// BookDiagram builds Figure 5: the booking order flows through the web and
// application servers to the booking systems, the references are stored in
// the database, and a confirmation returns to the user. Its service set
// equals Search's, which is why Table 6 assigns Book the same availability.
func BookDiagram() (*interaction.Diagram, error) {
	return newDiagram(FnBook).
		step("ws-order", SvcInternet, SvcLAN, SvcWeb).
		step("as-book", SvcApp).
		step("booking-commit", SvcFlight, SvcHotel, SvcCar).
		step("ds-store-refs", SvcDB).
		step("ws-confirm", SvcWeb).
		arc(interaction.Begin, "ws-order", 1).
		arc("ws-order", "as-book", 1).
		arc("as-book", "booking-commit", 1).
		arc("booking-commit", "ds-store-refs", 1).
		arc("ds-store-refs", "ws-confirm", 1).
		arc("ws-confirm", interaction.End, 1).
		build()
}

// PayDiagram builds Figure 6: the application server checks the booking,
// calls the external payment service, updates the customer-order database
// and confirms through the web server.
func PayDiagram() (*interaction.Diagram, error) {
	return newDiagram(FnPay).
		step("ws-payment-call", SvcInternet, SvcLAN, SvcWeb).
		step("as-check-booking", SvcApp).
		step("ps-authorize", SvcPayment).
		step("ds-update-orders", SvcDB).
		step("ws-confirm", SvcWeb).
		arc(interaction.Begin, "ws-payment-call", 1).
		arc("ws-payment-call", "as-check-booking", 1).
		arc("as-check-booking", "ps-authorize", 1).
		arc("ps-authorize", "ds-update-orders", 1).
		arc("ds-update-orders", "ws-confirm", 1).
		arc("ws-confirm", interaction.End, 1).
		build()
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

// Diagrams builds all five function diagrams for the given parameters;
// they depend on p only through diagramKeyOf(p).
func Diagrams(p Params) (map[string]*interaction.Diagram, error) {
	home, err := HomeDiagram()
	if err != nil {
		return nil, err
	}
	browse, err := BrowseDiagram(p)
	if err != nil {
		return nil, err
	}
	search, err := SearchDiagram(p)
	if err != nil {
		return nil, err
	}
	book, err := BookDiagram()
	if err != nil {
		return nil, err
	}
	pay, err := PayDiagram()
	if err != nil {
		return nil, err
	}
	return map[string]*interaction.Diagram{
		FnHome:   home,
		FnBrowse: browse,
		FnSearch: search,
		FnBook:   book,
		FnPay:    pay,
	}, nil
}
