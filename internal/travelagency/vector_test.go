package travelagency

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/hierarchy"
)

// sameReport reports the first difference between two reports, comparing
// every availability by its float bits.
func sameReport(got, want *hierarchy.Report) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.UserAvailability, want.UserAvailability) {
		return fmt.Errorf("user availability %v, want %v", got.UserAvailability, want.UserAvailability)
	}
	for _, m := range []struct {
		name      string
		got, want map[string]float64
	}{{"service", got.Services, want.Services}, {"function", got.Functions, want.Functions}} {
		if len(m.got) != len(m.want) {
			return fmt.Errorf("%d %ss, want %d", len(m.got), m.name, len(m.want))
		}
		for k, w := range m.want {
			if g, ok := m.got[k]; !ok || !same(g, w) {
				return fmt.Errorf("%s %q: %v, want %v", m.name, k, g, w)
			}
		}
	}
	if len(got.Scenarios) != len(want.Scenarios) {
		return fmt.Errorf("%d scenarios, want %d", len(got.Scenarios), len(want.Scenarios))
	}
	for i, w := range want.Scenarios {
		g := got.Scenarios[i]
		if g.Name != w.Name || !slices.Equal(g.Functions, w.Functions) ||
			!same(g.Probability, w.Probability) || !same(g.Availability, w.Availability) {
			return fmt.Errorf("scenario %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// FuzzEvaluateVector holds the vector path (Evaluate: Tables 3–5 as a
// vector into the cached structure's EvaluateVector) to tolerance 0 against
// a fresh Build's Evaluate and against EvaluateWith over the
// ServiceAvailabilities map, in every report field, for both classes.
func FuzzEvaluateVector(f *testing.F) {
	f.Add(0.9966, 0.996, 0.9, 0.9, uint8(5), 0.2, 0.4, uint8(4), 100.0, uint8(10), 1e-4, 0.98, false)
	f.Add(0.9966, 0.996, 0.9, 0.9, uint8(1), 0.2, 0.4, uint8(1), 100.0, uint8(10), 1e-4, 1.0, true)
	f.Add(1.0, 1.0, 1.0, 1.0, uint8(10), 0.35, 0.3, uint8(10), 150.0, uint8(5), 1e-2, 1.0, false)
	f.Add(0.0, 0.5, 0.0, 1e-300, uint8(2), 0.999, 0.001, uint8(3), 1e6, uint8(1), 1e3, 0.5, false)
	f.Add(1-1e-16, 0.0, 0.5, 0.99, uint8(64), 0.5, 0.5, uint8(40), 1e-9, uint8(200), 1e-9, 0.98, false)
	f.Fuzz(func(t *testing.T, net, host, disk, ext float64, systems uint8, q23, q45 float64,
		servers uint8, arrival float64, buffer uint8, failure, coverage float64, basic bool) {
		p := DefaultParams()
		p.NetAvailability, p.LANAvailability = net, net
		p.AppHostAvailability, p.DBHostAvailability, p.DiskAvailability = host, host, disk
		p.FlightSystemAvailability, p.HotelSystemAvailability = ext, ext
		p.CarSystemAvailability, p.PaymentAvailability = ext, ext
		p.FlightSystems = 1 + int(systems%64)
		p.HotelSystems, p.CarSystems = p.FlightSystems, 1+int(systems/64)
		p.Q23, p.Q24 = q23, 1-q23
		p.Q45, p.Q47 = q45, 1-q45
		p.WebServers = 1 + int(servers%16)
		p.ArrivalRate = arrival
		p.BufferSize = 1 + int(buffer)
		p.WebFailureRate, p.Coverage = failure, coverage
		if basic {
			p.Architecture, p.WebServers = Basic, 1
		}
		avail, availErr := ServiceAvailabilities(p)
		for _, class := range []UserClass{ClassA, ClassB} {
			got, err := Evaluate(p, class)
			m, buildErr := Build(p, class)
			if (err != nil) != (buildErr != nil) {
				t.Fatalf("class %v: Evaluate error %v, Build error %v", class, err, buildErr)
			}
			if err != nil {
				continue
			}
			if availErr != nil {
				t.Fatalf("class %v: Evaluate succeeded, ServiceAvailabilities failed: %v", class, availErr)
			}
			fresh, err := m.Evaluate()
			if err != nil {
				t.Fatalf("class %v: fresh Build: %v", class, err)
			}
			if err := sameReport(got, fresh); err != nil {
				t.Fatalf("class %v: vector path vs fresh Build: %v", class, err)
			}
			s, err := spec(p, class)
			if err != nil {
				t.Fatal(err)
			}
			structure, err := s.BuildStructure()
			if err != nil {
				t.Fatal(err)
			}
			viaMap, err := structure.EvaluateWith(avail)
			if err != nil {
				t.Fatalf("class %v: EvaluateWith: %v", class, err)
			}
			if err := sameReport(got, viaMap); err != nil {
				t.Fatalf("class %v: vector path vs EvaluateWith: %v", class, err)
			}
		}
	})
}
