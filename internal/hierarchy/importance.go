package hierarchy

import (
	"fmt"
	"sort"
)

// EvaluateWith evaluates the model with some service availabilities
// overridden — the "what if we hardened X" question. Services absent from
// overrides keep their configured evaluators. The overrides only patch the
// availability vector of this evaluation; the model itself is never
// modified, so EvaluateWith may run concurrently with Evaluate. It resolves
// the vector and hands it to EvaluateVector.
func (m *Model) EvaluateWith(overrides map[string]float64) (*Report, error) {
	for svc, a := range overrides {
		if _, ok := m.svcIndex[svc]; !ok {
			return nil, fmt.Errorf("%w: override for undeclared service %q", ErrModel, svc)
		}
		if !validAvailability(a) {
			return nil, fmt.Errorf("%w: override availability %v for %q", ErrModel, a, svc)
		}
	}
	avail, err := m.resolve(nil, overrides)
	if err != nil {
		return nil, err
	}
	return m.EvaluateVector(avail)
}

// ServiceImportance is the user-level Birnbaum importance of one service:
// A(user | service up) − A(user | service down). It measures how much of
// the user-perceived availability rides on that one service, accounting for
// all scenario weights and shared-service structure.
type ServiceImportance struct {
	Service  string
	Birnbaum float64
	// RiskReduction is A(user | service perfect) − A(user): the achievable
	// gain from making this service fail-proof.
	RiskReduction float64
}

// ServiceImportances computes the user-level importance of every declared
// service, sorted by descending Birnbaum importance.
func (m *Model) ServiceImportances() ([]ServiceImportance, error) {
	base, err := m.Evaluate()
	if err != nil {
		return nil, err
	}
	out := make([]ServiceImportance, 0, len(m.services))
	for _, s := range m.services {
		svc := s.name
		up, err := m.EvaluateWith(map[string]float64{svc: 1})
		if err != nil {
			return nil, err
		}
		down, err := m.EvaluateWith(map[string]float64{svc: 0})
		if err != nil {
			return nil, err
		}
		out = append(out, ServiceImportance{
			Service:       svc,
			Birnbaum:      up.UserAvailability - down.UserAvailability,
			RiskReduction: up.UserAvailability - base.UserAvailability,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Birnbaum != out[j].Birnbaum {
			return out[i].Birnbaum > out[j].Birnbaum
		}
		return out[i].Service < out[j].Service
	})
	return out, nil
}
