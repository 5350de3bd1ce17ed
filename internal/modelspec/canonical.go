package modelspec

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Canonical returns the spec's canonical JSON serialization: a validated,
// normalized form in which implicit defaults are made explicit (transition
// probabilities of 0 become 1, a replica group's Required of 0 becomes 1) and
// fields render in the fixed declaration order of the Spec types. Two
// documents that parse to semantically identical specs — regardless of JSON
// key order, whitespace, or whether defaults were spelled out — canonicalize
// to identical bytes, which makes the result a stable key for scenario
// stores and evaluation memo caches. Canonicalizing the canonical form is a
// fixed point: Parse followed by Canonical reproduces the same bytes.
func (s *Spec) Canonical() ([]byte, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n := s.normalized()
	data, err := json.Marshal(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return data, nil
}

// CanonicalKey is Canonical as a string, for use as a comparable cache key.
func (s *Spec) CanonicalKey() (string, error) {
	data, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// StructureKey splits the canonical form in two. key is Canonical with the
// name and every fixed service availability left out: what a model built by
// BuildStructure depends on. avail is the availability vector, one entry per
// service in declaration order: the fixed availability, or NaN for a group
// service, whose availability the structure derives from its replicas.
// Canonical(a) equals Canonical(b) exactly when a and b agree on key, on
// Name and on the bits of avail, so the triple stands in for CanonicalKey.
func (s *Spec) StructureKey() (key string, avail []float64, err error) {
	if err := s.validate(); err != nil {
		return "", nil, err
	}
	n := s.normalized()
	n.Name = ""
	avail = make([]float64, len(n.Services))
	for i := range n.Services {
		svc := &n.Services[i]
		if svc.Availability == nil {
			avail[i] = math.NaN()
			continue
		}
		a := *svc.Availability
		if math.IsNaN(a) || math.IsInf(a, 0) {
			// Canonical fails on the same value when it marshals it.
			return "", nil, fmt.Errorf("%w: %v", ErrSpec,
				&json.UnsupportedValueError{Str: strconv.FormatFloat(a, 'g', -1, 64)})
		}
		avail[i], svc.Availability = a, nil
	}
	data, err := json.Marshal(n)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return string(data), avail, nil
}

// normalized returns a deep copy with every implicit default made explicit,
// so equivalent specs share one serialized form.
func (s *Spec) normalized() *Spec {
	n := &Spec{Name: s.Name}
	n.Services = make([]ServiceSpec, len(s.Services))
	for i, svc := range s.Services {
		out := ServiceSpec{Name: svc.Name}
		if svc.Availability != nil {
			a := *svc.Availability
			out.Availability = &a
		}
		if svc.Group != nil {
			g := *svc.Group
			if g.Required == 0 {
				g.Required = 1
			}
			out.Group = &g
		}
		n.Services[i] = out
	}
	n.Functions = make([]FunctionSpec, len(s.Functions))
	for i, fn := range s.Functions {
		out := FunctionSpec{Name: fn.Name}
		out.Steps = make([]StepSpec, len(fn.Steps))
		for j, step := range fn.Steps {
			out.Steps[j] = StepSpec{Name: step.Name}
			if len(step.Services) > 0 {
				out.Steps[j].Services = append([]string(nil), step.Services...)
			}
		}
		out.Transitions = normalizeTransitions(fn.Transitions)
		n.Functions[i] = out
	}
	if len(s.Scenarios) > 0 {
		n.Scenarios = make([]ScenarioSpec, len(s.Scenarios))
		for i, sc := range s.Scenarios {
			n.Scenarios[i] = ScenarioSpec{
				Name:        sc.Name,
				Functions:   append([]string(nil), sc.Functions...),
				Probability: sc.Probability,
			}
		}
	}
	if s.Profile != nil {
		n.Profile = &ProfileSpec{Transitions: normalizeTransitions(s.Profile.Transitions)}
	}
	return n
}

// normalizeTransitions copies edges, spelling out the default probability 1.
func normalizeTransitions(ts []TransitionSpec) []TransitionSpec {
	out := make([]TransitionSpec, len(ts))
	for i, tr := range ts {
		p := tr.Probability
		if p == 0 {
			p = 1
		}
		out[i] = TransitionSpec{From: tr.From, To: tr.To, Probability: p}
	}
	return out
}
