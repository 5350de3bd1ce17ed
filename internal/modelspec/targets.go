package modelspec

import (
	"fmt"

	"repro/internal/interaction"
)

// This file exposes the spec as a *diff target*: flattened views of the
// user and service levels that a miner can compare against quantities
// estimated from traces (tracemine.Diff), without rebuilding the full
// hierarchy model.

// UserScenarios returns the spec's user level as explicit scenario classes:
// the declared Scenarios verbatim, or, for profile-based specs, the classes
// derived by absorbing-chain analysis of the profile graph (named by their
// canonical function-set key). Probabilities are returned as declared /
// derived, not normalized.
func (s *Spec) UserScenarios() ([]ScenarioSpec, error) {
	if len(s.Scenarios) > 0 {
		out := make([]ScenarioSpec, len(s.Scenarios))
		copy(out, s.Scenarios)
		return out, nil
	}
	if s.Profile == nil {
		return nil, fmt.Errorf("%w: no user level", ErrSpec)
	}
	profile, err := s.Profile.Profile()
	if err != nil {
		return nil, err
	}
	scenarios, err := profile.Scenarios()
	if err != nil {
		return nil, fmt.Errorf("modelspec: profile: %w", err)
	}
	out := make([]ScenarioSpec, 0, len(scenarios))
	for _, sc := range scenarios {
		out = append(out, ScenarioSpec{
			Name:        sc.Key(),
			Functions:   sc.Functions,
			Probability: sc.Probability,
		})
	}
	return out, nil
}

// EffectiveAvailability returns the service's specified availability: the
// fixed value, or the k-of-n combination of its replica group.
func (sv ServiceSpec) EffectiveAvailability() (float64, error) {
	if sv.Availability != nil {
		return *sv.Availability, nil
	}
	if sv.Group == nil {
		return 0, fmt.Errorf("%w: service %q has neither availability nor group", ErrSpec, sv.Name)
	}
	required := sv.Group.Required
	if required == 0 {
		required = 1
	}
	avail := make([]float64, sv.Group.Count)
	for i := range avail {
		avail[i] = sv.Group.Availability
	}
	a, err := interaction.KofNAvailability(required, avail)
	if err != nil {
		return 0, fmt.Errorf("modelspec: service %q: %w", sv.Name, err)
	}
	return a, nil
}

// Function returns the function spec with the given name, if declared.
func (s *Spec) Function(name string) (FunctionSpec, bool) {
	for _, fn := range s.Functions {
		if fn.Name == name {
			return fn, true
		}
	}
	return FunctionSpec{}, false
}

// Service returns the service spec with the given name, if declared.
func (s *Spec) Service(name string) (ServiceSpec, bool) {
	for _, sv := range s.Services {
		if sv.Name == name {
			return sv, true
		}
	}
	return ServiceSpec{}, false
}
