// Package modelspec defines a JSON representation of four-level
// availability models and loads it into the hierarchy framework, so a model
// can be authored, versioned and evaluated as data (availd's
// POST /api/v1/evaluate) without writing Go. The format covers the
// constructs the travel-agency study needs: fixed-availability services,
// replicated (k-of-n) service groups, interaction diagrams with branch
// probabilities and multi-service steps, and a user level given either as
// explicit scenarios or as an operational profile graph.
//
// Canonicalization is a determinism boundary: Canonical output is used as a
// byte-compared cache key, so every function in this package is held to the
// bit-determinism contract (modellint's detrand analyzer enforces it
// package-wide).
//
//ta:deterministic
package modelspec

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/interaction"
	"repro/internal/opprofile"
	"repro/internal/rbd"
)

// ErrSpec is returned for invalid specifications.
var ErrSpec = errors.New("modelspec: invalid specification")

// Spec is the top-level document.
type Spec struct {
	// Name labels the model in reports.
	Name string `json:"name,omitempty"`
	// Services declares the service level.
	Services []ServiceSpec `json:"services"`
	// Functions declares the function level.
	Functions []FunctionSpec `json:"functions"`
	// Scenarios declares the user level explicitly; mutually exclusive
	// with Profile.
	Scenarios []ScenarioSpec `json:"scenarios,omitempty"`
	// Profile declares the user level as an operational-profile graph
	// (scenario classes and probabilities are derived).
	Profile *ProfileSpec `json:"profile,omitempty"`
}

// ServiceSpec declares one service. Exactly one of Availability or Group
// must be set.
type ServiceSpec struct {
	Name string `json:"name"`
	// Availability is a fixed service availability.
	Availability *float64 `json:"availability,omitempty"`
	// Group derives the availability from replicated components.
	Group *GroupSpec `json:"group,omitempty"`
}

// GroupSpec is a k-of-n replica group (k defaults to 1: plain parallel).
type GroupSpec struct {
	Count        int     `json:"count"`
	Availability float64 `json:"availability"`
	Required     int     `json:"required,omitempty"`
}

// FunctionSpec declares one function's interaction diagram.
type FunctionSpec struct {
	Name        string           `json:"name"`
	Steps       []StepSpec       `json:"steps"`
	Transitions []TransitionSpec `json:"transitions"`
}

// StepSpec is one diagram step and the services it requires.
type StepSpec struct {
	Name     string   `json:"name"`
	Services []string `json:"services,omitempty"`
}

// TransitionSpec is one control-flow edge; From "Begin" and To "End" are
// the diagram boundaries; Probability defaults to 1.
type TransitionSpec struct {
	From        string  `json:"from"`
	To          string  `json:"to"`
	Probability float64 `json:"probability,omitempty"`
}

// ScenarioSpec is one user scenario class.
type ScenarioSpec struct {
	Name        string   `json:"name"`
	Functions   []string `json:"functions"`
	Probability float64  `json:"probability"`
}

// ProfileSpec is an operational-profile graph; From "Start" and To "Exit"
// are the boundaries.
type ProfileSpec struct {
	Transitions []TransitionSpec `json:"transitions"`
}

// Parse decodes and validates a spec document.
func Parse(data []byte) (*Spec, error) {
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

func (s *Spec) validate() error {
	if len(s.Services) == 0 {
		return fmt.Errorf("%w: no services", ErrSpec)
	}
	if len(s.Functions) == 0 {
		return fmt.Errorf("%w: no functions", ErrSpec)
	}
	if (len(s.Scenarios) == 0) == (s.Profile == nil) {
		return fmt.Errorf("%w: exactly one of scenarios or profile must be given", ErrSpec)
	}
	for i, svc := range s.Services {
		if svc.Name == "" {
			return fmt.Errorf("%w: service %d has no name", ErrSpec, i)
		}
		if (svc.Availability == nil) == (svc.Group == nil) {
			return fmt.Errorf("%w: service %q needs exactly one of availability or group", ErrSpec, svc.Name)
		}
		if svc.Group != nil {
			if svc.Group.Count < 1 {
				return fmt.Errorf("%w: service %q group count %d", ErrSpec, svc.Name, svc.Group.Count)
			}
			if svc.Group.Required < 0 || svc.Group.Required > svc.Group.Count {
				return fmt.Errorf("%w: service %q requires %d of %d", ErrSpec, svc.Name, svc.Group.Required, svc.Group.Count)
			}
		}
	}
	for i, fn := range s.Functions {
		if fn.Name == "" {
			return fmt.Errorf("%w: function %d has no name", ErrSpec, i)
		}
		if len(fn.Steps) == 0 || len(fn.Transitions) == 0 {
			return fmt.Errorf("%w: function %q needs steps and transitions", ErrSpec, fn.Name)
		}
	}
	return nil
}

// Build assembles the hierarchy model described by the spec.
func (s *Spec) Build() (*hierarchy.Model, error) {
	return s.build(false)
}

// BuildStructure is Build with every fixed service at availability 1: the
// model shared by every spec with the same StructureKey, to be evaluated
// with each spec's own availabilities (hierarchy.Model.EvaluateWith). A
// fixed availability outside [0, 1] therefore cannot fail it.
func (s *Spec) BuildStructure() (*hierarchy.Model, error) {
	return s.build(true)
}

func (s *Spec) build(fixedAtOne bool) (*hierarchy.Model, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	m := hierarchy.New()
	for _, svc := range s.Services {
		switch {
		case svc.Availability != nil:
			a := *svc.Availability
			if fixedAtOne {
				a = 1
			}
			if err := m.AddService(svc.Name, a); err != nil {
				return nil, err
			}
		default:
			blocks, err := rbd.Replicate(svc.Name, svc.Group.Count, svc.Group.Availability)
			if err != nil {
				return nil, fmt.Errorf("modelspec: service %q: %w", svc.Name, err)
			}
			required := svc.Group.Required
			if required == 0 {
				required = 1
			}
			if err := m.AddServiceBlock(svc.Name, rbd.KofN(svc.Name+"-group", required, blocks...)); err != nil {
				return nil, err
			}
		}
	}
	for _, fn := range s.Functions {
		d, err := fn.Diagram()
		if err != nil {
			return nil, err
		}
		if err := m.AddFunction(d); err != nil {
			return nil, err
		}
	}
	if s.Profile != nil {
		profile, err := s.Profile.Profile()
		if err != nil {
			return nil, err
		}
		if err := m.SetProfile(profile); err != nil {
			return nil, err
		}
		return m, nil
	}
	scenarios := make([]hierarchy.UserScenario, 0, len(s.Scenarios))
	for _, sc := range s.Scenarios {
		scenarios = append(scenarios, hierarchy.UserScenario{
			Name:        sc.Name,
			Functions:   sc.Functions,
			Probability: sc.Probability,
		})
	}
	if err := m.SetScenarios(scenarios); err != nil {
		return nil, err
	}
	return m, nil
}

// Diagram builds the function's interaction diagram, reading a transition
// probability of 0 as the default 1. The diagram is not validated; adding it
// to a model does that.
func (fn FunctionSpec) Diagram() (*interaction.Diagram, error) {
	d := interaction.New(fn.Name)
	for _, step := range fn.Steps {
		if err := d.AddStep(step.Name, step.Services...); err != nil {
			return nil, fmt.Errorf("modelspec: function %q: %w", fn.Name, err)
		}
	}
	for _, tr := range fn.Transitions {
		p := tr.Probability
		if p == 0 {
			p = 1
		}
		if err := d.AddTransition(tr.From, tr.To, p); err != nil {
			return nil, fmt.Errorf("modelspec: function %q: %w", fn.Name, err)
		}
	}
	return d, nil
}

// Profile builds the operational profile, reading a transition probability
// of 0 as the default 1. The profile is not validated; analyzing it does
// that.
func (ps ProfileSpec) Profile() (*opprofile.Profile, error) {
	profile := opprofile.New()
	for _, tr := range ps.Transitions {
		p := tr.Probability
		if p == 0 {
			p = 1
		}
		if err := profile.AddTransition(tr.From, tr.To, p); err != nil {
			return nil, fmt.Errorf("modelspec: profile: %w", err)
		}
	}
	return profile, nil
}

// Evaluate parses, builds and evaluates a spec document in one call.
func Evaluate(data []byte) (*hierarchy.Report, error) {
	spec, err := Parse(data)
	if err != nil {
		return nil, err
	}
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return m.Evaluate()
}
