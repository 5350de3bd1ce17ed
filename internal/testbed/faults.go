package testbed

import (
	"fmt"
	"math/rand"

	"repro/internal/opprofile"
	"repro/internal/repairmodel"
	"repro/internal/resilience"
	"repro/internal/travelagency"
)

// VisitState is one frozen fault-plane realization observed by a single
// visit: which resources are up at each instant of the visit, and how much
// extra latency injection adds to calls touching them. Resources are given
// by their index in the topology's inventory (the order of
// Cluster.Resources).
type VisitState interface {
	// Start is the visit's start instant on the fault-plane clock.
	Start() float64
	// Up reports whether the resource is operational at the instant.
	Up(resource int, at float64) bool
	// ExtraLatency returns injected extra latency for a call hitting the
	// resource at the instant.
	ExtraLatency(resource int, at float64) float64
}

// FaultPlane produces independent VisitState snapshots, one per visit.
// Independence across visits is what makes the measured availability's Wald
// confidence interval honest.
type FaultPlane interface {
	Snapshot(rng *rand.Rand) (VisitState, error)
}

// steadyVisitState is a time-invariant snapshot: each resource, by index, is
// either up or down for the visit's whole duration.
type steadyVisitState struct {
	up []bool
}

func (s *steadyVisitState) Start() float64                    { return 0 }
func (s *steadyVisitState) Up(resource int, _ float64) bool   { return s.up[resource] }
func (s *steadyVisitState) ExtraLatency(int, float64) float64 { return 0 }

// SteadyStatePlane freezes per-resource Bernoulli states for each visit,
// exactly mirroring the paper's steady-state independence assumptions:
// non-web resources are up with their steady-state availability, and the web
// farm's structural state (operational server count, or down during manual
// reconfiguration) is drawn from the Figure 10 Markov model's stationary
// distribution. Measured visit success under this plane is therefore an
// unbiased estimator of the analytic user-perceived availability of
// equation (10).
type SteadyStatePlane struct {
	resources []Resource
	// drawn lists the non-web resources, which take one Bernoulli draw each,
	// and web the web servers, both as inventory indices in inventory order.
	drawn []int
	web   []int
	// farm samples the web-farm structural state: categories 0..N are the
	// operational states (i servers up), categories N+1..2N are the manual
	// reconfiguration states y_1..y_N (service down).
	farm    *opprofile.Sampler
	servers int
}

// NewSteadyStatePlane builds the steady-state fault plane for the given
// parameters.
func NewSteadyStatePlane(p travelagency.Params) (*SteadyStatePlane, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	resources, _ := inventory(p)
	return newSteadyStatePlane(p, resources)
}

// newSteadyStatePlane builds the steady plane over an inventory already
// built from the (validated) parameters.
func newSteadyStatePlane(p travelagency.Params, resources []Resource) (*SteadyStatePlane, error) {
	probs, err := repairmodel.ImperfectCoverage{
		Servers:      p.WebServers,
		FailureRate:  p.WebFailureRate,
		RepairRate:   p.WebRepairRate,
		Coverage:     p.Coverage,
		ReconfigRate: p.ReconfigRate,
	}.StateProbabilities()
	if err != nil {
		return nil, fmt.Errorf("testbed: web farm: %w", err)
	}
	weights := make([]float64, 0, 2*p.WebServers+1)
	weights = append(weights, probs.Operational...)
	weights = append(weights, probs.Reconfig[1:]...)
	farm, err := opprofile.NewSampler(weights)
	if err != nil {
		return nil, fmt.Errorf("testbed: web farm state sampler: %w", err)
	}
	plane := &SteadyStatePlane{resources: resources, farm: farm, servers: p.WebServers}
	for i, r := range resources {
		if r.Tier == TierWeb {
			plane.web = append(plane.web, i)
		} else {
			plane.drawn = append(plane.drawn, i)
		}
	}
	return plane, nil
}

// Snapshot draws one frozen visit state. Randomness is consumed in a fixed
// order — non-web resources in inventory order, then one draw for the farm
// structural state — so a per-visit seeded rng yields a reproducible state
// regardless of worker scheduling.
func (p *SteadyStatePlane) Snapshot(rng *rand.Rand) (VisitState, error) {
	up := make([]bool, len(p.resources))
	for _, i := range p.drawn {
		up[i] = rng.Float64() < p.resources[i].Availability
	}
	operational := p.farm.Sample(rng) // state i: exactly i servers operational
	if operational > p.servers {
		operational = 0 // manual reconfiguration: the farm is down
	}
	for _, i := range p.web[:operational] {
		up[i] = true
	}
	return &steadyVisitState{up: up}, nil
}

// timelineVisitState wraps one sampled campaign timeline plus a visit start
// instant within it. Campaigns key services by resource name, so names maps
// inventory indices back to them.
type timelineVisitState struct {
	tl    *resilience.Timeline
	start float64
	names []string
}

func (s *timelineVisitState) Start() float64 { return s.start }
func (s *timelineVisitState) Up(resource int, at float64) bool {
	return s.tl.Up(s.names[resource], at)
}
func (s *timelineVisitState) ExtraLatency(resource int, at float64) float64 {
	return s.tl.ExtraLatency(s.names[resource], at)
}

// CampaignPlane drives the testbed from a resilience fault-injection
// campaign whose services are keyed by *resource* names (e.g. "app-1",
// "disk-2", "flight-3"). Each visit samples a fresh timeline and starts at a
// uniform instant in the first half of the horizon, mirroring
// sim.TimedVisitSimulator, so visits stay independent while experiencing
// duration-aware outages, correlated failures and latency spikes.
type CampaignPlane struct {
	Campaign resilience.Campaign
	// names are the inventory's resource names, by index.
	names []string
}

// Snapshot samples one timeline realization and a visit start instant.
func (p *CampaignPlane) Snapshot(rng *rand.Rand) (VisitState, error) {
	tl, err := p.Campaign.Generate(rng)
	if err != nil {
		return nil, err
	}
	return &timelineVisitState{tl: tl, start: 0.5 * p.Campaign.Horizon * rng.Float64(), names: p.names}, nil
}

// DefaultCampaign builds a renewal campaign over the deployment's resources:
// every resource fails and recovers as an alternating-renewal process whose
// steady-state availability matches the resource and whose mean outage lasts
// mttr seconds. Callers can layer scripted outages, correlated failures and
// latency spikes on top before handing the campaign to the cluster.
func DefaultCampaign(p travelagency.Params, horizon, mttr float64) (resilience.Campaign, error) {
	if err := p.Validate(); err != nil {
		return resilience.Campaign{}, err
	}
	resources, _ := inventory(p)
	c := resilience.Campaign{
		Horizon:  horizon,
		Services: make(map[string]resilience.FaultSpec, len(resources)),
	}
	for _, r := range resources {
		if r.Availability >= 1 {
			continue // permanently up: absent services never fail
		}
		svc, err := resilience.RenewalFromAvailability(r.Availability, mttr)
		if err != nil {
			return resilience.Campaign{}, fmt.Errorf("testbed: resource %s: %w", r.Name, err)
		}
		renewal := svc
		c.Services[r.Name] = resilience.FaultSpec{Renewal: &renewal}
	}
	if err := c.Validate(); err != nil {
		return resilience.Campaign{}, err
	}
	return c, nil
}
