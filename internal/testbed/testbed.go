// Package testbed is a live, executable deployment of the paper's travel
// agency (Figures 7–8): every tier of the architecture — Internet access,
// LAN, the N_W-server web farm with its bounded admission buffer, the
// application and database servers, and the external flight/hotel/car/payment
// suppliers — runs as a concurrent component behind net/http, and user visits
// execute as real request chains walking the interaction diagrams of
// Figures 3–6.
//
// The point of the testbed is closed-loop model validation: the same
// parameter set (Table 7) that feeds the analytic hierarchy of
// internal/travelagency also configures the deployment, a load generator
// replays visits sampled from the Table 1 operational profiles, and
// internal/telemetry measures the empirical user-perceived availability with
// confidence intervals that cmd/loadtest compares against equation (10).
//
// Two fault planes drive the deployment:
//
//   - SteadyStatePlane freezes per-resource Bernoulli states per visit and
//     draws the web farm's structural state from the Figure 10 Markov model's
//     stationary distribution — the measured availability is an unbiased
//     estimator of the analytic prediction.
//   - CampaignPlane drives resources from a resilience fault-injection
//     campaign (renewal outages, scripted windows, correlated failures,
//     latency spikes), exploring behavior the independence assumptions of
//     the paper cannot express.
//
// Pacing: Options.Scale maps model seconds to real seconds. Scale > 0 makes
// service demands take real time, so the web admission queue genuinely
// overflows under overload and reproduces the M/M/i/K buffer-loss knee
// (Figure 9 trend); Scale = 0 runs unpaced for fast statistical runs, where
// buffer losses (~4e-6 at Table 7 load) are far below measurement resolution
// and the admission gate is bypassed.
package testbed

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/interaction"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sweep"
	"repro/internal/travelagency"
)

// ErrTestbed is returned for invalid testbed configurations.
var ErrTestbed = errors.New("testbed: invalid configuration")

// Transport selects how visit steps reach the tier components.
type Transport int

const (
	// Direct dispatches calls in-process — the fast path for large runs.
	Direct Transport = iota
	// HTTP sends every call over loopback HTTP to one listener per tier.
	HTTP
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case Direct:
		return "direct"
	case HTTP:
		return "http"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Options configures a cluster.
type Options struct {
	// Transport selects in-process or loopback-HTTP dispatch.
	Transport Transport
	// Scale maps model seconds to real seconds (e.g. 0.05 runs the cluster at
	// 20× model speed). 0 disables pacing.
	Scale float64
	// Campaign, when non-nil, replaces the steady-state fault plane with
	// campaign-driven fault injection. Campaign services must be keyed by
	// resource names (see Cluster.Resources and DefaultCampaign).
	Campaign *resilience.Campaign
	// OfferedLoad, when > 0 on an unpaced cluster, engages the analytic
	// admission model: each user-facing page request is rejected with the
	// M/M/i/K loss probability computed at this arrival rate for the visit's
	// operational web-server count — the unpaced counterpart of the paced
	// buffer, making overload and load ramps measurable in fast deterministic
	// runs (the same philosophy as SteadyStatePlane's stationary draws).
	// Ignored when Scale > 0, where the real queue governs admission. It can
	// be changed at runtime with Reconfigure.
	OfferedLoad float64
	// KeepTraces bounds the telemetry trace ring kept by load generators that
	// use the cluster's default collector sizing.
	KeepTraces int
	// Metrics, when non-nil, receives the cluster's live instrumentation:
	// web-buffer admission decisions and queue depth, per-call outcome
	// counters, and fault-plane snapshot/state-transition observations. The
	// registry should be dedicated to one cluster (see Cluster metrics docs).
	Metrics *obs.Registry
}

// Cluster is a running deployment of the travel agency. Its web tier is
// reconfigurable at runtime — see Reconfigure for the drain-and-swap
// semantics that let a controller scale the farm and resize the admission
// buffer without dropping in-flight visits.
type Cluster struct {
	params   travelagency.Params
	opts     Options
	diagrams map[string]*interaction.Diagram
	walks    sync.Map // function → *walk, built on its first walk
	disp     dispatcher
	metrics  *clusterMetrics

	// mu guards topo; reconfigMu serializes Reconfigure calls.
	mu         sync.RWMutex
	reconfigMu sync.Mutex
	topo       *topology

	// Cumulative instruments surviving reconfigurations.
	admitted  atomic.Int64
	rejected  atomic.Int64
	reconfigs atomic.Int64
	webUpSum  atomic.Int64
	webUpN    atomic.Int64

	// lossMemo caches the analytic admission model's loss probabilities.
	lossMemo sweep.Memo[lossKey, float64]

	// visitStates resolves visit IDs to frozen fault-plane states for the
	// HTTP transport's stateless tier handlers.
	visitStates sync.Map

	closeOnce sync.Once
}

// New starts a cluster for the given parameters. Close must be called when
// done.
func New(p travelagency.Params, opts Options) (*Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(opts.Scale) || math.IsInf(opts.Scale, 0) || opts.Scale < 0 {
		return nil, fmt.Errorf("%w: scale %v", ErrTestbed, opts.Scale)
	}
	if opts.Transport != Direct && opts.Transport != HTTP {
		return nil, fmt.Errorf("%w: transport %v", ErrTestbed, opts.Transport)
	}
	if math.IsNaN(opts.OfferedLoad) || math.IsInf(opts.OfferedLoad, 0) || opts.OfferedLoad < 0 {
		return nil, fmt.Errorf("%w: offered load %v", ErrTestbed, opts.OfferedLoad)
	}
	diagrams, err := travelagency.Diagrams(p)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		params:   p,
		opts:     opts,
		diagrams: diagrams,
	}
	if opts.Metrics != nil {
		if err := c.registerMetrics(opts.Metrics); err != nil {
			return nil, err
		}
	}
	var campaign *resilience.Campaign
	if opts.Campaign != nil {
		cp := *opts.Campaign
		campaign = &cp
	}
	topo, err := c.buildTopology(p, campaign, opts.OfferedLoad)
	if err != nil {
		return nil, err
	}
	// The metric funcs registered above may already be read by a scrape.
	c.mu.Lock()
	c.topo = topo
	c.mu.Unlock()
	switch opts.Transport {
	case Direct:
		c.disp = &directDispatcher{c: c}
	case HTTP:
		c.disp = newHTTPDispatcher(c)
	}
	return c, nil
}

// Params returns the parameter set the cluster was built from.
func (c *Cluster) Params() travelagency.Params { return c.params }

// Options returns the cluster options.
func (c *Cluster) Options() Options { return c.opts }

// Resources lists the deployment's resources — the unit of fault injection —
// as of the current topology.
func (c *Cluster) Resources() []Resource {
	t := c.currentTopology()
	out := make([]Resource, len(t.resources))
	copy(out, t.resources)
	return out
}

// Close shuts down the tier components and listeners.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.disp.close()
		c.currentTopology().web.close()
	})
}
