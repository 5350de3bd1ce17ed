package testbed

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/queueing"
	"repro/internal/resilience"
	"repro/internal/travelagency"
)

// topology is one immutable runtime configuration of the cluster: the web
// farm's size and buffer, the resource inventory and service groups derived
// from them, the fault plane, the admission queue, and the offered-load
// setting of the analytic admission model. Visits pin the topology they
// started on (see Cluster.acquire), so a reconfiguration never changes the
// world under a visit that is already walking its interaction diagrams.
type topology struct {
	servers int
	buffer  int
	// offered is the arrival rate of the analytic admission model (0 = off;
	// see Options.OfferedLoad).
	offered float64
	// campaign, when non-nil, is the fault-injection plan the plane was built
	// from; nil means the steady-state plane.
	campaign *resilience.Campaign

	resources []Resource
	// groups implement the services in serviceOrder; webServers are the
	// web servers' inventory indices.
	groups     []serviceGroup
	webServers []int
	plane      FaultPlane
	web        *webQueue

	// refs counts in-flight visits pinned to this topology.
	refs atomic.Int64
}

// Reconfig describes a runtime reconfiguration of a running cluster. Zero
// fields keep the current setting.
type Reconfig struct {
	// WebServers, when > 0, scales the web tier to this many servers.
	WebServers int
	// BufferSize, when > 0, resizes the web admission buffer.
	BufferSize int
	// OfferedLoad, when non-nil, sets the analytic admission model's arrival
	// rate (pointing at 0 disables it). See Options.OfferedLoad.
	OfferedLoad *float64
	// Campaign, when non-nil, switches the fault plane to campaign-driven
	// injection with this plan.
	Campaign *resilience.Campaign
	// Steady switches the fault plane back to the steady-state plane.
	Steady bool
}

// Reconfigure applies a runtime reconfiguration without dropping in-flight
// visits: it builds the new topology (inventory, fault plane, admission
// queue), swaps it in atomically, and then drains the old one — visits that
// already started complete against the configuration they saw at their first
// step, while every new visit runs against the new one. The old admission
// queue's workers are stopped only after its last pinned visit finishes
// (drain-and-swap), so no admitted request is ever abandoned.
//
// Reconfigure is safe to call concurrently with visit traffic; concurrent
// Reconfigure calls serialize. It blocks until the old topology has drained.
func (c *Cluster) Reconfigure(rc Reconfig) error {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	cur := c.currentTopology()

	servers, buffer, offered := cur.servers, cur.buffer, cur.offered
	if rc.WebServers > 0 {
		servers = rc.WebServers
	}
	if rc.BufferSize > 0 {
		buffer = rc.BufferSize
	}
	if rc.OfferedLoad != nil {
		offered = *rc.OfferedLoad
	}
	if math.IsNaN(offered) || math.IsInf(offered, 0) || offered < 0 {
		return fmt.Errorf("%w: offered load %v", ErrTestbed, offered)
	}
	campaign := cur.campaign
	switch {
	case rc.Campaign != nil && rc.Steady:
		return fmt.Errorf("%w: reconfig requests both campaign and steady plane", ErrTestbed)
	case rc.Campaign != nil:
		cp := *rc.Campaign
		campaign = &cp
	case rc.Steady:
		campaign = nil
	}

	p := c.params
	p.WebServers = servers
	p.BufferSize = buffer
	if err := p.Validate(); err != nil {
		return err
	}
	topo, err := c.buildTopology(p, campaign, offered)
	if err != nil {
		return err
	}

	c.mu.Lock()
	old := c.topo
	c.topo = topo
	c.mu.Unlock()
	c.reconfigs.Add(1)
	old.drainAndClose()
	return nil
}

// buildTopology assembles a topology for the given (validated) parameters.
func (c *Cluster) buildTopology(p travelagency.Params, campaign *resilience.Campaign, offered float64) (*topology, error) {
	resources, groups := inventory(p)
	t := &topology{
		servers:    p.WebServers,
		buffer:     p.BufferSize,
		offered:    offered,
		campaign:   campaign,
		resources:  resources,
		groups:     groups,
		webServers: groups[serviceIndex(travelagency.SvcWeb)].banks[0],
	}
	if campaign != nil {
		if err := campaign.Validate(); err != nil {
			return nil, err
		}
		names := make([]string, len(resources))
		for i, r := range resources {
			names[i] = r.Name
		}
		t.plane = &CampaignPlane{Campaign: *campaign, names: names}
	} else {
		plane, err := newSteadyStatePlane(p, resources)
		if err != nil {
			return nil, err
		}
		t.plane = plane
	}
	t.web = newWebQueue(p.WebServers, p.BufferSize, c.opts.Scale, &c.admitted, &c.rejected)
	return t, nil
}

// drainAndClose waits until no in-flight visit pins the topology, then stops
// the admission queue's workers. serve is only called while a visit holds a
// pin, so refs == 0 implies the queue holds no outstanding jobs.
func (t *topology) drainAndClose() {
	for t.refs.Load() != 0 {
		time.Sleep(200 * time.Microsecond)
	}
	t.web.close()
}

// acquire pins the current topology for one visit. Every acquire must be
// paired with a release; Reconfigure waits on the pin count before retiring a
// topology.
func (c *Cluster) acquire() *topology {
	c.mu.RLock()
	t := c.topo
	t.refs.Add(1)
	c.mu.RUnlock()
	return t
}

// release unpins a topology acquired with acquire.
func (c *Cluster) release(t *topology) { t.refs.Add(-1) }

// currentTopology returns the live topology without pinning it — for
// point-in-time reads (metrics, configuration queries) only.
func (c *Cluster) currentTopology() *topology {
	c.mu.RLock()
	t := c.topo
	c.mu.RUnlock()
	return t
}

// Config returns the current web-tier configuration (server count and
// admission-buffer capacity).
func (c *Cluster) Config() (servers, buffer int) {
	t := c.currentTopology()
	return t.servers, t.buffer
}

// OfferedLoad returns the analytic admission model's current arrival rate
// (0 when disabled).
func (c *Cluster) OfferedLoad() float64 { return c.currentTopology().offered }

// Reconfigurations returns the number of successful Reconfigure calls.
func (c *Cluster) Reconfigurations() int64 { return c.reconfigs.Load() }

// AdmissionStats returns the cumulative admitted and rejected page-request
// counts across all topologies the cluster has run.
func (c *Cluster) AdmissionStats() (admitted, rejected int64) {
	return c.admitted.Load(), c.rejected.Load()
}

// WebUpStats returns the cumulative operational-web-server observations: the
// sum of operational server counts over all fault-plane snapshots and the
// number of snapshots. The ratio sum/(visits·N_W) estimates the per-server up
// fraction — the capacity signal a controller refits the model with.
func (c *Cluster) WebUpStats() (upServerVisits, visits int64) {
	return c.webUpSum.Load(), c.webUpN.Load()
}

// lossKey memoizes the analytic admission model's M/M/i/K loss probabilities
// per (arrival rate, clamped operational server count, buffer size).
type lossKey struct {
	arrival     float64
	operational int
	buffer      int
}

// entryLoss returns the memoized M/M/i/K loss probability for a user-facing
// page request arriving while `up` web servers are operational, under the
// topology's offered load. Mirrors webfarm.Farm.lossProbability, including
// the small-buffer server clamp.
func (c *Cluster) entryLoss(t *topology, up int) (float64, error) {
	if up > t.buffer {
		up = t.buffer
	}
	key := lossKey{arrival: t.offered, operational: up, buffer: t.buffer}
	return c.lossMemo.Do(key, func() (float64, error) {
		q := queueing.MMcK{
			Arrival:  key.arrival,
			Service:  c.params.ServiceRate,
			Servers:  key.operational,
			Capacity: key.buffer,
		}
		return q.LossProbability()
	})
}
