package testbed

import (
	"sync/atomic"

	"repro/internal/obs"
)

// clusterMetrics holds the hot-path instruments of a metered cluster. A nil
// *clusterMetrics disables instrumentation entirely, so unmetered runs pay
// only a nil check per service call. The instruments are cluster-owned and
// survive runtime reconfigurations: RunVisit reports every topology's
// snapshots to the same set (see observeSnapshot), so counters accumulate
// across swaps.
type clusterMetrics struct {
	calls        *obs.Counter
	callDown     *obs.Counter
	callOverflow *obs.Counter

	snapshots   *obs.Counter
	transitions *obs.Counter
	webUp       *obs.Gauge
	// last holds the previous snapshot's operational-server count, offset by
	// one so the zero value means "no snapshot yet".
	last atomic.Int64
}

// registerMetrics wires the cluster's internals into an obs registry:
// admission decisions and live queue depth of the web buffer, per-call
// outcome counters, fault-plane snapshot and web-farm state-transition
// counters, and the current web-tier configuration (servers, buffer,
// offered load, reconfiguration count) — the signals and actuation trace a
// controller consumes.
//
// The registry should be dedicated to one cluster: pull-style metrics close
// over this cluster's components, and a second cluster registering the same
// names would silently keep reading the first one's state.
func (c *Cluster) registerMetrics(reg *obs.Registry) error {
	if err := reg.CounterFunc("testbed_web_admitted_total",
		"page requests admitted by the web tier's bounded buffer",
		c.admitted.Load); err != nil {
		return err
	}
	if err := reg.CounterFunc("testbed_web_rejected_total",
		"page requests rejected with buffer overflow (the live M/M/i/K loss)",
		c.rejected.Load); err != nil {
		return err
	}
	if err := reg.GaugeFunc("testbed_web_queue_depth",
		"page requests currently queued or in service at the web tier",
		func() float64 {
			if t := c.currentTopology(); t != nil {
				return float64(t.web.inSystem.Load())
			}
			return 0
		}); err != nil {
		return err
	}
	if err := reg.GaugeFunc("testbed_web_servers",
		"web servers in the current topology",
		func() float64 {
			if t := c.currentTopology(); t != nil {
				return float64(t.servers)
			}
			return 0
		}); err != nil {
		return err
	}
	if err := reg.GaugeFunc("testbed_web_buffer_size",
		"admission-buffer capacity of the current topology",
		func() float64 {
			if t := c.currentTopology(); t != nil {
				return float64(t.buffer)
			}
			return 0
		}); err != nil {
		return err
	}
	if err := reg.GaugeFunc("testbed_web_offered_load",
		"arrival rate of the analytic admission model (0 = disabled)",
		func() float64 {
			if t := c.currentTopology(); t != nil {
				return t.offered
			}
			return 0
		}); err != nil {
		return err
	}
	if err := reg.CounterFunc("testbed_reconfigurations_total",
		"successful runtime reconfigurations (drain-and-swap cycles)",
		c.reconfigs.Load); err != nil {
		return err
	}
	calls, err := reg.Counter("testbed_service_calls_total",
		"service calls dispatched to tier components")
	if err != nil {
		return err
	}
	down, err := reg.Counter("testbed_service_call_failures_total",
		"service calls failed by cause", obs.Label{Key: "cause", Value: "resource-down"})
	if err != nil {
		return err
	}
	overflow, err := reg.Counter("testbed_service_call_failures_total",
		"service calls failed by cause", obs.Label{Key: "cause", Value: "buffer-overflow"})
	if err != nil {
		return err
	}
	snapshots, err := reg.Counter("testbed_fault_snapshots_total",
		"fault-plane states frozen for visits")
	if err != nil {
		return err
	}
	transitions, err := reg.Counter("testbed_web_state_transitions_total",
		"changes in the operational web-server count between consecutive snapshots")
	if err != nil {
		return err
	}
	webUp, err := reg.Gauge("testbed_web_operational_servers",
		"operational web servers in the most recent fault-plane snapshot")
	if err != nil {
		return err
	}
	c.metrics = &clusterMetrics{
		calls: calls, callDown: down, callOverflow: overflow,
		snapshots: snapshots, transitions: transitions, webUp: webUp,
	}
	return nil
}

// observeSnapshot records one frozen fault-plane state with up operational
// web servers: a counter of frozen states, a gauge of operational web
// servers as of the most recent snapshot, and a transition counter that
// increments whenever two consecutive snapshots disagree on that count — the
// live trace of movement through the Figure 10 chain's states.
func (m *clusterMetrics) observeSnapshot(up int) {
	m.snapshots.Inc()
	m.webUp.Set(float64(up))
	if prev := m.last.Swap(int64(up) + 1); prev != 0 && prev != int64(up)+1 {
		m.transitions.Inc()
	}
}
