package testbed

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/travelagency"
)

// TestClusterMetrics runs a small load against a metered cluster and checks
// that the registry exposes admission, call-outcome and fault-plane series
// with internally consistent values.
func TestClusterMetrics(t *testing.T) {
	p := travelagency.DefaultParams()
	reg := obs.NewRegistry()
	c, err := New(p, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	col := telemetry.NewCollector(0)
	g := LoadGen{Cluster: c, Class: travelagency.ClassA, Visits: 2000, Workers: 4, Seed: 7}
	if err := g.Run(col); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE testbed_web_admitted_total counter",
		"# TYPE testbed_web_rejected_total counter",
		"# TYPE testbed_web_queue_depth gauge",
		"# TYPE testbed_service_calls_total counter",
		"# TYPE testbed_fault_snapshots_total counter",
		"# TYPE testbed_web_state_transitions_total counter",
		"# TYPE testbed_web_operational_servers gauge",
		`testbed_service_call_failures_total{cause="resource-down"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// One fault-plane snapshot per visit.
	if !strings.Contains(out, "testbed_fault_snapshots_total 2000") {
		t.Errorf("want 2000 snapshots:\n%s", out)
	}
	// Unpaced cluster: the admission gate is bypassed but page requests are
	// still counted, one per function entry step, and nothing is rejected.
	if !strings.Contains(out, "testbed_web_rejected_total 0") {
		t.Errorf("unpaced run rejected requests:\n%s", out)
	}
	if strings.Contains(out, "testbed_web_admitted_total 0\n") {
		t.Errorf("no admissions counted:\n%s", out)
	}

	// The summary's failure count must agree with the call-failure counters:
	// every failed visit stems from at least one failed call.
	s, err := col.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Visits != 2000 {
		t.Fatalf("summary visits = %d", s.Visits)
	}
	// With failures observed, the resource-down counter must be nonzero.
	if s.Successes < s.Visits &&
		strings.Contains(out, `testbed_service_call_failures_total{cause="resource-down"} 0`) {
		t.Errorf("visits failed but no resource-down calls counted:\n%s", out)
	}
}

// TestMeteredPlaneTransitions feeds a metered cluster's visits fault-plane
// states with a scripted operational web-server count and checks the
// transition counter only advances when consecutive snapshots disagree on
// it.
func TestMeteredPlaneTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(travelagency.DefaultParams(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	topo := c.currentTopology()
	states := []int{3, 3, 2, 2, 3}
	idx := 0
	topo.plane = planeFunc(func() VisitState {
		up := make([]bool, len(topo.resources))
		for i := range up {
			up[i] = true
		}
		for k, r := range topo.webServers {
			up[r] = k < states[idx]
		}
		idx++
		return &steadyVisitState{up: up}
	})
	scenarios, err := travelagency.Scenarios(travelagency.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range states {
		if _, err := c.RunVisit(uint64(i), scenarios[0], rng, false); err != nil {
			t.Fatal(err)
		}
	}
	if up, n := c.WebUpStats(); up != 13 || n != 5 {
		t.Errorf("WebUpStats = %d over %d snapshots, want 13 over 5", up, n)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// 3→3 no, 3→2 yes, 2→2 no, 2→3 yes: two transitions over five snapshots.
	if !strings.Contains(out, "testbed_web_state_transitions_total 2") {
		t.Errorf("want 2 transitions:\n%s", out)
	}
	if !strings.Contains(out, "testbed_fault_snapshots_total 5") {
		t.Errorf("want 5 snapshots:\n%s", out)
	}
	if !strings.Contains(out, "testbed_web_operational_servers 3") {
		t.Errorf("want final gauge 3:\n%s", out)
	}
}

// planeFunc adapts a closure into a FaultPlane for tests.
type planeFunc func() VisitState

func (f planeFunc) Snapshot(*rand.Rand) (VisitState, error) { return f(), nil }

// A registry already served while a cluster is being built may render the
// cluster's topology gauges at any moment; run with -race.
func TestClusterMetricsScrapedDuringNew(t *testing.T) {
	reg := obs.NewRegistry()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		c, err := New(travelagency.DefaultParams(), Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	close(stop)
	<-done
}
