package testbed

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/travelagency"
)

func TestNewRejectsBadConfigurations(t *testing.T) {
	good := travelagency.DefaultParams()

	bad := good
	bad.WebServers = 0
	if _, err := New(bad, Options{}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := New(good, Options{Scale: math.NaN()}); err == nil {
		t.Error("NaN scale accepted")
	}
	if _, err := New(good, Options{Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := New(good, Options{Transport: Transport(99)}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := New(good, Options{Campaign: &resilience.Campaign{Horizon: -1}}); err == nil {
		t.Error("invalid campaign accepted")
	}
}

func TestInventoryMatchesArchitecture(t *testing.T) {
	p := travelagency.DefaultParams()
	c, err := New(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Redundant (Figure 8): net + lan + 4 web + 2 app + 2 db hosts +
	// 2 disks + 5 flight + 5 hotel + 5 car + pay.
	if got := len(c.Resources()); got != 28 {
		t.Errorf("redundant resource count = %d, want 28", got)
	}

	p.Architecture = travelagency.Basic
	p.WebServers = 1
	p.Coverage = 1
	cb, err := New(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if got := len(cb.Resources()); got != 22 {
		t.Errorf("basic resource count = %d, want 22", got)
	}
	byTier := make(map[string]int)
	for _, r := range cb.Resources() {
		byTier[r.Tier]++
	}
	if byTier[TierWeb] != 1 || byTier[TierApp] != 1 || byTier[TierDB] != 2 {
		t.Errorf("basic tier counts = %v", byTier)
	}
}

func runLoad(t *testing.T, c *Cluster, class travelagency.UserClass, visits int64, workers int, seed int64, keepSteps bool) telemetry.Summary {
	t.Helper()
	col := telemetry.NewCollector(16)
	g := LoadGen{Cluster: c, Class: class, Visits: visits, Workers: workers, Seed: seed, KeepSteps: keepSteps}
	if err := g.Run(col); err != nil {
		t.Fatalf("LoadGen.Run: %v", err)
	}
	s, err := col.Summary()
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}
	return s
}

// Unpaced visit outcomes are a pure function of (seed, visit index), so two
// runs with different worker counts must agree bit for bit.
func TestLoadGenDeterministicAcrossSchedules(t *testing.T) {
	c, err := New(travelagency.DefaultParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := runLoad(t, c, travelagency.ClassA, 5000, 1, 7, false)
	b := runLoad(t, c, travelagency.ClassA, 5000, 8, 7, false)
	if a.Availability != b.Availability {
		t.Errorf("availability differs across schedules: %v vs %v", a.Availability, b.Availability)
	}
	if !reflect.DeepEqual(a.Causes, b.Causes) {
		t.Errorf("causes differ: %v vs %v", a.Causes, b.Causes)
	}
	if !reflect.DeepEqual(a.Functions, b.Functions) {
		t.Errorf("function summaries differ")
	}
}

// The HTTP transport is a transparent wrapper around the same call
// semantics, so a fixed seed must reproduce the direct transport's results
// exactly — while actually crossing loopback listeners.
func TestHTTPTransportMatchesDirect(t *testing.T) {
	p := travelagency.DefaultParams()
	direct, err := New(p, Options{Transport: Direct})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	overHTTP, err := New(p, Options{Transport: HTTP})
	if err != nil {
		t.Fatal(err)
	}
	defer overHTTP.Close()

	a := runLoad(t, direct, travelagency.ClassB, 2000, 4, 11, false)
	b := runLoad(t, overHTTP, travelagency.ClassB, 2000, 4, 11, false)
	if a.Availability != b.Availability {
		t.Errorf("availability differs: direct %v vs http %v", a.Availability, b.Availability)
	}
	if !reflect.DeepEqual(a.Causes, b.Causes) {
		t.Errorf("causes differ: %v vs %v", a.Causes, b.Causes)
	}
}

func TestCampaignPlaneOutagesAndSpikes(t *testing.T) {
	p := travelagency.DefaultParams()
	const horizon = 2000
	campaign, err := DefaultCampaign(p, horizon, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic structure on top of the renewal faults: a correlated
	// outage taking both application hosts down over the whole horizon, and
	// a permanent latency spike on the Internet access link.
	campaign.Correlated = append(campaign.Correlated, resilience.CorrelatedOutage{
		Window:   resilience.Window{Start: 0, End: horizon},
		Services: []string{"app-1", "app-2"},
	})
	spec := campaign.Services["net"]
	spec.Latency = append(spec.Latency, resilience.LatencySpike{
		Window: resilience.Window{Start: 0, End: horizon},
		Extra:  50,
	})
	campaign.Services["net"] = spec

	c, err := New(p, Options{Campaign: &campaign})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	col := telemetry.NewCollector(8)
	g := LoadGen{Cluster: c, Class: travelagency.ClassA, Visits: 3000, Workers: 8, Seed: 3, KeepSteps: true}
	if err := g.Run(col); err != nil {
		t.Fatal(err)
	}
	s, err := col.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Visits != 3000 {
		t.Fatalf("visits = %d", s.Visits)
	}
	// The application service is hard down, so every scenario that leaves
	// the Home page must fail; only scenario 1 (Home only) and the Browse
	// cache-hit path survive. Availability must sit far below the
	// steady-state value and AS must dominate the failure causes.
	if s.Availability > 0.5 {
		t.Errorf("availability = %v with AS hard down", s.Availability)
	}
	if s.Causes[telemetry.CauseResourceDown] == 0 {
		t.Error("no resource-down failures recorded")
	}
	if s.DownByService[travelagency.SvcApp] == 0 {
		t.Errorf("no failures attributed to AS: %v", s.DownByService)
	}
	// The permanent spike on the entry link must show up in step latencies.
	if max := col.StepLatency().Max(); max < 50 {
		t.Errorf("max step latency %v, want ≥ 50 from the injected spike", max)
	}
}

func TestRunVisitUnknownFunction(t *testing.T) {
	c, err := New(travelagency.DefaultParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.RunVisit(0, hierarchy.UserScenario{
		Name: "bogus", Functions: []string{"NoSuchFunction"}, Probability: 1,
	}, rand.New(rand.NewSource(1)), false)
	if err == nil || !strings.Contains(err.Error(), "NoSuchFunction") {
		t.Errorf("unknown function error = %v", err)
	}
}

func TestWebLoadNeedsPacing(t *testing.T) {
	c, err := New(travelagency.DefaultParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WebLoad(100, 100, 1); err == nil {
		t.Error("unpaced WebLoad accepted")
	}
}

func TestLoadGenValidation(t *testing.T) {
	c, err := New(travelagency.DefaultParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	col := telemetry.NewCollector(0)
	if err := (&LoadGen{Cluster: nil, Class: travelagency.ClassA, Visits: 1}).Run(col); err == nil {
		t.Error("nil cluster accepted")
	}
	if err := (&LoadGen{Cluster: c, Class: travelagency.ClassA, Visits: 0}).Run(col); err == nil {
		t.Error("0 visits accepted")
	}
	if err := (&LoadGen{Cluster: c, Class: travelagency.UserClass(9), Visits: 1}).Run(col); err == nil {
		t.Error("unknown class accepted")
	}
	if err := (&LoadGen{Cluster: c, Class: travelagency.ClassA, Visits: 1, Rate: math.NaN()}).Run(col); err == nil {
		t.Error("NaN rate accepted")
	}
	if err := (&LoadGen{Cluster: c, Class: travelagency.ClassA, Visits: 1}).Run(nil); err == nil {
		t.Error("nil collector accepted")
	}
}

// TestServiceGroupsFollowServiceOrder checks that inventory lists each
// service's group at the index serviceIndex gives it, and that every bank
// holds inventory indices of the group's tier.
func TestServiceGroupsFollowServiceOrder(t *testing.T) {
	for _, arch := range []travelagency.Architecture{travelagency.Basic, travelagency.Redundant} {
		p := travelagency.DefaultParams()
		p.Architecture = arch
		resources, groups := inventory(p)
		if len(groups) != len(serviceOrder) {
			t.Fatalf("%v: %d groups, want %d", arch, len(groups), len(serviceOrder))
		}
		for i, g := range groups {
			if serviceIndex(g.service) != i {
				t.Errorf("%v: group %d implements %q, serviceIndex %d", arch, i, g.service, serviceIndex(g.service))
			}
			for _, bank := range g.banks {
				for _, r := range bank {
					if resources[r].Tier != g.tier {
						t.Errorf("%v: %s bank holds %s of tier %s", arch, g.service, resources[r].Name, resources[r].Tier)
					}
				}
			}
		}
	}
	if serviceIndex("no such service") != -1 {
		t.Error("unknown service resolved to a group")
	}
}
