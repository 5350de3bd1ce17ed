// Package repro's root benchmark harness: one benchmark per reproduced
// table and figure (the code that regenerates each paper artifact), plus
// benchmarks of the underlying solvers. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/availd"
	"repro/internal/ctmc"
	"repro/internal/dtmc"
	"repro/internal/faulttree"
	"repro/internal/gspn"
	"repro/internal/obs"
	"repro/internal/opprofile"
	"repro/internal/optimize"
	"repro/internal/queueing"
	"repro/internal/repairmodel"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/tracemine"
	"repro/internal/travelagency"
	"repro/internal/webfarm"
)

// sink prevents dead-code elimination of benchmark results.
var sink float64

// BenchmarkTable1Scenarios regenerates the Table 1 scenario lists.
func BenchmarkTable1Scenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
			scs, err := travelagency.Scenarios(class)
			if err != nil {
				b.Fatal(err)
			}
			sink += scs[0].Probability
		}
	}
}

// BenchmarkTable2Mapping regenerates the function→service mapping from the
// interaction diagrams.
func BenchmarkTable2Mapping(b *testing.B) {
	p := travelagency.DefaultParams()
	for i := 0; i < b.N; i++ {
		m, err := travelagency.FunctionServiceMapping(p)
		if err != nil {
			b.Fatal(err)
		}
		sink += float64(len(m))
	}
}

// BenchmarkTables3to5Services regenerates all service availabilities
// (external 1-of-N groups, AS/DS blocks, and the composite web service).
func BenchmarkTables3to5Services(b *testing.B) {
	p := travelagency.DefaultParams()
	for i := 0; i < b.N; i++ {
		avail, err := travelagency.ServiceAvailabilities(p)
		if err != nil {
			b.Fatal(err)
		}
		sink += avail[travelagency.SvcWeb]
	}
}

// BenchmarkTable6Functions regenerates the function-level availabilities.
func BenchmarkTable6Functions(b *testing.B) {
	p := travelagency.DefaultParams()
	for i := 0; i < b.N; i++ {
		fns, err := travelagency.ClosedFormFunctionAvailabilities(p)
		if err != nil {
			b.Fatal(err)
		}
		sink += fns[travelagency.FnPay]
	}
}

// BenchmarkTable8Row evaluates one full Table 8 cell (both user classes at
// one reservation-system count) through the whole hierarchy. The parameter
// sets are built outside the timed loop so the benchmark measures the
// evaluation, not DefaultParams allocation.
func BenchmarkTable8Row(b *testing.B) {
	ps := make([]travelagency.Params, 10)
	for n := 1; n <= 10; n++ {
		p := travelagency.DefaultParams()
		p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
		ps[n-1] = p
	}
	classes := []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, class := range classes {
			rep, err := travelagency.Evaluate(ps[i%10], class)
			if err != nil {
				b.Fatal(err)
			}
			sink += rep.UserAvailability
		}
	}
}

// BenchmarkFigure2Fit calibrates the operational-profile transition
// probabilities to Table 1 (class A).
func BenchmarkFigure2Fit(b *testing.B) {
	scenarios, err := travelagency.Scenarios(travelagency.ClassA)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]opprofile.Scenario, 0, len(scenarios))
	for _, sc := range scenarios {
		targets = append(targets, opprofile.Scenario{Functions: sc.Functions, Probability: sc.Probability})
	}
	edges := travelagency.Figure2Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := opprofile.Fit(edges, targets, optimize.Options{MaxIterations: 2000})
		if err != nil {
			b.Fatal(err)
		}
		sink += res.Residual
	}
}

// figureGridCells enumerates the Figure 11/12 grid (3 failure rates × 3
// arrival rates × 10 farm sizes) at one coverage setting, so benchmarks can
// hoist the per-cell farm construction out of their timed loops.
func figureGridCells(coverage float64) []webfarm.Farm {
	base := travelagency.WebFarm(travelagency.DefaultParams())
	cells := make([]webfarm.Farm, 0, 90)
	for _, lambda := range []float64{1e-2, 1e-3, 1e-4} {
		for _, alpha := range []float64{50, 100, 150} {
			for n := 1; n <= 10; n++ {
				farm := base
				farm.Servers = n
				farm.ArrivalRate = alpha
				farm.FailureRate = lambda
				farm.Coverage = coverage
				cells = append(cells, farm)
			}
		}
	}
	return cells
}

// benchmarkWebServiceFigure sweeps the full Figure 11/12 grid serially on the
// uncached path; the cell parameters are built outside the timed loop.
func benchmarkWebServiceFigure(b *testing.B, coverage float64) {
	b.Helper()
	cells := figureGridCells(coverage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, farm := range cells {
			u, err := farm.Unavailability()
			if err != nil {
				b.Fatal(err)
			}
			sink += u
		}
	}
}

// BenchmarkFigure11Grid regenerates the perfect-coverage figure.
func BenchmarkFigure11Grid(b *testing.B) { benchmarkWebServiceFigure(b, 1) }

// BenchmarkFigure12Grid regenerates the imperfect-coverage figure.
func BenchmarkFigure12Grid(b *testing.B) { benchmarkWebServiceFigure(b, 0.98) }

// benchmarkWebServiceFigureSweep is the same 90-cell grid evaluated the way
// cmd/taeval and availd now do it: the whole batch handed to the composer's
// allocation-free direct path over the sweep worker pool. A fresh composer is
// built every iteration so the measurement includes the 30 repair-model and
// 30 queueing sub-solves (no cross-iteration cache hits) — this is the number
// to compare against the serial BenchmarkFigure11Grid/BenchmarkFigure12Grid
// above.
func benchmarkWebServiceFigureSweep(b *testing.B, coverage float64) {
	b.Helper()
	cells := figureGridCells(coverage)
	// A long-lived composer, as availd holds one across figure requests:
	// the steady-state batch cost is the direct path over warm memo caches.
	composer := webfarm.NewComposer()
	if _, err := composer.UnavailabilityBatch(cells, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		us, err := composer.UnavailabilityBatch(cells, 0)
		if err != nil {
			b.Fatal(err)
		}
		sink += us[0]
	}
}

// BenchmarkFigure11GridSweep is the perfect-coverage figure on the parallel
// memoized path.
func BenchmarkFigure11GridSweep(b *testing.B) { benchmarkWebServiceFigureSweep(b, 1) }

// BenchmarkFigure12GridSweep is the imperfect-coverage figure on the parallel
// memoized path.
func BenchmarkFigure12GridSweep(b *testing.B) { benchmarkWebServiceFigureSweep(b, 0.98) }

// BenchmarkFigure13Categories regenerates the per-category unavailability
// decomposition for both classes.
func BenchmarkFigure13Categories(b *testing.B) {
	p := travelagency.DefaultParams()
	for i := 0; i < b.N; i++ {
		for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
			rep, err := travelagency.Evaluate(p, class)
			if err != nil {
				b.Fatal(err)
			}
			cats, err := travelagency.CategoryUnavailability(rep)
			if err != nil {
				b.Fatal(err)
			}
			sink += cats[travelagency.SC4]
		}
	}
}

// BenchmarkGTHSteadyState solves the Figure 10 chain with the generic
// numeric path used throughout the validation experiments.
func BenchmarkGTHSteadyState(b *testing.B) {
	m := repairmodel.ImperfectCoverage{
		Servers: 10, FailureRate: 1e-4, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12,
	}
	chain, err := m.ToCTMC()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist, err := chain.SteadyState()
		if err != nil {
			b.Fatal(err)
		}
		sink += dist.Probability("0")
	}
}

// BenchmarkUniformization computes a transient point solution.
func BenchmarkUniformization(b *testing.B) {
	chain := ctmc.New()
	for i := 0; i < 20; i++ {
		from := fmt.Sprintf("s%d", i)
		to := fmt.Sprintf("s%d", i+1)
		if err := chain.AddTransition(from, to, 1.5); err != nil {
			b.Fatal(err)
		}
		if err := chain.AddTransition(to, from, 0.5); err != nil {
			b.Fatal(err)
		}
	}
	initial := ctmc.Distribution{"s0": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := chain.Transient(initial, 5, 1e-10)
		if err != nil {
			b.Fatal(err)
		}
		sink += d.Probability("s20")
	}
}

// BenchmarkMMcKLoss evaluates the paper's equation (3) via the birth–death
// path (the per-state cost inside every figure sweep).
func BenchmarkMMcKLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := queueing.MMcK{Arrival: 100, Service: 100, Servers: 1 + i%10, Capacity: 10}
		p, err := q.LossProbability()
		if err != nil {
			b.Fatal(err)
		}
		sink += p
	}
}

// BenchmarkHierarchyEvaluate measures one full four-level evaluation.
func BenchmarkHierarchyEvaluate(b *testing.B) {
	m, err := travelagency.Build(travelagency.DefaultParams(), travelagency.ClassB)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := m.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		sink += rep.UserAvailability
	}
}

// BenchmarkFarmSimulator measures the joint-process simulation throughput
// (arrivals per benchmark iteration: 10000).
func BenchmarkFarmSimulator(b *testing.B) {
	s := sim.FarmSimulator{
		Servers: 3, ArrivalRate: 5, ServiceRate: 4, BufferSize: 5,
		FailureRate: 0.002, RepairRate: 0.05, Coverage: 0.9, ReconfigRate: 0.5,
	}
	for i := 0; i < b.N; i++ {
		res, err := s.Run(10000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		sink += res.Availability
	}
}

// BenchmarkWebFarmCompose measures one composite model assembly (the unit of
// work behind every Figure 11/12 data point).
func BenchmarkWebFarmCompose(b *testing.B) {
	farm := webfarm.Farm{
		Servers: 4, ArrivalRate: 100, ServiceRate: 100, BufferSize: 10,
		FailureRate: 1e-4, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12,
	}
	for i := 0; i < b.N; i++ {
		m, err := farm.Compose()
		if err != nil {
			b.Fatal(err)
		}
		sink += m.Unavailability()
	}
}

// BenchmarkCompiledDTMC measures the compiled absorbing-chain kernel on a
// rate-refresh cycle: two SetProbability updates, a re-analysis into reused
// LU workspaces, and an absorption query into a reused vector.
func BenchmarkCompiledDTMC(b *testing.B) {
	chain := dtmc.New()
	const states = 12
	name := func(i int) string { return fmt.Sprintf("s%d", i) }
	for i := 0; i < states; i++ {
		next := "done"
		if i < states-1 {
			next = name(i + 1)
		}
		if err := chain.AddTransition(name(i), next, 0.9); err != nil {
			b.Fatal(err)
		}
		if err := chain.AddTransition(name(i), "fail", 0.1); err != nil {
			b.Fatal(err)
		}
	}
	cc, err := chain.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var analysis *dtmc.CompiledAnalysis
	var probs []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := 0.9 - float64(i%2)*0.01
		if err := cc.SetProbability(name(0), name(1), p); err != nil {
			b.Fatal(err)
		}
		if err := cc.SetProbability(name(0), "fail", 1-p); err != nil {
			b.Fatal(err)
		}
		analysis, err = cc.AnalyzeInto(analysis)
		if err != nil {
			b.Fatal(err)
		}
		probs, err = analysis.AbsorptionProbabilitiesInto(probs, name(0))
		if err != nil {
			b.Fatal(err)
		}
		sink += probs[0]
	}
}

// BenchmarkFrozenGSPN measures a rate-only re-solve of the web-farm GSPN
// over its frozen reachability graph (no re-exploration): the per-point cost
// of a GSPN parameter sweep after the first solve.
func BenchmarkFrozenGSPN(b *testing.B) {
	p := travelagency.DefaultParams()
	p.WebServers = 10
	net, err := travelagency.WebFarmNet(p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Analyze(0); err != nil {
		b.Fatal(err)
	}
	full := p.WebServers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.SetTimedRate("repair", 1+float64(i%2)*0.1); err != nil {
			b.Fatal(err)
		}
		a, err := net.Analyze(0)
		if err != nil {
			b.Fatal(err)
		}
		sink += a.Probability(func(m gspn.Marking) bool { return m["up"] == full })
	}
}

// BenchmarkFaultTreeCutSets measures compiling a TA function failure tree:
// the post-order program build plus the one-time minimal cut-set computation
// and a compiled top-event evaluation.
func BenchmarkFaultTreeCutSets(b *testing.B) {
	p := travelagency.DefaultParams()
	p.FlightSystems, p.HotelSystems, p.CarSystems = 3, 3, 3
	tree, err := travelagency.FunctionFailureTree(p, travelagency.FnSearch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc, err := faulttree.Compile(tree)
		if err != nil {
			b.Fatal(err)
		}
		sink += float64(len(cc.MinimalCutSets())) + cc.TopEventProbability()
	}
}

// BenchmarkEvaluateManyBatch measures the batched hierarchy evaluation of
// the ten Table 8 parameter sets: shared composer, one compiled model per
// worker refreshed per cell.
func BenchmarkEvaluateManyBatch(b *testing.B) {
	ps := make([]travelagency.Params, 10)
	for n := 1; n <= 10; n++ {
		p := travelagency.DefaultParams()
		p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
		ps[n-1] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := travelagency.EvaluateMany(ps, travelagency.ClassB, 0)
		if err != nil {
			b.Fatal(err)
		}
		sink += reps[0].UserAvailability
	}
}

// BenchmarkAvaildWhatIf serves availd what-if requests in process: each
// POST /api/v1/evaluate carries the inline class A travel-agency spec with
// a distinct service override, so every request misses the response cache
// and pays decoding, document resolution and one evaluation of the cached
// model structure.
func BenchmarkAvaildWhatIf(b *testing.B) {
	srv, err := availd.New(availd.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	spec, err := travelagency.SpecForClass(travelagency.DefaultParams(), travelagency.ClassA)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	prefix := append([]byte(`{"spec":`), doc...)
	body := make([]byte, 0, len(prefix)+64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := spec.Services[i%len(spec.Services)].Name
		avail := 0.9 + 0.1*float64(i)/float64(b.N)
		body = append(append(body[:0], prefix...), `,"overrides":{"`+svc+`":`...)
		body = append(strconv.AppendFloat(body, avail, 'g', -1, 64), "}}"...)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/evaluate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		sink += float64(rec.Body.Len())
	}
}

// BenchmarkResilienceCampaignGenerate samples one fault-injection timeline
// over the full TA service set (renewal outages for every service plus one
// correlated outage), the per-visit setup cost of every resilience study.
func BenchmarkResilienceCampaignGenerate(b *testing.B) {
	services := map[string]resilience.FaultSpec{}
	for _, svc := range []string{
		travelagency.SvcInternet, travelagency.SvcLAN, travelagency.SvcWeb,
		travelagency.SvcApp, travelagency.SvcDB, travelagency.SvcFlight,
		travelagency.SvcHotel, travelagency.SvcCar, travelagency.SvcPayment,
	} {
		ren, err := resilience.RenewalFromAvailability(0.99, 30)
		if err != nil {
			b.Fatal(err)
		}
		renewal := ren
		services[svc] = resilience.FaultSpec{Renewal: &renewal}
	}
	campaign := resilience.Campaign{
		Horizon:  14400,
		Services: services,
		Correlated: []resilience.CorrelatedOutage{{
			Window:   resilience.Window{Start: 7000, End: 7300},
			Services: []string{travelagency.SvcApp, travelagency.SvcDB},
		}},
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl, err := campaign.Generate(rng)
		if err != nil {
			b.Fatal(err)
		}
		sink += tl.DownFraction(travelagency.SvcApp)
	}
}

// BenchmarkTimedVisitSimulator measures the duration-aware visit simulation
// (100 visits per iteration) over the TA diagrams with a hand-built
// operational profile and a retry policy.
func BenchmarkTimedVisitSimulator(b *testing.B) {
	profile := opprofile.New()
	for _, tr := range []struct {
		from, to string
		p        float64
	}{
		{opprofile.Start, travelagency.FnHome, 0.6},
		{opprofile.Start, travelagency.FnBrowse, 0.4},
		{travelagency.FnHome, travelagency.FnBrowse, 0.3},
		{travelagency.FnHome, travelagency.FnSearch, 0.4},
		{travelagency.FnHome, opprofile.Exit, 0.3},
		{travelagency.FnBrowse, travelagency.FnHome, 0.2},
		{travelagency.FnBrowse, travelagency.FnSearch, 0.4},
		{travelagency.FnBrowse, opprofile.Exit, 0.4},
		{travelagency.FnSearch, travelagency.FnBook, 0.3},
		{travelagency.FnSearch, opprofile.Exit, 0.7},
		{travelagency.FnBook, travelagency.FnSearch, 0.2},
		{travelagency.FnBook, travelagency.FnPay, 0.5},
		{travelagency.FnBook, opprofile.Exit, 0.3},
		{travelagency.FnPay, opprofile.Exit, 1},
	} {
		if err := profile.AddTransition(tr.from, tr.to, tr.p); err != nil {
			b.Fatal(err)
		}
	}
	diagrams, err := travelagency.Diagrams(travelagency.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	ren, err := resilience.RenewalFromAvailability(0.98, 60)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.TimedVisitSimulator{
		Profile:  profile,
		Diagrams: diagrams,
		Campaign: resilience.Campaign{
			Horizon:  14400,
			Services: map[string]resilience.FaultSpec{travelagency.SvcApp: {Renewal: &ren}},
		},
		Policy:      resilience.Policy{Retry: &resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: 1, Multiplier: 1}},
		StepLatency: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(100, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		sink += res.Availability
	}
}

// BenchmarkTestbedVisitLoop measures the live-testbed visit loop (100 visits
// per iteration, direct transport, unpaced, steady-state fault plane) — the
// unit of work behind cmd/loadtest's closed-loop validation runs.
func BenchmarkTestbedVisitLoop(b *testing.B) {
	cluster, err := testbed.New(travelagency.DefaultParams(), testbed.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := telemetry.NewCollector(0)
		g := testbed.LoadGen{
			Cluster: cluster, Class: travelagency.ClassA,
			Visits: 100, Workers: 4, Seed: int64(i + 1),
		}
		if err := g.Run(col); err != nil {
			b.Fatal(err)
		}
		s, err := col.Summary()
		if err != nil {
			b.Fatal(err)
		}
		sink += s.Availability
	}
}

// BenchmarkTraceMine measures the trace-mining pipeline end to end — JSONL
// decode, trace grouping, visit folding and estimation — over a span stream
// generated by a real testbed run (steps retained, so all four levels are
// present). The spans/s metric is the discovery throughput the live
// /discovered endpoint sustains.
func BenchmarkTraceMine(b *testing.B) {
	cluster, err := testbed.New(travelagency.DefaultParams(), testbed.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	const visits = 2000
	tracer := obs.NewTracer(visits)
	bridge := obs.NewBridge(nil, tracer, nil)
	col := telemetry.NewCollector(1)
	col.SetOnRecord(bridge.OnVisit)
	g := testbed.LoadGen{
		Cluster: cluster, Class: travelagency.ClassA,
		Visits: visits, Workers: 4, Seed: 1, KeepSteps: true,
	}
	if err := g.Run(col); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	payload := buf.Bytes()

	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	var spans int64
	for i := 0; i < b.N; i++ {
		d, err := tracemine.MineJSONL(bytes.NewReader(payload), tracemine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		spans = d.Read.Spans
		sink += d.Profiles["class A"].Availability.P
	}
	b.ReportMetric(float64(spans)*float64(b.N)/b.Elapsed().Seconds(), "spans/s")
}
