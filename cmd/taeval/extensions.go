package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/faulttree"
	"repro/internal/network"
	"repro/internal/optimize"
	"repro/internal/repairmodel"
	"repro/internal/report"
	"repro/internal/sensitivity"
	"repro/internal/travelagency"
	"repro/internal/webfarm"
)

// runAblationMaintenance compares the repair/maintenance strategies the
// paper's §3.3 lists as architectural options: a shared repair facility
// with immediate maintenance (the paper's model), dedicated per-server
// repair, and deferred maintenance with increasing batch thresholds.
func runAblationMaintenance(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	// Use a visible failure rate so the strategies separate clearly.
	p.WebFailureRate = 1e-2
	farm := travelagency.WebFarm(p)
	farm.Coverage = 1 // isolate the maintenance effect from coverage
	tbl := report.NewTable("Ablation — maintenance strategy (N_W=4, λ=1e-2/h, µ=1/h, perfect coverage)",
		"strategy", "UA(WS)", "E[servers up]")

	addRow := func(label string, operational []float64) error {
		m, err := farm.ComposeStates(operational, nil)
		if err != nil {
			return err
		}
		var expect float64
		for i, pr := range operational {
			expect += float64(i) * pr
		}
		return tbl.AddRow(label, report.Scientific(m.Unavailability(), 3), report.Fixed(expect, 4))
	}

	shared := repairmodel.PerfectCoverage{
		Servers: farm.Servers, FailureRate: farm.FailureRate, RepairRate: farm.RepairRate,
	}
	sp, err := shared.StateProbabilities()
	if err != nil {
		return err
	}
	if err := addRow("shared repair, immediate (paper)", sp); err != nil {
		return err
	}

	dedicated := repairmodel.DedicatedRepair{
		Servers: farm.Servers, FailureRate: farm.FailureRate, RepairRate: farm.RepairRate,
	}
	dp, err := dedicated.StateProbabilities()
	if err != nil {
		return err
	}
	if err := addRow("dedicated repair per server", dp); err != nil {
		return err
	}

	for _, threshold := range []int{2, 3, 4} {
		def := repairmodel.DeferredRepair{
			Servers: farm.Servers, FailureRate: farm.FailureRate,
			RepairRate: farm.RepairRate, Threshold: threshold,
		}
		probs, err := def.StateProbabilities()
		if err != nil {
			return err
		}
		if err := addRow(fmt.Sprintf("deferred, batch at %d failed", threshold), probs); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runLANTopologies derives A_LAN from explicit bus/ring/star topologies
// (the paper's refs [16, 17]) instead of assuming the Table 7 constant, and
// shows the resulting user-perceived availability.
func runLANTopologies(w io.Writer, csv bool) error {
	// The redundant architecture interconnects 8 servers
	// (4 web + 2 application + 2 database).
	const stations = 8
	type option struct {
		label string
		avail func() (float64, error)
	}
	options := []option{
		{"Table 7 constant", func() (float64, error) { return 0.9966, nil }},
		{"bus (seg 0.9995, tap 0.9990)", func() (float64, error) {
			g, st, err := network.BusLAN(stations, 0.9995, 0.9990)
			if err != nil {
				return 0, err
			}
			return g.AllTerminalAvailability(st...)
		}},
		{"ring (link 0.9950)", func() (float64, error) {
			g, st, err := network.RingLAN(stations, 0.9950)
			if err != nil {
				return 0, err
			}
			return g.AllTerminalAvailability(st...)
		}},
		{"star (link 0.9990, port 0.9995)", func() (float64, error) {
			g, st, err := network.StarLAN(stations, 0.9990, 0.9995)
			if err != nil {
				return 0, err
			}
			return g.AllTerminalAvailability(st...)
		}},
		{"dual ring (two independent rings)", func() (float64, error) {
			g, st, err := network.RingLAN(stations, 0.9950)
			if err != nil {
				return 0, err
			}
			one, err := g.AllTerminalAvailability(st...)
			if err != nil {
				return 0, err
			}
			return 1 - (1-one)*(1-one), nil
		}},
	}
	tbl := report.NewTable("LAN topology models for the 8 interconnected servers",
		"topology", "A_LAN", "A(user, class B)")
	for _, opt := range options {
		aLAN, err := opt.avail()
		if err != nil {
			return err
		}
		p := travelagency.DefaultParams()
		p.LANAvailability = aLAN
		rep, err := travelagency.Evaluate(p, travelagency.ClassB)
		if err != nil {
			return err
		}
		if err := tbl.AddRow(opt.label, report.Fixed(aLAN, 6), report.Fixed(rep.UserAvailability, 6)); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "A_LAN is first order in A(user): each basis point of LAN availability moves the user measure 1:1")
	return nil
}

// runCutSets prints the minimal cut sets of the branch-free TA functions —
// the failure combinations a designer must engineer away.
func runCutSets(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	p.FlightSystems, p.HotelSystems, p.CarSystems = 2, 2, 2
	for _, fn := range []string{travelagency.FnHome, travelagency.FnSearch, travelagency.FnPay} {
		tree, err := travelagency.FunctionFailureTree(p, fn)
		if err != nil {
			return err
		}
		// The compiled tier caches cut sets per tree structure and evaluates
		// the top event without recursive walks; both are gated bit-identical
		// to the generic functions in the faulttree tests.
		cc, err := faulttree.Compile(tree)
		if err != nil {
			return err
		}
		cuts := cc.MinimalCutSets()
		top := cc.TopEventProbability()
		tbl := report.NewTable(
			fmt.Sprintf("Minimal cut sets — %s fails (P = %s; N_F=N_H=N_C=2)", fn, report.Scientific(top, 3)),
			"order", "cut set")
		for _, cs := range cuts {
			if err := tbl.AddRow(fmt.Sprintf("%d", len(cs)), strings.Join(cs, " AND ")); err != nil {
				return err
			}
		}
		if err := render(w, csv, tbl); err != nil {
			return err
		}
	}
	return nil
}

// runMTTF reports the mean time to the first structural web-service outage
// for increasing farm sizes, under perfect and imperfect coverage.
func runMTTF(w io.Writer, csv bool) error {
	tbl := report.NewTable("Mean time to first web-service outage (hours; λ=1e-3/h, µ=1/h)",
		"N_W", "perfect coverage", "imperfect (c=0.98, β=12/h)")
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		p := travelagency.DefaultParams()
		p.WebFailureRate = 1e-3
		farm := travelagency.WebFarm(p)
		farm.Servers = n

		perfect := farm
		perfect.Coverage = 1
		mttfPerfect, err := perfect.MeanTimeToOutage()
		if err != nil {
			return err
		}
		imperfect := farm
		imperfect.Coverage = 0.98
		mttfImperfect, err := imperfect.MeanTimeToOutage()
		if err != nil {
			return err
		}
		if err := tbl.AddRow(fmt.Sprintf("%d", n),
			report.Scientific(mttfPerfect, 3),
			report.Scientific(mttfImperfect, 3),
		); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "imperfect coverage caps the MTTF near 1/(N·(1−c)·λ): redundancy stops buying outage-free time")
	return nil
}

// runLoadDerivation closes the loop between the user level and the
// performance model: the calibrated operational profile yields the expected
// number of function invocations per visit, which converts a visit arrival
// rate into the web-request rate α that drives the M/M/i/K model.
func runLoadDerivation(w io.Writer, csv bool) error {
	const visitsPerSecond = 30.0
	tbl := report.NewTable(
		fmt.Sprintf("Load derivation — %g visits/s through the calibrated Figure 2 profile", visitsPerSecond),
		"class", "E[invocations/visit]", "α (req/s)", "UA(WS) at α")
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		fit, err := travelagency.FitProfile(class)
		if err != nil {
			return err
		}
		inv, err := fit.Profile.ExpectedInvocations()
		if err != nil {
			return err
		}
		var perVisit float64
		for _, e := range inv {
			perVisit += e
		}
		alpha := visitsPerSecond * perVisit
		farm := travelagency.WebFarm(travelagency.DefaultParams())
		farm.ArrivalRate = alpha
		ua, err := farm.Unavailability()
		if err != nil {
			return err
		}
		if err := tbl.AddRow(class.String(),
			report.Fixed(perVisit, 3),
			report.Fixed(alpha, 1),
			report.Scientific(ua, 3),
		); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "class B visits are heavier (more Search/Book cycles), so the same visit rate loads the farm more")
	return nil
}

// runPopulationMix sweeps the customer-population mix between the two
// Table 1 classes — the paper's closing point that a faithful operational
// profile is needed for realistic business predictions, made continuous.
func runPopulationMix(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	repA, err := travelagency.Evaluate(p, travelagency.ClassA)
	if err != nil {
		return err
	}
	repB, err := travelagency.Evaluate(p, travelagency.ClassB)
	if err != nil {
		return err
	}
	impactA, err := travelagency.EstimateRevenueImpact(repA, 100, 100)
	if err != nil {
		return err
	}
	impactB, err := travelagency.EstimateRevenueImpact(repB, 100, 100)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Population mix — fraction of class B (buying-intent) customers",
		"share of class B", "A(user)", "SC4 downtime (h/yr)", "lost revenue ($M/yr)")
	for _, share := range []float64{0, 0.25, 0.5, 0.75, 1} {
		// All user-level measures are π-linear, so the mix interpolates.
		a := (1-share)*repA.UserAvailability + share*repB.UserAvailability
		hours := (1-share)*impactA.DowntimeHours + share*impactB.DowntimeHours
		revenue := ((1-share)*impactA.LostRevenue + share*impactB.LostRevenue) / 1e6
		if err := tbl.AddRow(
			report.Fixed(share, 2),
			report.Fixed(a, 6),
			report.Fixed(hours, 1),
			report.Fixed(revenue, 0),
		); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "the availability drop is modest, but the revenue exposure nearly tripling is what the provider feels")
	return nil
}

// runFirstYear computes transient (interval) measures over the deployment's
// first year: expected structural downtime of the web farm starting from
// full strength, versus the steady-state figure the paper reports. One
// compiled chain serves both: the uniformization-based occupancy gives the
// expected up time, GTH the steady state.
func runFirstYear(w io.Writer, csv bool) error {
	const yearHours = 8760.0
	tbl := report.NewTable("First-year expected web-farm downtime (structural; λ=1e-3/h, µ=1/h)",
		"configuration", "first-year (h)", "steady-state bound (h)")
	for _, cfg := range []struct {
		label    string
		servers  int
		coverage float64
	}{
		{"N_W=1", 1, 1},
		{"N_W=2, perfect coverage", 2, 1},
		{"N_W=2, c=0.98", 2, 0.98},
		{"N_W=4, c=0.98", 4, 0.98},
	} {
		p := travelagency.DefaultParams()
		p.WebFailureRate = 1e-3
		farm := travelagency.WebFarm(p)
		farm.Servers = cfg.servers
		farm.Coverage = cfg.coverage

		chain, down, err := farmChainAndDownSet(farm)
		if err != nil {
			return err
		}
		cc, err := chain.Compile()
		if err != nil {
			return err
		}
		full := fmt.Sprintf("%d", cfg.servers)
		occ, err := cc.Occupancy(ctmc.Distribution{full: 1}, yearHours, 0)
		if err != nil {
			return err
		}
		upTime := occ.SumOver(func(s string) bool { return !down[s] })
		// Steady-state structural downtime for comparison.
		dist, err := cc.SteadyState()
		if err != nil {
			return err
		}
		ssDown := dist.SumOver(func(s string) bool { return down[s] })
		if err := tbl.AddRow(cfg.label,
			report.Fixed(yearHours-upTime, 3),
			report.Fixed(ssDown*yearHours, 3),
		); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "starting from full strength, the first year is slightly better than steady state — the paper's steady-state figures are mildly conservative for a fresh deployment")
	return nil
}

// farmChainAndDownSet builds the repair chain of a farm plus the set of
// structurally-down state names.
func farmChainAndDownSet(f webfarm.Farm) (*ctmc.Chain, map[string]bool, error) {
	down := map[string]bool{"0": true}
	if f.Coverage == 1 {
		m := repairmodel.PerfectCoverage{Servers: f.Servers, FailureRate: f.FailureRate, RepairRate: f.RepairRate}
		chain, err := m.ToCTMC()
		return chain, down, err
	}
	m := repairmodel.ImperfectCoverage{
		Servers: f.Servers, FailureRate: f.FailureRate, RepairRate: f.RepairRate,
		Coverage: f.Coverage, ReconfigRate: f.ReconfigRate,
	}
	chain, err := m.ToCTMC()
	for i := 1; i <= f.Servers; i++ {
		down[fmt.Sprintf("y%d", i)] = true
	}
	return chain, down, err
}

// runAblationRepairDist probes the exponential-repair assumption: the same
// farm with Erlang-k repair times (same mean, variance divided by k),
// composed with the queueing losses.
func runAblationRepairDist(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	p.WebFailureRate = 1e-2 // make the repair process visible
	farm := travelagency.WebFarm(p)
	farm.Coverage = 1
	tbl := report.NewTable("Ablation — repair-time distribution (N_W=4, λ=1e-2/h, mean repair 1 h)",
		"repair distribution", "UA(WS)")
	for _, k := range []int{1, 2, 4, 16} {
		m := repairmodel.ErlangRepair{
			Servers: farm.Servers, FailureRate: farm.FailureRate,
			RepairRate: farm.RepairRate, Stages: k,
		}
		probs, err := m.StateProbabilities()
		if err != nil {
			return err
		}
		composed, err := farm.ComposeStates(probs, nil)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("Erlang-%d", k)
		if k == 1 {
			label = "exponential (paper)"
		}
		if err := tbl.AddRow(label, report.Scientific(composed.Unavailability(), 4)); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "the exponential assumption is mildly pessimistic; the measure is robust to the repair distribution")
	return nil
}

// runArchitectures compares the paper's two architectures (Figures 7–8)
// end to end for both user classes.
func runArchitectures(w io.Writer, csv bool) error {
	basic := travelagency.DefaultParams()
	basic.Architecture = travelagency.Basic
	basic.WebServers = 1
	redundant := travelagency.DefaultParams()
	tbl := report.NewTable("Architecture comparison (Figures 7 vs 8, Table 7 parameters)",
		"architecture", "A(WS)", "A(AS)", "A(DS)", "A(user, A)", "A(user, B)", "downtime B (h/yr)")
	for _, cfg := range []travelagency.Params{basic, redundant} {
		avail, err := travelagency.ServiceAvailabilities(cfg)
		if err != nil {
			return err
		}
		repA, err := travelagency.Evaluate(cfg, travelagency.ClassA)
		if err != nil {
			return err
		}
		repB, err := travelagency.Evaluate(cfg, travelagency.ClassB)
		if err != nil {
			return err
		}
		if err := tbl.AddRow(cfg.Architecture.String(),
			report.Fixed(avail[travelagency.SvcWeb], 6),
			report.Fixed(avail[travelagency.SvcApp], 6),
			report.Fixed(avail[travelagency.SvcDB], 6),
			report.Fixed(repA.UserAvailability, 5),
			report.Fixed(repB.UserAvailability, 5),
			report.Fixed(repB.UserUnavailability()*travelagency.HoursPerYear, 0),
		); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runTornado performs a tornado analysis of A(user, class B): every major
// parameter is swung across a plausible range, one at a time, and the
// output swings are ranked — the §5 sensitivity story in one table.
func runTornado(w io.Writer, csv bool) error {
	base := map[string]float64{
		"A_net":  0.9966,
		"A_LAN":  0.9966,
		"A_CAS":  0.996,
		"A_CDS":  0.996,
		"A_Disk": 0.9,
		"A_ext":  0.9, // flight/hotel/car per-system
		"A_PS":   0.9,
		"N_ext":  5,
		"N_W":    4,
		"c":      0.98,
	}
	ranges := map[string]sensitivity.Range{
		"A_net":  {Low: 0.99, High: 0.9999},
		"A_LAN":  {Low: 0.99, High: 0.9999},
		"A_CAS":  {Low: 0.99, High: 0.9999},
		"A_CDS":  {Low: 0.99, High: 0.9999},
		"A_Disk": {Low: 0.8, High: 0.99},
		"A_ext":  {Low: 0.8, High: 0.99},
		"A_PS":   {Low: 0.8, High: 0.99},
		"N_ext":  {Low: 1, High: 10},
		"N_W":    {Low: 1, High: 8},
		"c":      {Low: 0.9, High: 1.0},
	}
	eval := func(v map[string]float64) (float64, error) {
		p := travelagency.DefaultParams()
		p.NetAvailability = v["A_net"]
		p.LANAvailability = v["A_LAN"]
		p.AppHostAvailability = v["A_CAS"]
		p.DBHostAvailability = v["A_CDS"]
		p.DiskAvailability = v["A_Disk"]
		p.FlightSystemAvailability = v["A_ext"]
		p.HotelSystemAvailability = v["A_ext"]
		p.CarSystemAvailability = v["A_ext"]
		p.PaymentAvailability = v["A_PS"]
		n := int(v["N_ext"] + 0.5)
		p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
		p.WebServers = int(v["N_W"] + 0.5)
		p.Coverage = v["c"]
		rep, err := travelagency.Evaluate(p, travelagency.ClassB)
		if err != nil {
			return 0, err
		}
		return rep.UserAvailability, nil
	}
	entries, err := sensitivity.Tornado(base, ranges, eval)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Tornado — A(user, class B) swings, one parameter at a time",
		"parameter", "range", "A at low", "A at high", "swing")
	for _, e := range entries {
		if err := tbl.AddRow(e.Name,
			fmt.Sprintf("%g..%g", e.LowValue, e.HighValue),
			report.Fixed(e.AtLow, 5),
			report.Fixed(e.AtHigh, 5),
			report.Fixed(e.Swing(), 5),
		); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runLatencyUser extends the latency-threshold measure to the USER level:
// the deadline-constrained web service availability replaces A(WS) in the
// full four-level model.
func runLatencyUser(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	p.ArrivalRate = 50 // keep every degraded state stable (α < i·ν)
	model, err := travelagency.Build(p, travelagency.ClassB)
	if err != nil {
		return err
	}
	farm := travelagency.WebFarm(p)
	tbl := report.NewTable("Future work at the user level — A(user, class B) with a response-time deadline (α=50/s)",
		"deadline (ms)", "A(WS) with deadline", "A(user, class B)")
	for _, ms := range []float64{10, 20, 50, 100, 500} {
		aws, err := farm.AvailabilityWithDeadline(ms / 1000)
		if err != nil {
			return err
		}
		rep, err := model.EvaluateWith(map[string]float64{travelagency.SvcWeb: aws})
		if err != nil {
			return err
		}
		if err := tbl.AddRow(report.Fixed(ms, 0),
			report.Fixed(aws, 6),
			report.Fixed(rep.UserAvailability, 6),
		); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runTable8Calibrated fits the parameters the paper most plausibly used for
// its Table 8 — the disk and payment availabilities are the free knobs its
// printed values imply — by least squares against all twelve printed cells,
// then reports the calibrated table. This quantifies how far the printed
// Table 7 is from whatever produced the printed Table 8 (see EXPERIMENTS.md).
func runTable8Calibrated(w io.Writer, csv bool) error {
	ns := travelagency.Table8Rows()
	logistic := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	evalTable := func(disk, ps float64) (map[int][2]float64, error) {
		out := make(map[int][2]float64, len(ns))
		for _, n := range ns {
			p := travelagency.DefaultParams()
			p.DiskAvailability = disk
			p.PaymentAvailability = ps
			p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
			a, err := travelagency.ClosedFormUserAvailability(p, travelagency.ClassA)
			if err != nil {
				return nil, err
			}
			b, err := travelagency.ClosedFormUserAvailability(p, travelagency.ClassB)
			if err != nil {
				return nil, err
			}
			out[n] = [2]float64{a, b}
		}
		return out, nil
	}
	objective := func(x []float64) float64 {
		table, err := evalTable(logistic(x[0]), logistic(x[1]))
		if err != nil {
			return math.Inf(1)
		}
		var sse float64
		for _, n := range ns {
			paper := paperTable8[n]
			got := table[n]
			for k := 0; k < 2; k++ {
				d := got[k] - paper[k]
				sse += d * d
			}
		}
		return sse
	}
	res, err := optimize.Minimize(objective, []float64{2.2, 2.2}, optimize.Options{MaxIterations: 4000})
	if err != nil {
		return err
	}
	disk, ps := logistic(res.X[0]), logistic(res.X[1])
	table, err := evalTable(disk, ps)
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Table 8 calibrated — best-fit A(Disk)=%.4f, A_PS=%.4f (Table 7 prints 0.9/0.9; RMS %.2e)",
			disk, ps, math.Sqrt(res.Value/12)),
		"N", "calibrated A", "paper A", "calibrated B", "paper B")
	for _, n := range ns {
		paper := paperTable8[n]
		if err := tbl.AddRow(fmt.Sprintf("%d", n),
			report.Fixed(table[n][0], 5), report.Fixed(paper[0], 5),
			report.Fixed(table[n][1], 5), report.Fixed(paper[1], 5),
		); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}

	// The same two parameters also resolve Figure 13's otherwise-impossible
	// hour figures (see EXPERIMENTS.md).
	fig := report.NewTable("Figure 13 under the calibrated parameters (hours/year)",
		"measure", "calibrated", "paper")
	for _, row := range []struct {
		class   travelagency.UserClass
		paperSC float64
		paperTo float64
	}{
		{travelagency.ClassA, 16, 173},
		{travelagency.ClassB, 43, 190},
	} {
		p := travelagency.DefaultParams()
		p.DiskAvailability = disk
		p.PaymentAvailability = ps
		rep, err := travelagency.Evaluate(p, row.class)
		if err != nil {
			return err
		}
		cats, err := travelagency.CategoryUnavailability(rep)
		if err != nil {
			return err
		}
		if err := fig.AddRow(fmt.Sprintf("SC4 downtime, %v", row.class),
			report.Fixed(cats[travelagency.SC4]*travelagency.HoursPerYear, 1),
			report.Fixed(row.paperSC, 0)); err != nil {
			return err
		}
		if err := fig.AddRow(fmt.Sprintf("total downtime, %v", row.class),
			report.Fixed(rep.UserUnavailability()*travelagency.HoursPerYear, 1),
			report.Fixed(row.paperTo, 0)); err != nil {
			return err
		}
	}
	if err := render(w, csv, fig); err != nil {
		return err
	}
	fmt.Fprintln(w, "conclusion: the paper's Table 8 and Figure 13 were computed with A_PS = 1 (payment term")
	fmt.Fprintln(w, "omitted from eq. 10) and A(Disk) ≈ 0.865 — a parameter-reporting erratum, now recovered")
	return nil
}
