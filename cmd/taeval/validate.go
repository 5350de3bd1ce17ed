package main

import (
	"fmt"
	"io"

	"repro/internal/ctmc"
	"repro/internal/probe"
	"repro/internal/repairmodel"
	"repro/internal/report"
	"repro/internal/sensitivity"
	"repro/internal/sim"
	"repro/internal/travelagency"
	"repro/internal/webfarm"
)

// runValidateWS cross-checks the web-service availability along three
// independent paths: the closed-form composite model, the compiled CTMC
// solver applied to the Figure 10 chain, and (at a faster-failing operating
// point) the joint-process stochastic simulation.
func runValidateWS(w io.Writer, csv bool) error {
	tbl := report.NewTable("A(WS) cross-validation", "operating point", "method", "A(WS)")

	// Paper point: closed form vs CTMC.
	p := travelagency.DefaultParams()
	farm := travelagency.WebFarm(p)
	closed, err := farm.Availability()
	if err != nil {
		return err
	}
	viaCTMC, err := webServiceViaCTMC(farm)
	if err != nil {
		return err
	}
	viaGSPN, err := travelagency.WebServiceAvailabilityViaGSPN(p)
	if err != nil {
		return err
	}
	tbl.MustAddRow("Table 7", "closed form (eqs. 3, 6-9)", report.Fixed(closed, 10))
	tbl.MustAddRow("Table 7", "compiled CTMC solver (GTH)", report.Fixed(viaCTMC, 10))
	tbl.MustAddRow("Table 7", "stochastic Petri net (GSPN)", report.Fixed(viaGSPN, 10))
	tbl.MustAddRow("Table 7", "paper printed value", "0.9999955870")

	// Accelerated point: add the stochastic simulation.
	fast := webfarm.Farm{
		Servers: 3, ArrivalRate: 5, ServiceRate: 4, BufferSize: 5,
		FailureRate: 0.002, RepairRate: 0.05, Coverage: 0.9, ReconfigRate: 0.5,
	}
	fastClosed, err := fast.Availability()
	if err != nil {
		return err
	}
	fastCTMC, err := webServiceViaCTMC(fast)
	if err != nil {
		return err
	}
	simulator := sim.FarmSimulator{
		Servers: fast.Servers, ArrivalRate: fast.ArrivalRate, ServiceRate: fast.ServiceRate,
		BufferSize: fast.BufferSize, FailureRate: fast.FailureRate, RepairRate: fast.RepairRate,
		Coverage: fast.Coverage, ReconfigRate: fast.ReconfigRate,
	}
	res, err := simulator.Run(500000, 2003)
	if err != nil {
		return err
	}
	tbl.MustAddRow("accelerated", "closed form", report.Fixed(fastClosed, 6))
	tbl.MustAddRow("accelerated", "compiled CTMC solver (GTH)", report.Fixed(fastCTMC, 6))
	tbl.MustAddRow("accelerated", fmt.Sprintf("joint-process simulation (±%s)", report.Scientific(res.CI95.HalfWidth, 1)),
		report.Fixed(res.Availability, 6))
	return render(w, csv, tbl)
}

// webServiceViaCTMC recomputes A(WS) by solving the Figure 9/10 repair chain
// with the compiled CTMC kernel instead of the paper's closed forms, then
// composing with the queueing losses of each state.
func webServiceViaCTMC(f webfarm.Farm) (float64, error) {
	model, err := f.Compose() // establishes p_K(i) per state
	if err != nil {
		return 0, err
	}
	var chain *ctmc.Chain
	if f.Coverage == 1 {
		m := repairmodel.PerfectCoverage{
			Servers: f.Servers, FailureRate: f.FailureRate, RepairRate: f.RepairRate,
		}
		chain, err = m.ToCTMC()
	} else {
		m := repairmodel.ImperfectCoverage{
			Servers: f.Servers, FailureRate: f.FailureRate, RepairRate: f.RepairRate,
			Coverage: f.Coverage, ReconfigRate: f.ReconfigRate,
		}
		chain, err = m.ToCTMC()
	}
	if err != nil {
		return 0, err
	}
	compiled, err := chain.Compile()
	if err != nil {
		return 0, err
	}
	dist, err := compiled.SteadyState()
	if err != nil {
		return 0, err
	}
	var unavail float64
	for _, st := range model.States() {
		var prob float64
		var i int
		switch {
		case st.Name == "0-servers":
			prob = dist.Probability("0")
		case scan(st.Name, "%d-servers", &i):
			prob = dist.Probability(fmt.Sprintf("%d", i))
		case scan(st.Name, "reconfig-y%d", &i):
			prob = dist.Probability(fmt.Sprintf("y%d", i))
		default:
			return 0, fmt.Errorf("unexpected state %q", st.Name)
		}
		unavail += prob * (1 - st.Success)
	}
	return 1 - unavail, nil
}

// scan reports whether name matches the scanf pattern.
func scan(name, pattern string, dst *int) bool {
	n, err := fmt.Sscanf(name, pattern, dst)
	return n == 1 && err == nil
}

// runValidateUser cross-checks the user-perceived availability along three
// paths: equation (10), the hierarchy evaluation, and the visit simulation.
func runValidateUser(w io.Writer, csv bool) error {
	tbl := report.NewTable("A(user) cross-validation", "class", "method", "A(user)")
	p := travelagency.DefaultParams()
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		rep, err := travelagency.Evaluate(p, class)
		if err != nil {
			return err
		}
		closed, err := travelagency.ClosedFormUserAvailability(p, class)
		if err != nil {
			return err
		}
		tbl.MustAddRow(class.String(), "hierarchy evaluation", report.Fixed(rep.UserAvailability, 10))
		tbl.MustAddRow(class.String(), "equation (10)", report.Fixed(closed, 10))

		// Simulation over a calibrated profile.
		fit, err := travelagency.FitProfile(class)
		if err != nil {
			return err
		}
		model, err := travelagency.Build(p, class)
		if err != nil {
			return err
		}
		if err := model.SetProfile(fit.Profile); err != nil {
			return err
		}
		diagrams, err := travelagency.Diagrams(p)
		if err != nil {
			return err
		}
		fitted, err := model.Evaluate()
		if err != nil {
			return err
		}
		simulator := sim.VisitSimulator{
			Profile:             fit.Profile,
			Diagrams:            diagrams,
			ServiceAvailability: rep.Services,
		}
		res, err := simulator.Run(300000, 2003)
		if err != nil {
			return err
		}
		tbl.MustAddRow(class.String(), "hierarchy on fitted profile", report.Fixed(fitted.UserAvailability, 10))
		tbl.MustAddRow(class.String(),
			fmt.Sprintf("visit simulation (±%s)", report.Scientific(res.CI95.HalfWidth, 1)),
			report.Fixed(res.Availability, 10))
	}
	return render(w, csv, tbl)
}

// runAblationCoverage sweeps the fault coverage.
func runAblationCoverage(w io.Writer, csv bool) error {
	tbl := report.NewTable("Ablation — fault coverage sweep (Table 7 otherwise)",
		"c", "UA(WS)", "UA(user, class B)")
	for _, c := range []float64{0.90, 0.92, 0.94, 0.96, 0.98, 0.99, 1.00} {
		p := travelagency.DefaultParams()
		p.Coverage = c
		farm := travelagency.WebFarm(p)
		u, err := farm.Unavailability()
		if err != nil {
			return err
		}
		rep, err := travelagency.Evaluate(p, travelagency.ClassB)
		if err != nil {
			return err
		}
		if err := tbl.AddRow(report.Fixed(c, 2),
			report.Scientific(u, 3),
			report.Scientific(rep.UserUnavailability(), 5),
		); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runAblationBuffer sweeps the web-server buffer size.
func runAblationBuffer(w io.Writer, csv bool) error {
	tbl := report.NewTable("Ablation — buffer size sweep (α=100/s, otherwise Table 7)",
		"K", "UA(WS)", "performance part", "structural part")
	for _, k := range []int{1, 2, 5, 10, 20, 50} {
		p := travelagency.DefaultParams()
		p.BufferSize = k
		farm := travelagency.WebFarm(p)
		b, err := farm.Breakdown()
		if err != nil {
			return err
		}
		if err := tbl.AddRow(fmt.Sprintf("%d", k),
			report.Scientific(b.Total(), 3),
			report.Scientific(b.Performance, 3),
			report.Scientific(b.Structural, 3),
		); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runFutureLatency evaluates the latency-threshold extension.
func runFutureLatency(w io.Writer, csv bool) error {
	tbl := report.NewTable("Future work — response-time threshold extension (α=50/s, ν=100/s)",
		"deadline (ms)", "A(WS) with deadline")
	p := travelagency.DefaultParams()
	farm := travelagency.WebFarm(p)
	farm.ArrivalRate = 50 // keep all states stable so tails are defined
	plain, err := farm.Availability()
	if err != nil {
		return err
	}
	for _, ms := range []float64{5, 10, 20, 50, 100, 500} {
		a, err := farm.AvailabilityWithDeadline(ms / 1000)
		if err != nil {
			return err
		}
		if err := tbl.AddRow(report.Fixed(ms, 0), report.Fixed(a, 9)); err != nil {
			return err
		}
	}
	if err := tbl.AddRow("∞ (paper's measure)", report.Fixed(plain, 9)); err != nil {
		return err
	}
	return render(w, csv, tbl)
}

// runProbeExternal simulates the black-box measurement campaign for the
// external reservation systems and re-evaluates the user availability with
// the measured parameters.
func runProbeExternal(w io.Writer, csv bool) error {
	services := map[string]probe.Service{
		"flight": {FailureRate: 1.0 / 45, RepairRate: 1.0 / 5}, // A = 0.9
		"hotel":  {FailureRate: 1.0 / 45, RepairRate: 1.0 / 5},
		"car":    {FailureRate: 1.0 / 45, RepairRate: 1.0 / 5},
		"pay":    {FailureRate: 1.0 / 45, RepairRate: 1.0 / 5},
	}
	campaign := probe.Campaign{Interval: 2, Probes: 50000}
	estimates, err := probe.EstimateAvailabilities(services, campaign, 2003)
	if err != nil {
		return err
	}
	tbl := report.NewTable("External suppliers — probing campaign (truth A = 0.9 each)",
		"service", "estimated availability")
	for _, name := range []string{"flight", "hotel", "car", "pay"} {
		tbl.MustAddRow(name, report.Fixed(estimates[name], 4))
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}

	p := travelagency.DefaultParams()
	p.FlightSystemAvailability = estimates["flight"]
	p.HotelSystemAvailability = estimates["hotel"]
	p.CarSystemAvailability = estimates["car"]
	p.PaymentAvailability = estimates["pay"]
	measured, err := travelagency.Evaluate(p, travelagency.ClassB)
	if err != nil {
		return err
	}
	truth, err := travelagency.Evaluate(travelagency.DefaultParams(), travelagency.ClassB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A(user, class B) with measured parameters: %s (true parameters: %s)\n",
		report.Fixed(measured.UserAvailability, 6), report.Fixed(truth.UserAvailability, 6))
	return nil
}

// runImportance reports the elasticity of the user availability with
// respect to each service availability: the paper's first-order/second-order
// observation made quantitative.
func runImportance(w io.Writer, csv bool) error {
	tbl := report.NewTable("Service elasticities of A(user, class B) — 1.0 means first order",
		"parameter", "elasticity")
	base := travelagency.DefaultParams()
	entries := []struct {
		name string
		set  func(*travelagency.Params, float64)
		at   float64
	}{
		{"A_net", func(p *travelagency.Params, v float64) { p.NetAvailability = v }, base.NetAvailability},
		{"A_LAN", func(p *travelagency.Params, v float64) { p.LANAvailability = v }, base.LANAvailability},
		{"A(C_AS)", func(p *travelagency.Params, v float64) { p.AppHostAvailability = v }, base.AppHostAvailability},
		{"A(C_DS)", func(p *travelagency.Params, v float64) { p.DBHostAvailability = v }, base.DBHostAvailability},
		{"A(Disk)", func(p *travelagency.Params, v float64) { p.DiskAvailability = v }, base.DiskAvailability},
		{"A_Fi (flight)", func(p *travelagency.Params, v float64) { p.FlightSystemAvailability = v }, base.FlightSystemAvailability},
		{"A_PS (payment)", func(p *travelagency.Params, v float64) { p.PaymentAvailability = v }, base.PaymentAvailability},
	}
	for _, e := range entries {
		set := e.set
		el, err := sensitivity.Elasticity(func(v float64) (float64, error) {
			p := base
			set(&p, v)
			rep, err := travelagency.Evaluate(p, travelagency.ClassB)
			if err != nil {
				return 0, err
			}
			return rep.UserAvailability, nil
		}, e.at, 1e-4)
		if err != nil {
			return err
		}
		if err := tbl.AddRow(e.name, report.Fixed(el, 4)); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}
