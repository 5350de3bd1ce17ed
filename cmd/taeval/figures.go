package main

import (
	"fmt"
	"io"

	"repro/internal/opprofile"
	"repro/internal/repairmodel"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/travelagency"
	"repro/internal/webfarm"
)

// runFigure2 calibrates the Figure 2 graph to Table 1 and reports the
// fitted transition probabilities and achieved scenario probabilities.
func runFigure2(w io.Writer, csv bool) error {
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		res, err := travelagency.FitProfile(class)
		if err != nil {
			return err
		}
		tbl := report.NewTable(
			fmt.Sprintf("Figure 2 — fitted transition probabilities, %v (RMS residual %.2e)", class, res.Residual),
			"from", "to", "p_ij")
		for _, e := range travelagency.Figure2Edges() {
			p := res.Profile.TransitionProbability(e.From, e.To)
			if err := tbl.AddRow(e.From, e.To, report.Fixed(p, 4)); err != nil {
				return err
			}
		}
		if err := render(w, csv, tbl); err != nil {
			return err
		}

		fitted, err := res.Profile.Scenarios()
		if err != nil {
			return err
		}
		byKey := make(map[string]float64, len(fitted))
		for _, sc := range fitted {
			byKey[sc.Key()] = sc.Probability
		}
		targets, err := travelagency.Scenarios(class)
		if err != nil {
			return err
		}
		cmp := report.NewTable(fmt.Sprintf("Achieved scenario probabilities, %v (%%)", class),
			"scenario", "target", "fitted")
		for _, sc := range targets {
			key := opprofile.ScenarioKey(sc.Functions)
			if err := cmp.AddRow(sc.Name,
				report.Fixed(sc.Probability*100, 1),
				report.Fixed(byKey[key]*100, 1),
			); err != nil {
				return err
			}
		}
		if err := render(w, csv, cmp); err != nil {
			return err
		}
	}
	return nil
}

// runFigures3to6 prints every function's interaction-diagram scenarios.
func runFigures3to6(w io.Writer, csv bool) error {
	diagrams, err := travelagency.Diagrams(travelagency.DefaultParams())
	if err != nil {
		return err
	}
	for _, fn := range []string{
		travelagency.FnHome, travelagency.FnBrowse, travelagency.FnSearch,
		travelagency.FnBook, travelagency.FnPay,
	} {
		scenarios, err := diagrams[fn].Scenarios()
		if err != nil {
			return err
		}
		tbl := report.NewTable(fmt.Sprintf("Figures 3–6 — %s function scenarios", fn),
			"services touched", "probability")
		for _, sc := range scenarios {
			if err := tbl.AddRow(sc.Key(), report.Fixed(sc.Probability, 4)); err != nil {
				return err
			}
		}
		if err := render(w, csv, tbl); err != nil {
			return err
		}
	}
	return nil
}

// runFigures9to10 prints the repair-model state probabilities at the
// Table 7 operating point.
func runFigures9to10(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	perfect := repairmodel.PerfectCoverage{
		Servers:     p.WebServers,
		FailureRate: p.WebFailureRate,
		RepairRate:  p.WebRepairRate,
	}
	probs, err := perfect.StateProbabilities()
	if err != nil {
		return err
	}
	tbl := report.NewTable("Figure 9 — perfect-coverage state probabilities (N_W=4, λ=1e-4/h, µ=1/h)",
		"state", "probability")
	for i := len(probs) - 1; i >= 0; i-- {
		if err := tbl.AddRow(fmt.Sprintf("%d servers up", i), report.Scientific(probs[i], 4)); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}

	imperfect := repairmodel.ImperfectCoverage{
		Servers:      p.WebServers,
		FailureRate:  p.WebFailureRate,
		RepairRate:   p.WebRepairRate,
		Coverage:     p.Coverage,
		ReconfigRate: p.ReconfigRate,
	}
	ip, err := imperfect.StateProbabilities()
	if err != nil {
		return err
	}
	tbl2 := report.NewTable("Figure 10 — imperfect-coverage state probabilities (c=0.98, β=12/h)",
		"state", "probability")
	for i := p.WebServers; i >= 0; i-- {
		if err := tbl2.AddRow(fmt.Sprintf("%d servers up", i), report.Scientific(ip.Operational[i], 4)); err != nil {
			return err
		}
	}
	for i := p.WebServers; i >= 1; i-- {
		if err := tbl2.AddRow(fmt.Sprintf("y%d (manual reconfiguration)", i), report.Scientific(ip.Reconfig[i], 4)); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl2); err != nil {
		return err
	}
	fmt.Fprintf(w, "total down probability: %s\n", report.Scientific(ip.DownProbability(), 4))
	return nil
}

// webServiceCurves computes UA(WS) vs N_W for the Figure 11/12 parameter
// grid at one coverage setting. The 90 cells are evaluated through the
// sweep worker pool with a shared composer, which memoizes the repair-model
// and queueing sub-solves across cells (the grid needs only 30 of each);
// results come back in cell order, so the rendered figure is byte-identical
// to the old serial nested loops.
func webServiceCurves(coverage float64) (map[float64][]report.Series, *webfarm.Composer, error) {
	lambdas := []float64{1e-2, 1e-3, 1e-4}
	alphas := []float64{50, 100, 150}
	ns := make([]float64, 10)
	for i := range ns {
		ns[i] = float64(i + 1)
	}
	base := travelagency.DefaultParams()
	cells := make([]webfarm.Farm, 0, len(lambdas)*len(alphas)*len(ns))
	for _, lambda := range lambdas {
		for _, alpha := range alphas {
			for n := 1; n <= len(ns); n++ {
				farm := travelagency.WebFarm(base)
				farm.Servers = n
				farm.ArrivalRate = alpha
				farm.FailureRate = lambda
				farm.Coverage = coverage
				cells = append(cells, farm)
			}
		}
	}
	// The batch flows through the composer's allocation-free direct path;
	// sweep.Run (rather than UnavailabilityBatch) keeps the -metrics pool
	// stats attached. Values are bit-identical either way.
	composer := webfarm.NewComposer()
	unavail, err := sweep.Run(cells, composer.Unavailability, sweepOptions())
	if err != nil {
		return nil, nil, err
	}
	out := make(map[float64][]report.Series, len(lambdas))
	k := 0
	for _, lambda := range lambdas {
		var series []report.Series
		for _, alpha := range alphas {
			ys := make([]float64, len(ns))
			for i := range ns {
				ys[i] = unavail[k]
				k++
			}
			series = append(series, report.Series{
				Name: fmt.Sprintf("α=%g/s", alpha),
				X:    ns,
				Y:    ys,
			})
		}
		out[lambda] = series
	}
	return out, composer, nil
}

func renderWebServiceFigure(w io.Writer, title string, coverage float64) error {
	curves, composer, err := webServiceCurves(coverage)
	if err != nil {
		return err
	}
	for _, lambda := range []float64{1e-2, 1e-3, 1e-4} {
		err := report.RenderSeries(w,
			fmt.Sprintf("%s, λ=%g/h (ν=100/s, µ=1/h, K=10)", title, lambda),
			"N_W", curves[lambda])
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	// The memo caches single-flight under a lock, so misses equal distinct
	// sub-problems and the line is byte-identical for any worker count.
	rh, rm, lh, lm := composer.CacheStats()
	fmt.Fprintf(w, "composer caches over the 90-cell grid: repair %d hits / %d misses, loss %d hits / %d misses\n",
		rh, rm, lh, lm)
	return nil
}

// runFigure11 regenerates the perfect-coverage unavailability curves.
func runFigure11(w io.Writer, _ bool) error {
	return renderWebServiceFigure(w, "Figure 11 — UA(web service), perfect coverage", 1)
}

// runFigure12 regenerates the imperfect-coverage curves (c=0.98, β=12/h).
func runFigure12(w io.Writer, _ bool) error {
	return renderWebServiceFigure(w, "Figure 12 — UA(web service), imperfect coverage c=0.98", 0.98)
}

// runFigure13 prints the per-category unavailability decomposition and the
// revenue impact.
func runFigure13(w io.Writer, csv bool) error {
	tbl := report.NewTable("Figure 13 — unavailability by scenario category (hours/year)",
		"category", "class A", "class B")
	type classResult struct {
		cats  map[travelagency.Category]float64
		total float64
	}
	results := make(map[travelagency.UserClass]classResult, 2)
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		rep, err := travelagency.Evaluate(travelagency.DefaultParams(), class)
		if err != nil {
			return err
		}
		cats, err := travelagency.CategoryUnavailability(rep)
		if err != nil {
			return err
		}
		results[class] = classResult{cats: cats, total: rep.UserUnavailability()}
	}
	for _, cat := range travelagency.Categories() {
		if err := tbl.AddRow(cat.String(),
			report.Fixed(travelagency.DowntimeHoursPerYear(results[travelagency.ClassA].cats[cat]), 1),
			report.Fixed(travelagency.DowntimeHoursPerYear(results[travelagency.ClassB].cats[cat]), 1),
		); err != nil {
			return err
		}
	}
	if err := tbl.AddRow("total",
		report.Fixed(travelagency.DowntimeHoursPerYear(results[travelagency.ClassA].total), 1),
		report.Fixed(travelagency.DowntimeHoursPerYear(results[travelagency.ClassB].total), 1),
	); err != nil {
		return err
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}

	eco := report.NewTable("Revenue impact of SC4 downtime (100 tx/s, 100 $ per transaction)",
		"class", "SC4 downtime (h/yr)", "lost transactions/yr", "lost revenue ($/yr)")
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		rep, err := travelagency.Evaluate(travelagency.DefaultParams(), class)
		if err != nil {
			return err
		}
		impact, err := travelagency.EstimateRevenueImpact(rep, 100, 100)
		if err != nil {
			return err
		}
		if err := eco.AddRow(class.String(),
			report.Fixed(impact.DowntimeHours, 1),
			report.Scientific(impact.LostTransactions, 2),
			report.Scientific(impact.LostRevenue, 2),
		); err != nil {
			return err
		}
	}
	return render(w, csv, eco)
}
