package main

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/travelagency"
)

// render prints a table as text or CSV.
func render(w io.Writer, csv bool, t *report.Table) error {
	if csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

// runTable1 prints the published Table 1 scenario probabilities and the
// per-function invocation marginals they imply.
func runTable1(w io.Writer, csv bool) error {
	tbl := report.NewTable("Table 1 — user scenario probabilities (%)",
		"scenario", "functions", "class A", "class B")
	classA, err := travelagency.Scenarios(travelagency.ClassA)
	if err != nil {
		return err
	}
	classB, err := travelagency.Scenarios(travelagency.ClassB)
	if err != nil {
		return err
	}
	for i, sc := range classA {
		if err := tbl.AddRow(
			sc.Name,
			fmt.Sprintf("%v", sc.Functions),
			report.Fixed(sc.Probability*100, 1),
			report.Fixed(classB[i].Probability*100, 1),
		); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}

	marg := report.NewTable("Derived — probability a visit invokes each function",
		"function", "class A", "class B")
	for _, fn := range []string{
		travelagency.FnHome, travelagency.FnBrowse, travelagency.FnSearch,
		travelagency.FnBook, travelagency.FnPay,
	} {
		var pa, pb float64
		for i, sc := range classA {
			for _, f := range sc.Functions {
				if f == fn {
					pa += sc.Probability
					pb += classB[i].Probability
				}
			}
		}
		if err := marg.AddRow(fn, report.Fixed(pa, 3), report.Fixed(pb, 3)); err != nil {
			return err
		}
	}
	return render(w, csv, marg)
}

// runTable2 prints the function → service mapping.
func runTable2(w io.Writer, csv bool) error {
	mapping, err := travelagency.FunctionServiceMapping(travelagency.DefaultParams())
	if err != nil {
		return err
	}
	services := append(append([]string{}, travelagency.InternalServices()...),
		travelagency.ExternalServices()...)
	cols := append([]string{"function"}, services...)
	tbl := report.NewTable("Table 2 — mapping between functions and services "+
		"(Net and LAN omitted: required by every function)", cols...)
	for _, fn := range []string{
		travelagency.FnHome, travelagency.FnBrowse, travelagency.FnSearch,
		travelagency.FnBook, travelagency.FnPay,
	} {
		row := []string{fn}
		used := make(map[string]bool)
		for _, svc := range mapping[fn] {
			used[svc] = true
		}
		for _, svc := range services {
			mark := ""
			if used[svc] {
				mark = "x"
			}
			row = append(row, mark)
		}
		if err := tbl.AddRow(row...); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runTable3 prints the external-service availabilities.
func runTable3(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	avail, err := travelagency.ServiceAvailabilities(p)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Table 3 — external service availability (N_F=N_H=N_C=5, per-system A=0.9)",
		"service", "formula", "availability")
	tbl.MustAddRow(travelagency.SvcFlight, "1 - (1-A_Fi)^N_F", report.Float(avail[travelagency.SvcFlight], 8))
	tbl.MustAddRow(travelagency.SvcHotel, "1 - (1-A_Hi)^N_H", report.Float(avail[travelagency.SvcHotel], 8))
	tbl.MustAddRow(travelagency.SvcCar, "1 - (1-A_Ci)^N_C", report.Float(avail[travelagency.SvcCar], 8))
	tbl.MustAddRow(travelagency.SvcPayment, "A_PS", report.Float(avail[travelagency.SvcPayment], 8))
	return render(w, csv, tbl)
}

// runTable4 prints application/database availabilities per architecture.
func runTable4(w io.Writer, csv bool) error {
	redundant := travelagency.DefaultParams()
	basic := travelagency.DefaultParams()
	basic.Architecture = travelagency.Basic
	basic.WebServers = 1
	availR, err := travelagency.ServiceAvailabilities(redundant)
	if err != nil {
		return err
	}
	availB, err := travelagency.ServiceAvailabilities(basic)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Table 4 — application and database service availability",
		"service", "basic", "redundant")
	tbl.MustAddRow("A(AS)",
		report.Float(availB[travelagency.SvcApp], 8),
		report.Float(availR[travelagency.SvcApp], 8))
	tbl.MustAddRow("A(DS)",
		report.Float(availB[travelagency.SvcDB], 8),
		report.Float(availR[travelagency.SvcDB], 8))
	return render(w, csv, tbl)
}

// runTable5 evaluates the web-service formulas at the Table 7 point.
func runTable5(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	tbl := report.NewTable("Table 5 — web-service availability (α=100/s, ν=100/s, K=10, λ=1e-4/h, µ=1/h)",
		"model", "A(WS)", "unavailability")
	addFarm := func(label string, servers int, coverage float64) error {
		farm := travelagency.WebFarm(p)
		farm.Servers = servers
		farm.Coverage = coverage
		a, err := farm.Availability()
		if err != nil {
			return err
		}
		u, err := farm.Unavailability()
		if err != nil {
			return err
		}
		return tbl.AddRow(label, report.Fixed(a, 9), report.Scientific(u, 3))
	}
	if err := addFarm("basic (N_W=1, eq. 2)", 1, 1); err != nil {
		return err
	}
	if err := addFarm("redundant, perfect coverage (N_W=4, eq. 5)", 4, 1); err != nil {
		return err
	}
	if err := addFarm("redundant, imperfect coverage (N_W=4, c=0.98, eq. 9)", 4, 0.98); err != nil {
		return err
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper prints A(WS) = 0.999995587 for the imperfect-coverage row")
	return nil
}

// runTable6 prints function availabilities: diagrams vs closed forms.
func runTable6(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	rep, err := travelagency.Evaluate(p, travelagency.ClassA)
	if err != nil {
		return err
	}
	closed, err := travelagency.ClosedFormFunctionAvailabilities(p)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Table 6 — function-level availabilities",
		"function", "interaction diagram", "closed form", "|diff|")
	for _, fn := range []string{
		travelagency.FnHome, travelagency.FnBrowse, travelagency.FnSearch,
		travelagency.FnBook, travelagency.FnPay,
	} {
		diff := rep.Functions[fn] - closed[fn]
		if diff < 0 {
			diff = -diff
		}
		if err := tbl.AddRow(fn,
			report.Fixed(rep.Functions[fn], 9),
			report.Fixed(closed[fn], 9),
			report.Scientific(diff, 1),
		); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// runTable7 prints the parameter set.
func runTable7(w io.Writer, csv bool) error {
	p := travelagency.DefaultParams()
	tbl := report.NewTable("Table 7 — model parameters", "parameter", "value")
	rows := []struct {
		name  string
		value string
	}{
		{"architecture", p.Architecture.String()},
		{"A_net", report.Float(p.NetAvailability, 6)},
		{"A_LAN", report.Float(p.LANAvailability, 6)},
		{"A(C_AS)", report.Float(p.AppHostAvailability, 6)},
		{"A(C_DS)", report.Float(p.DBHostAvailability, 6)},
		{"A(Disk)", report.Float(p.DiskAvailability, 6)},
		{"A_PS = A_Fi = A_Hi = A_Ci", report.Float(p.PaymentAvailability, 6)},
		{"N_F = N_H = N_C", fmt.Sprintf("%d", p.FlightSystems)},
		{"q23 / q24 / q45 / q47", fmt.Sprintf("%.1f / %.1f / %.1f / %.1f", p.Q23, p.Q24, p.Q45, p.Q47)},
		{"N_W", fmt.Sprintf("%d", p.WebServers)},
		{"α (req/s)", report.Float(p.ArrivalRate, 6)},
		{"ν (req/s per server)", report.Float(p.ServiceRate, 6)},
		{"K", fmt.Sprintf("%d", p.BufferSize)},
		{"λ (/h)", report.Scientific(p.WebFailureRate, 1)},
		{"µ (/h)", report.Float(p.WebRepairRate, 6)},
		{"c", report.Float(p.Coverage, 6)},
		{"β (/h)", report.Float(p.ReconfigRate, 6)},
	}
	for _, r := range rows {
		if err := tbl.AddRow(r.name, r.value); err != nil {
			return err
		}
	}
	return render(w, csv, tbl)
}

// paperTable8 holds the printed values for side-by-side comparison.
var paperTable8 = map[int][2]float64{
	1:  {0.84235, 0.76875},
	2:  {0.96509, 0.95529},
	3:  {0.97867, 0.97593},
	4:  {0.98004, 0.97802},
	5:  {0.98018, 0.97822},
	10: {0.98020, 0.97825},
}

// runTable8 prints the user-perceived availability vs the number of
// reservation systems, alongside the paper's printed values. The rows are
// independent hierarchy evaluations, so both classes run through the batch
// evaluator's worker pool; results come back in row order.
func runTable8(w io.Writer, csv bool) error {
	tbl := report.NewTable("Table 8 — user availability vs N_F = N_H = N_C",
		"N", "A(class A)", "paper A", "A(class B)", "paper B")
	rows, repsA, repsB, err := travelagency.Table8(workerCount)
	if err != nil {
		return err
	}
	for i, n := range rows {
		paper := paperTable8[n]
		if err := tbl.AddRow(
			fmt.Sprintf("%d", n),
			report.Fixed(repsA[i].UserAvailability, 5),
			report.Fixed(paper[0], 5),
			report.Fixed(repsB[i].UserAvailability, 5),
			report.Fixed(paper[1], 5),
		); err != nil {
			return err
		}
	}
	if err := render(w, csv, tbl); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: the paper's Table 8 is not exactly derivable from its Table 7; see EXPERIMENTS.md")
	return nil
}
