// Travel agency walk-through: the paper's complete case study in one
// program — build the four-level model from Table 7 parameters, evaluate
// every level, compare both architectures and both user classes, and show
// the headline sensitivity (number of external reservation systems).
//
// Run with:
//
//	go run ./examples/travelagency
package main

import (
	"fmt"
	"log"

	"repro/internal/travelagency"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	params := travelagency.DefaultParams()

	fmt.Println("== Service level (Tables 3-5) ==")
	avail, err := travelagency.ServiceAvailabilities(params)
	if err != nil {
		return err
	}
	for _, svc := range []string{
		travelagency.SvcInternet, travelagency.SvcLAN, travelagency.SvcWeb,
		travelagency.SvcApp, travelagency.SvcDB, travelagency.SvcFlight,
		travelagency.SvcHotel, travelagency.SvcCar, travelagency.SvcPayment,
	} {
		fmt.Printf("  A(%-6s) = %.9f\n", svc, avail[svc])
	}

	fmt.Println("\n== Function level (Table 6) ==")
	rep, err := travelagency.Evaluate(params, travelagency.ClassA)
	if err != nil {
		return err
	}
	for _, fn := range []string{
		travelagency.FnHome, travelagency.FnBrowse, travelagency.FnSearch,
		travelagency.FnBook, travelagency.FnPay,
	} {
		fmt.Printf("  A(%-6s) = %.9f\n", fn, rep.Functions[fn])
	}

	fmt.Println("\n== User level (equation 10) ==")
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		r, err := travelagency.Evaluate(params, class)
		if err != nil {
			return err
		}
		closed, err := travelagency.ClosedFormUserAvailability(params, class)
		if err != nil {
			return err
		}
		fmt.Printf("  %s: hierarchy %.6f | equation (10) %.6f | downtime %.0f h/year\n",
			class, r.UserAvailability, closed, r.UserUnavailability()*travelagency.HoursPerYear)
	}

	fmt.Println("\n== Architecture comparison (class B) ==")
	basic := params
	basic.Architecture = travelagency.Basic
	basic.WebServers = 1
	for _, cfg := range []struct {
		label string
		p     travelagency.Params
	}{{"basic (Figure 7)", basic}, {"redundant (Figure 8)", params}} {
		r, err := travelagency.Evaluate(cfg.p, travelagency.ClassB)
		if err != nil {
			return err
		}
		fmt.Printf("  %-22s A(user) = %.6f\n", cfg.label, r.UserAvailability)
	}

	fmt.Println("\n== Sensitivity: number of reservation systems (Table 8) ==")
	rows, repsA, repsB, err := travelagency.Table8(1)
	if err != nil {
		return err
	}
	for i, n := range rows {
		fmt.Printf("  N=%2d  class A %.5f   class B %.5f\n", n, repsA[i].UserAvailability, repsB[i].UserAvailability)
	}

	fmt.Println("\n== Business impact (Figure 13 economics) ==")
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		r, err := travelagency.Evaluate(params, class)
		if err != nil {
			return err
		}
		impact, err := travelagency.EstimateRevenueImpact(r, 100 /* tx/s */, 100 /* $ */)
		if err != nil {
			return err
		}
		fmt.Printf("  %s: payment scenarios down %.0f h/year -> %.1fM lost transactions, $%.1fM lost revenue\n",
			class, impact.DowntimeHours, impact.LostTransactions/1e6, impact.LostRevenue/1e6)
	}
	return nil
}
