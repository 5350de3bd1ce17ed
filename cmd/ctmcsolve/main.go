// Command ctmcsolve solves a continuous-time Markov chain described in a
// JSON file: steady-state distribution (GTH), optional transient point
// distributions, and mean time to absorption into named target states.
//
// Input format (see internal/ctmc.ChainSpec):
//
//	{
//	  "transitions": [
//	    {"from": "up",   "to": "down", "rate": 0.001},
//	    {"from": "down", "to": "up",   "rate": 0.5}
//	  ]
//	}
//
// Usage:
//
//	ctmcsolve model.json
//	ctmcsolve -transient 10 -initial up model.json
//	ctmcsolve -mtta down model.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/ctmc"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ctmcsolve:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ctmcsolve", flag.ContinueOnError)
	var (
		transientAt = fs.Float64("transient", 0, "also compute the distribution at this time (requires -initial)")
		initial     = fs.String("initial", "", "initial state for -transient")
		mtta        = fs.String("mtta", "", "compute mean time to absorption into this state")
		dot         = fs.Bool("dot", false, "emit the chain in Graphviz DOT format (annotated with steady-state probabilities) instead of tables")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ctmcsolve [flags] <model.json>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var chain ctmc.Chain
	if err := json.Unmarshal(data, &chain); err != nil {
		return err
	}

	if *dot {
		// Empty and reducible chains still render, just unannotated.
		var steady ctmc.Distribution
		if cc, err := chain.Compile(); err == nil {
			steady, _ = cc.SteadyState()
		}
		_, werr := io.WriteString(w, chain.MarshalDOT(fs.Arg(0), steady))
		return werr
	}

	cc, err := chain.Compile()
	if err != nil {
		return err
	}

	if *mtta != "" {
		times, err := cc.MeanTimeToAbsorption(*mtta)
		if err != nil {
			return err
		}
		tbl := report.NewTable(fmt.Sprintf("Mean time to reach %q", *mtta), "state", "E[time]")
		for _, name := range sortedKeys(times) {
			tbl.MustAddRow(name, report.Float(times[name], 8))
		}
		return tbl.Render(w)
	}

	steady, err := cc.SteadyState()
	if err != nil {
		return err
	}
	tbl := report.NewTable("Steady-state distribution (GTH)", "state", "probability")
	for _, name := range chain.StateNames() {
		tbl.MustAddRow(name, report.Scientific(steady.Probability(name), 6))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}

	if *transientAt > 0 {
		if *initial == "" {
			return fmt.Errorf("-transient requires -initial")
		}
		dist, err := cc.Transient(ctmc.Distribution{*initial: 1}, *transientAt, 1e-12)
		if err != nil {
			return err
		}
		tbl := report.NewTable(fmt.Sprintf("Distribution at t=%g starting from %q", *transientAt, *initial),
			"state", "probability")
		for _, name := range chain.StateNames() {
			tbl.MustAddRow(name, report.Scientific(dist.Probability(name), 6))
		}
		return tbl.Render(w)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
