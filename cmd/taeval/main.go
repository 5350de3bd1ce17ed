// Command taeval regenerates every table and figure of the paper
// "A User-Perceived Availability Evaluation of a Web Based Travel Agency"
// (Kaâniche, Kanoun, Martinello — DSN 2003), plus the cross-validation and
// ablation experiments described in DESIGN.md.
//
// Usage:
//
//	taeval                         # run everything
//	taeval -experiment table8      # one experiment
//	taeval -list                   # list experiment names
//	taeval -experiment figure11 -csv   # emit CSV instead of aligned text
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// workerCount is the parallelism used by the grid-shaped experiments
// (Figure 11/12 sweeps, Table 8 rows). Set by the -workers flag; the
// default uses every available core. Results are ordered deterministically
// by the sweep engine, so the rendered output is byte-identical for any
// worker count.
var workerCount = runtime.GOMAXPROCS(0)

// sweepStats collects pool progress and per-worker utilization for the
// grid-shaped experiments when -metrics is set; nil keeps the zero-cost
// default path.
var sweepStats *sweep.RunStats

// sweepOptions builds the options grid experiments hand to the sweep engine.
func sweepOptions() sweep.Options {
	return sweep.Options{Workers: workerCount, Stats: sweepStats}
}

// printMetrics prints the kernel_* series and the last sweep's pool
// utilization as a Prometheus scrape. The values depend on scheduling and
// workspace reuse, so this output is diagnostic only and deliberately kept
// out of the golden files.
func printMetrics(w io.Writer) error {
	reg := obs.NewRegistry()
	if err := obs.RegisterKernels(reg); err != nil {
		return err
	}
	if sweepStats != nil && sweepStats.Total() > 0 {
		reg.MustGauge("sweep_points", "points in the last grid run").Set(float64(sweepStats.Total()))
		reg.MustGauge("sweep_completed", "points completed in the last grid run").Set(float64(sweepStats.Completed()))
		reg.MustGauge("sweep_workers", "workers in the last grid run").Set(float64(sweepStats.Workers()))
		for i := 0; i < sweepStats.Workers(); i++ {
			reg.MustGauge("sweep_busy_seconds", "time each worker spent evaluating points in the last grid run",
				obs.Label{Key: "worker", Value: strconv.Itoa(i)}).Set(sweepStats.BusyTime(i).Seconds())
		}
	}
	return reg.WritePrometheus(w)
}

// experiment is one reproducible artifact.
type experiment struct {
	name  string
	about string
	run   func(w io.Writer, csv bool) error
}

func experiments() []experiment {
	return []experiment{
		{"table1", "user-scenario probabilities for classes A and B (+ fitted p_ij)", runTable1},
		{"table2", "function → service mapping", runTable2},
		{"table3", "external-service availabilities", runTable3},
		{"table4", "application and database service availability, basic vs redundant", runTable4},
		{"table5", "web-service availability formulas evaluated at the Table 7 point", runTable5},
		{"table6", "function-level availabilities", runTable6},
		{"table7", "model parameters", runTable7},
		{"table8", "user-perceived availability vs number of reservation systems", runTable8},
		{"figure2", "operational-profile scenario classes from a calibrated graph", runFigure2},
		{"figures3to6", "interaction-diagram scenarios for Browse/Search/Book/Pay", runFigures3to6},
		{"figures9to10", "Markov repair-model state probabilities", runFigures9to10},
		{"figure11", "web-service unavailability vs N_W, perfect coverage", runFigure11},
		{"figure12", "web-service unavailability vs N_W, imperfect coverage", runFigure12},
		{"figure13", "per-category unavailability, downtime and revenue impact", runFigure13},
		{"validate-ws", "A(WS): closed form vs CTMC vs simulation", runValidateWS},
		{"validate-user", "A(user): equation (10) vs hierarchy vs visit simulation", runValidateUser},
		{"ablation-coverage", "coverage sweep c ∈ [0.9, 1.0]", runAblationCoverage},
		{"ablation-buffer", "buffer-size sweep K ∈ [1, 50]", runAblationBuffer},
		{"future-latency", "latency-threshold extension (the paper's future work)", runFutureLatency},
		{"probe-external", "black-box probing campaign for external suppliers", runProbeExternal},
		{"importance", "service elasticities: first-order vs second-order parameters", runImportance},
		{"ablation-maintenance", "shared vs dedicated vs deferred repair strategies", runAblationMaintenance},
		{"lan-topologies", "derive A_LAN from bus/ring/star models (paper refs 16-17)", runLANTopologies},
		{"cutsets", "minimal cut sets of the TA functions' fault trees", runCutSets},
		{"mttf", "mean time to first web-service outage vs farm size", runMTTF},
		{"load-derivation", "derive the web-request rate from the operational profile", runLoadDerivation},
		{"population-mix", "sweep the class A / class B customer mix", runPopulationMix},
		{"first-year", "transient first-year downtime vs steady state (interval availability)", runFirstYear},
		{"ablation-repairdist", "Erlang-k repair times probe the exponential assumption", runAblationRepairDist},
		{"architectures", "basic vs redundant architecture, end to end", runArchitectures},
		{"tornado", "one-at-a-time parameter swings of A(user, class B), ranked", runTornado},
		{"future-latency-user", "response-time deadline propagated to the user level", runLatencyUser},
		{"table8-calibrated", "least-squares fit of the paper's implied Table 8 parameters", runTable8Calibrated},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "taeval:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("taeval", flag.ContinueOnError)
	var (
		name    = fs.String("experiment", "all", "experiment to run (see -list)")
		list    = fs.Bool("list", false, "list experiments and exit")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for grid experiments (≤0 = all cores)")
		metrics = fs.Bool("metrics", false, "print the kernel_* and sweep_* series as a Prometheus scrape after the run (diagnostic, nondeterministic)")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	workerCount = *workers
	if *metrics {
		sweepStats = &sweep.RunStats{}
	} else {
		sweepStats = nil
	}
	exps := experiments()
	if *list {
		sort.Slice(exps, func(i, j int) bool { return exps[i].name < exps[j].name })
		for _, e := range exps {
			fmt.Fprintf(w, "%-20s %s\n", e.name, e.about)
		}
		return nil
	}
	if *name == "all" {
		for _, e := range exps {
			fmt.Fprintf(w, "==== %s — %s ====\n", e.name, e.about)
			if err := e.run(w, *csv); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Fprintln(w)
		}
		if *metrics {
			return printMetrics(w)
		}
		return nil
	}
	for _, e := range exps {
		if e.name == *name {
			if err := e.run(w, *csv); err != nil {
				return err
			}
			if *metrics {
				return printMetrics(w)
			}
			return nil
		}
	}
	known := make([]string, len(exps))
	for i, e := range exps {
		known[i] = e.name
	}
	return fmt.Errorf("unknown experiment %q (known: %s)", *name, strings.Join(known, ", "))
}
