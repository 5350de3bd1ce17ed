// Command loadtest drives the live travel-agency testbed and closes the loop
// against the paper's analytic models: it deploys the Figure 7/8
// architecture as concurrent components (internal/testbed), replays visits
// sampled from the Table 1 operational profiles through a load-generator
// pool, measures the user-perceived availability with confidence intervals
// (internal/telemetry), and prints it next to the equation (10) prediction of
// internal/travelagency.
//
// Usage:
//
//	loadtest                          # steady-state closed-loop run, both classes
//	loadtest -visits 50000 -class a   # bigger run, class A only
//	loadtest -mode campaign -mttr 60  # campaign-driven fault injection
//	loadtest -campaign correlated     # campaign preset: renewal, scripted, correlated
//	loadtest -transport http          # dispatch visits over loopback HTTP
//	loadtest -overload                # paced M/M/i/K buffer-loss sweep
//	loadtest -smoke                   # CI gate: ≥100k visits, fail outside CI
//	loadtest -controller              # closed-loop autoscaler vs static sweep
//	loadtest -controller -smoke       # CI gate: SLO held where all statics fail
//	loadtest -serve 127.0.0.1:9464    # expose /metrics, /traces, /healthz, pprof
//	loadtest -serve :9464 -hold 10m   # keep serving after the run completes
//	loadtest -serve :9464 -trace-out spans.jsonl  # flush span ring on exit/SIGINT
//
// With -serve the run carries a full observability plane: the testbed
// registers its admission, call and fault-plane metrics, every visit is
// exported as a four-level span tree, and a per-class streaming drift
// detector compares the rolling-window measured availability against the
// equation (10) prediction while the run is still in flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/modelspec"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/tracemine"
	"repro/internal/travelagency"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}
}

type config struct {
	visits     int64
	class      string
	workers    int
	seed       int64
	mode       string
	campaign   string
	transport  string
	scale      float64
	rate       float64
	mttr       float64
	horizon    float64
	overload   bool
	smoke      bool
	controller bool
	slo        float64
	keepSteps  bool
	serve      string
	traceOut   string
	traceRing  int
	hold       time.Duration
}

// obsStack bundles the observability plane of a -serve run.
type obsStack struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	server *obs.Server
}

// onServeStarted is a test hook invoked with the bound listen address.
var onServeStarted func(addr string)

// startObs brings up the observability endpoint — including the kernel_*
// series and the tracemine /discovered and /modeldrift routes, wired against
// the travel-agency specs — and prints where it listens.
func startObs(w io.Writer, addr string, ringCap int) (*obsStack, error) {
	reg := obs.NewRegistry()
	if err := obs.RegisterKernels(reg); err != nil {
		return nil, err
	}
	tracer := obs.NewTracer(ringCap)
	srv := obs.NewServer(reg, tracer)
	p := travelagency.DefaultParams()
	specs := make(map[string]*modelspec.Spec, 2)
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		spec, err := travelagency.SpecForClass(p, class)
		if err != nil {
			return nil, err
		}
		specs[class.String()] = spec
	}
	ep := tracemine.NewEndpoint(tracer, specs, tracemine.Options{}, tracemine.DiffOptions{})
	if err := ep.Install(srv, reg); err != nil {
		return nil, err
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "observability plane on http://%s (/metrics /traces /discovered /modeldrift /healthz /debug/pprof/)\n", bound)
	if onServeStarted != nil {
		onServeStarted(bound)
	}
	return &obsStack{reg: reg, tracer: tracer, server: srv}, nil
}

// attachObs wires one class's collector into the plane: visit spans and
// ta_* metrics via the bridge, plus a streaming drift detector validating the
// run against the analytic prediction. Returns nil without -serve.
func attachObs(w io.Writer, stack *obsStack, col *telemetry.Collector, class travelagency.UserClass, predicted float64) (*obs.DriftDetector, error) {
	if stack == nil {
		return nil, nil
	}
	drift, err := obs.NewDriftDetector(obs.DriftConfig{
		Predicted: predicted,
		OnEvent:   func(ev obs.DriftEvent) { fmt.Fprintf(w, "[%v] %s\n", class, ev) },
	})
	if err != nil {
		return nil, err
	}
	if err := drift.Register(stack.reg, "ta_drift", obs.Label{Key: "class", Value: class.String()}); err != nil {
		return nil, err
	}
	bridge := obs.NewBridge(stack.reg, stack.tracer, drift)
	col.SetOnRecord(bridge.OnVisit)
	return drift, nil
}

// driftVerdict summarizes a detector for the closed-loop tables.
func driftVerdict(drift *obs.DriftDetector) string {
	st := drift.Status()
	if st.WindowFill == 0 {
		return "no observations"
	}
	state := "in band"
	if st.Drifting {
		state = "DRIFTING"
	}
	return fmt.Sprintf("%s — window %.5f ± %.5f, %d event(s)", state, st.Measured, st.HalfWidth, st.Events)
}

// holdServe keeps the observability endpoint alive after the run so scrapers
// (CI, a browsing human) can read the final state.
func holdServe(w io.Writer, stack *obsStack, hold time.Duration) {
	if stack == nil || hold <= 0 {
		return
	}
	fmt.Fprintf(w, "holding observability endpoint for %v\n", hold)
	time.Sleep(hold)
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	fs.SetOutput(w)
	cfg := config{}
	fs.Int64Var(&cfg.visits, "visits", 20000, "visits per user class")
	fs.StringVar(&cfg.class, "class", "both", "user class: a, b or both")
	fs.IntVar(&cfg.workers, "workers", 0, "load-generator workers (0 = auto)")
	fs.Int64Var(&cfg.seed, "seed", 1, "run seed (fixed seed ⇒ reproducible unpaced run)")
	fs.StringVar(&cfg.mode, "mode", "steady", "fault plane: steady (closed-loop validation) or campaign")
	fs.StringVar(&cfg.campaign, "campaign", "renewal", "campaign mode preset: renewal, scripted or correlated")
	fs.StringVar(&cfg.transport, "transport", "direct", "dispatch: direct or http")
	fs.Float64Var(&cfg.scale, "scale", 0, "real seconds per model second (0 = unpaced)")
	fs.Float64Var(&cfg.rate, "rate", 0, "paced visit arrival rate, visits per model second (0 = back to back)")
	fs.Float64Var(&cfg.mttr, "mttr", 60, "campaign mode: mean outage duration, model seconds")
	fs.Float64Var(&cfg.horizon, "horizon", 2000, "campaign mode: fault-injection horizon, model seconds")
	fs.BoolVar(&cfg.overload, "overload", false, "run the paced web-tier overload sweep (Figure 11 knee)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "CI smoke: ≥100k visits across both classes, fail if analytic availability leaves the measured CI")
	fs.BoolVar(&cfg.controller, "controller", false, "closed-loop controller demo: autoscale through a load ramp and zone outage, then sweep static sizes (with -smoke: CI gate)")
	fs.Float64Var(&cfg.slo, "slo", 0.94, "with -controller: user-perceived availability SLO the controller must hold")
	fs.BoolVar(&cfg.keepSteps, "steps", false, "retain per-step traces (latency quantile tables)")
	fs.StringVar(&cfg.serve, "serve", "", "expose /metrics, /traces, /healthz and pprof on this address (empty = off)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -serve: flush the retained span traces to this JSONL file on exit or SIGINT")
	fs.IntVar(&cfg.traceRing, "trace-ring", 512, "with -serve: traces retained in the span ring (size it to the run to keep every visit minable)")
	fs.DurationVar(&cfg.hold, "hold", 0, "with -serve: keep the endpoint alive this long after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var stack *obsStack
	if cfg.serve != "" {
		var err error
		stack, err = startObs(w, cfg.serve, cfg.traceRing)
		if err != nil {
			return err
		}
		stack.server.SetFlushPath(cfg.traceOut)
		// Close also flushes the trace ring, so a completed run persists its
		// spans without needing the signal path.
		defer stack.server.Close()
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go func() {
			sig, ok := <-sigc
			if !ok {
				return
			}
			fmt.Fprintf(w, "\n%v: draining observability plane and flushing traces\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			_ = stack.server.Shutdown(ctx)
			os.Exit(130)
		}()
	}

	p := travelagency.DefaultParams()
	if cfg.controller {
		if cfg.slo <= 0 || cfg.slo >= 1 {
			return fmt.Errorf("SLO %v outside (0, 1)", cfg.slo)
		}
		return runControllerDemo(w, p, cfg, stack)
	}
	if cfg.smoke {
		return runSmoke(w, p, cfg, stack)
	}
	if cfg.overload {
		return runOverload(w, p, cfg, stack)
	}

	classes, err := parseClasses(cfg.class)
	if err != nil {
		return err
	}
	opts := testbed.Options{Scale: cfg.scale}
	if stack != nil {
		opts.Metrics = stack.reg
	}
	switch cfg.transport {
	case "direct":
		opts.Transport = testbed.Direct
	case "http":
		opts.Transport = testbed.HTTP
	default:
		return fmt.Errorf("unknown transport %q (want direct or http)", cfg.transport)
	}
	var campaign resilience.Campaign
	switch cfg.mode {
	case "steady":
	case "campaign":
		campaign, err = testbed.PresetCampaign(cfg.campaign, p, cfg.horizon, cfg.mttr)
		if err != nil {
			return err
		}
		opts.Campaign = &campaign
	default:
		return fmt.Errorf("unknown mode %q (want steady or campaign)", cfg.mode)
	}

	cluster, err := testbed.New(p, opts)
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Each class gets a disjoint visit-ID range so spans flushed to JSONL
	// keep one trace per visit (trace IDs are visit IDs).
	for i, class := range classes {
		if err := runClass(w, cluster, p, class, cfg, stack, int64(i)*cfg.visits); err != nil {
			return err
		}
	}
	holdServe(w, stack, cfg.hold)
	return nil
}

func parseClasses(s string) ([]travelagency.UserClass, error) {
	switch s {
	case "a", "A":
		return []travelagency.UserClass{travelagency.ClassA}, nil
	case "b", "B":
		return []travelagency.UserClass{travelagency.ClassB}, nil
	case "both":
		return []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB}, nil
	default:
		return nil, fmt.Errorf("unknown class %q (want a, b or both)", s)
	}
}

// runClass loads one user class and prints the measurement next to the
// analytic prediction.
func runClass(w io.Writer, cluster *testbed.Cluster, p travelagency.Params, class travelagency.UserClass, cfg config, stack *obsStack, offset int64) error {
	analytic, err := travelagency.Evaluate(p, class)
	if err != nil {
		return err
	}
	col := telemetry.NewCollector(32)
	drift, err := attachObs(w, stack, col, class, analytic.UserAvailability)
	if err != nil {
		return err
	}
	gen := testbed.LoadGen{
		Cluster:   cluster,
		Class:     class,
		Visits:    cfg.visits,
		Workers:   cfg.workers,
		Seed:      cfg.seed,
		Offset:    offset,
		Rate:      cfg.rate,
		KeepSteps: cfg.keepSteps,
	}
	if err := gen.Run(col); err != nil {
		return err
	}
	s, err := col.Summary()
	if err != nil {
		return err
	}

	mode := "steady state"
	if cfg.mode == "campaign" {
		mode = fmt.Sprintf("campaign %q (horizon %g s, MTTR %g s)", cfg.campaign, cfg.horizon, cfg.mttr)
	}
	t := report.NewTable(
		fmt.Sprintf("User-perceived availability, %v — %s, %d visits", class, mode, s.Visits),
		"measure", "value")
	t.MustAddRow("measured availability", report.Fixed(s.Availability, 5))
	t.MustAddRow("95% CI half-width", report.Fixed(s.CI95.HalfWidth, 5))
	t.MustAddRow("analytic eq. (10)", report.Fixed(analytic.UserAvailability, 5))
	if cfg.mode == "steady" {
		verdict := "within 95% CI"
		if !s.CI95.Contains(analytic.UserAvailability) {
			verdict = "OUTSIDE 95% CI"
		}
		t.MustAddRow("closed-loop verdict", verdict)
	} else {
		t.MustAddRow("closed-loop verdict", "n/a (campaign faults need not match steady state)")
	}
	if drift != nil {
		t.MustAddRow("live drift detector", driftVerdict(drift))
	}
	t.MustAddRow("mean visit duration", fmt.Sprintf("%s s", report.Fixed(s.MeanVisitDuration, 4)))
	if err := t.Render(w); err != nil {
		return err
	}

	ft := report.NewTable(
		fmt.Sprintf("Function availability, %v — measured vs Table 6", class),
		"function", "invocations", "measured", "analytic", "delta")
	for _, fn := range []string{
		travelagency.FnHome, travelagency.FnBrowse, travelagency.FnSearch,
		travelagency.FnBook, travelagency.FnPay,
	} {
		fs, ok := s.Functions[fn]
		if !ok {
			continue
		}
		ft.MustAddRow(fn,
			fmt.Sprintf("%d", fs.Invocations),
			report.Fixed(fs.Availability, 5),
			report.Fixed(analytic.Functions[fn], 5),
			report.Scientific(fs.Availability-analytic.Functions[fn], 2))
	}
	if err := ft.Render(w); err != nil {
		return err
	}

	if len(s.Causes) > 0 {
		ct := report.NewTable(
			fmt.Sprintf("Failed visits by cause, %v", class), "cause", "visits")
		if n := s.Causes[telemetry.CauseResourceDown]; n > 0 {
			ct.MustAddRow("resource down", fmt.Sprintf("%d", n))
		}
		if n := s.Causes[telemetry.CauseBufferOverflow]; n > 0 {
			ct.MustAddRow("web buffer overflow", fmt.Sprintf("%d", n))
		}
		for _, svc := range []string{
			travelagency.SvcInternet, travelagency.SvcLAN, travelagency.SvcWeb,
			travelagency.SvcApp, travelagency.SvcDB, travelagency.SvcFlight,
			travelagency.SvcHotel, travelagency.SvcCar, travelagency.SvcPayment,
		} {
			if n := s.DownByService[svc]; n > 0 {
				ct.MustAddRow("  └ "+svc+" down", fmt.Sprintf("%d", n))
			}
		}
		if err := ct.Render(w); err != nil {
			return err
		}
	}

	if cfg.keepSteps {
		lt := report.NewTable(
			fmt.Sprintf("Step latency quantiles, %v (model seconds)", class),
			"function", "p50", "p95", "p99", "max")
		for _, fn := range []string{
			travelagency.FnHome, travelagency.FnBrowse, travelagency.FnSearch,
			travelagency.FnBook, travelagency.FnPay,
		} {
			qs, err := col.LatencyQuantiles(fn, 0.5, 0.95, 0.99)
			if err != nil {
				continue
			}
			lt.MustAddRow(fn,
				report.Scientific(qs[0], 2), report.Scientific(qs[1], 2),
				report.Scientific(qs[2], 2), report.Scientific(col.StepLatency().Max(), 2))
		}
		if lt.NumRows() > 0 {
			if err := lt.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOverload paces the cluster and sweeps the web tier past the M/M/i/K
// knee, comparing measured buffer-loss fractions against equation (3).
func runOverload(w io.Writer, p travelagency.Params, cfg config, stack *obsStack) error {
	scale := cfg.scale
	if scale <= 0 {
		scale = 0.1
	}
	opts := testbed.Options{Scale: scale}
	if stack != nil {
		opts.Metrics = stack.reg
	}
	cluster, err := testbed.New(p, opts)
	if err != nil {
		return err
	}
	defer cluster.Close()

	t := report.NewTable(
		fmt.Sprintf("Web-tier overload sweep — measured vs M/M/%d/%d loss (scale %g)",
			p.WebServers, p.BufferSize, scale),
		"arrival rate α", "requests", "measured loss", "analytic p_K")
	for _, alpha := range []float64{100, 200, 400, 600, 800} {
		requests := cfg.visits / 10
		if requests < 400 {
			requests = 400
		}
		loss, err := cluster.WebLoad(requests, alpha, cfg.seed)
		if err != nil {
			return err
		}
		pk, err := (queueing.MMcK{
			Arrival: alpha, Service: p.ServiceRate,
			Servers: p.WebServers, Capacity: p.BufferSize,
		}).LossProbability()
		if err != nil {
			return err
		}
		t.MustAddRow(
			fmt.Sprintf("%g/s", alpha),
			fmt.Sprintf("%d", requests),
			report.Fixed(loss, 4),
			report.Fixed(pk, 4))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	holdServe(w, stack, cfg.hold)
	return nil
}

// runSmoke is the CI gate: a deterministic unpaced run of ≥100k visits
// across both classes whose measured availability must bracket the analytic
// prediction.
func runSmoke(w io.Writer, p travelagency.Params, cfg config, stack *obsStack) error {
	const visitsPerClass = 55000
	opts := testbed.Options{}
	if stack != nil {
		opts.Metrics = stack.reg
	}
	cluster, err := testbed.New(p, opts)
	if err != nil {
		return err
	}
	defer cluster.Close()

	t := report.NewTable(
		fmt.Sprintf("Smoke run — %d visits per class, seed %d", int64(visitsPerClass), cfg.seed),
		"class", "measured", "± CI95", "analytic", "|z|", "verdict")
	var failed bool
	var total int64
	for i, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		analytic, err := travelagency.Evaluate(p, class)
		if err != nil {
			return err
		}
		col := telemetry.NewCollector(0)
		if _, err := attachObs(w, stack, col, class, analytic.UserAvailability); err != nil {
			return err
		}
		gen := testbed.LoadGen{
			Cluster: cluster, Class: class,
			Visits: visitsPerClass, Workers: cfg.workers, Seed: cfg.seed,
			Offset:    int64(i) * visitsPerClass,
			KeepSteps: cfg.keepSteps,
		}
		if err := gen.Run(col); err != nil {
			return err
		}
		s, err := col.Summary()
		if err != nil {
			return err
		}
		total += s.Visits
		z := math.Abs(s.Availability-analytic.UserAvailability) /
			(s.CI95.HalfWidth / 1.959963984540054)
		verdict := "within CI"
		if !s.CI95.Contains(analytic.UserAvailability) {
			verdict = "OUTSIDE CI"
			failed = true
		}
		t.MustAddRow(class.String(),
			report.Fixed(s.Availability, 5),
			report.Fixed(s.CI95.HalfWidth, 5),
			report.Fixed(analytic.UserAvailability, 5),
			report.Fixed(z, 2),
			verdict)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d visits total\n", total)
	if failed {
		return fmt.Errorf("closed-loop smoke failed: analytic availability outside the measured 95%% CI")
	}
	holdServe(w, stack, cfg.hold)
	return nil
}
