// Command resilience sweeps recovery policies over the travel-agency model
// under time-dependent fault injection. Where the paper's steady-state
// evaluation freezes every service at its availability, here each
// interaction-diagram step executes at a concrete instant against injected
// outage timelines (alternating-renewal per service, mean outage duration
// -mttr), and the recovery policy — retry with backoff, failover to alternate
// suppliers, degraded mode, timeouts, circuit breaking — decides what the
// user perceives. The baseline rows recover the paper's numbers; the policy
// rows quantify what each mechanism buys on top.
//
// Usage:
//
//	resilience -visits 20000 -seed 1 -mttr 300 -class both
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/interaction"
	"repro/internal/opprofile"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/travelagency"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "resilience:", err)
		os.Exit(1)
	}
}

// All times are in seconds.
const (
	horizon     = 14400 // 4h fault window per visit realization
	stepLatency = 1     // base execution time of one diagram step
)

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("resilience", flag.ContinueOnError)
	var (
		visits = fs.Int64("visits", 20000, "user visits per policy row")
		seed   = fs.Int64("seed", 1, "random seed")
		mttr   = fs.Float64("mttr", 300, "mean outage duration in seconds")
		class  = fs.String("class", "both", `user class "A", "B" or "both"`)
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mttr <= 0 {
		return fmt.Errorf("mttr %v must be positive", *mttr)
	}
	var classes []travelagency.UserClass
	switch *class {
	case "A", "a":
		classes = []travelagency.UserClass{travelagency.ClassA}
	case "B", "b":
		classes = []travelagency.UserClass{travelagency.ClassB}
	case "both":
		classes = []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB}
	default:
		return fmt.Errorf("unknown class %q", *class)
	}
	params := travelagency.DefaultParams()
	for i, cl := range classes {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := policyTable(w, params, cl, *visits, *mttr, *seed); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	if err := latencyTable(w, params, classes[0], *visits, *seed); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return analyticTable(w, params, *mttr)
}

// renewalCampaign turns a service-availability map into an alternating-
// renewal fault campaign with the given mean outage duration.
func renewalCampaign(avail map[string]float64, mttr float64) (resilience.Campaign, error) {
	specs := make(map[string]resilience.FaultSpec, len(avail))
	for svc, a := range avail {
		ren, err := resilience.RenewalFromAvailability(a, mttr)
		if err != nil {
			return resilience.Campaign{}, fmt.Errorf("service %q: %w", svc, err)
		}
		specs[svc] = resilience.FaultSpec{Renewal: &ren}
	}
	return resilience.Campaign{Horizon: horizon, Services: specs}, nil
}

// supplierReplicas names the failover alternates of the three reservation
// suppliers and returns the campaign with every replica injected at the
// per-system availability (the paper folds these into a 1-of-N service; the
// split form lets the failover policy earn that bracket explicitly).
func splitSuppliers(params travelagency.Params, avail map[string]float64, mttr float64) (resilience.Campaign, map[string][]string, error) {
	split := make(map[string]float64, len(avail))
	for svc, a := range avail {
		split[svc] = a
	}
	failover := make(map[string][]string)
	suppliers := []struct {
		svc   string
		n     int
		perSy float64
	}{
		{travelagency.SvcFlight, params.FlightSystems, params.FlightSystemAvailability},
		{travelagency.SvcHotel, params.HotelSystems, params.HotelSystemAvailability},
		{travelagency.SvcCar, params.CarSystems, params.CarSystemAvailability},
	}
	for _, s := range suppliers {
		split[s.svc] = s.perSy
		for i := 2; i <= s.n; i++ {
			alt := fmt.Sprintf("%s#%d", s.svc, i)
			split[alt] = s.perSy
			failover[s.svc] = append(failover[s.svc], alt)
		}
	}
	campaign, err := renewalCampaign(split, mttr)
	return campaign, failover, err
}

func policyTable(w io.Writer, params travelagency.Params, class travelagency.UserClass, visits int64, mttr float64, seed int64) error {
	fit, err := travelagency.FitProfile(class)
	if err != nil {
		return err
	}
	profile := fit.Profile
	diagrams, err := travelagency.Diagrams(params)
	if err != nil {
		return err
	}
	avail, err := travelagency.ServiceAvailabilities(params)
	if err != nil {
		return err
	}
	analytic, err := analyticUserAvailability(params, class, profile)
	if err != nil {
		return err
	}

	folded, err := renewalCampaign(avail, mttr)
	if err != nil {
		return err
	}
	split, failover, err := splitSuppliers(params, avail, mttr)
	if err != nil {
		return err
	}
	retry := &resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 2, Multiplier: 2, MaxDelay: 30, Jitter: 0.1}
	degraded := map[string][]string{travelagency.FnBrowse: {travelagency.SvcDB}}
	rows := []struct {
		name     string
		campaign resilience.Campaign
		policy   resilience.Policy
	}{
		{"no policy (paper semantics)", folded, resilience.Policy{}},
		{"retry x3 exp backoff", folded, resilience.Policy{Retry: retry}},
		{"retry + degraded Browse", folded, resilience.Policy{Retry: retry, Degraded: degraded}},
		{"single supplier, no failover", split, resilience.Policy{}},
		{"single supplier + failover", split, resilience.Policy{Failover: failover}},
		{"full: retry+failover+degraded+breaker", split, resilience.Policy{
			Retry:    retry,
			Failover: failover,
			Degraded: degraded,
			Breaker:  &resilience.BreakerPolicy{FailureThreshold: 3, OpenDuration: 60},
		}},
	}

	tbl := report.NewTable(
		fmt.Sprintf("Resilience-policy sweep, %v (%d visits, seed %d, mttr %gs)", class, visits, seed, mttr),
		"policy", "A(user)", "±95%", "Δ vs analytic", "rescued", "degraded", "mean visit (s)")
	tbl.MustAddRow("paper analytic (no recovery)", report.Fixed(analytic, 6), "—", "—", "—", "—", "—")
	for _, row := range rows {
		s := sim.TimedVisitSimulator{
			Profile:     profile,
			Diagrams:    diagrams,
			Campaign:    row.campaign,
			Policy:      row.policy,
			StepLatency: stepLatency,
		}
		res, err := s.Run(visits, seed)
		if err != nil {
			return fmt.Errorf("policy %q: %w", row.name, err)
		}
		n := float64(res.Visits)
		tbl.MustAddRow(row.name,
			report.Fixed(res.Availability, 6),
			report.Scientific(res.CI95.HalfWidth, 1),
			fmt.Sprintf("%+.6f", res.Availability-analytic),
			report.Percent(float64(res.RescuedVisits)/n, 2),
			report.Percent(float64(res.DegradedVisits)/n, 2),
			report.Fixed(res.MeanVisitDuration, 2))
	}
	return tbl.Render(w)
}

// analyticUserAvailability evaluates the hierarchy model on the fitted
// profile — the closed-form counterpart of the no-policy simulation rows.
func analyticUserAvailability(params travelagency.Params, class travelagency.UserClass, profile *opprofile.Profile) (float64, error) {
	model, err := travelagency.Build(params, class)
	if err != nil {
		return 0, err
	}
	if err := model.SetProfile(profile); err != nil {
		return 0, err
	}
	rep, err := model.Evaluate()
	if err != nil {
		return 0, err
	}
	return rep.UserAvailability, nil
}

// latencyTable demonstrates timeouts under a scripted campaign: the web
// service suffers a 30s latency spike for a 20-minute window. Without a
// timeout the user waits out the spike (availability intact, visits slow);
// with one, spiked steps are cut off at the deadline and fail fast.
func latencyTable(w io.Writer, params travelagency.Params, class travelagency.UserClass, visits int64, seed int64) error {
	fit, err := travelagency.FitProfile(class)
	if err != nil {
		return err
	}
	profile := fit.Profile
	diagrams, err := travelagency.Diagrams(params)
	if err != nil {
		return err
	}
	campaign := resilience.Campaign{
		Horizon: horizon,
		Services: map[string]resilience.FaultSpec{
			travelagency.SvcWeb: {Latency: []resilience.LatencySpike{
				{Window: resilience.Window{Start: 600, End: 1800}, Extra: 30},
			}},
		},
	}
	rows := []struct {
		name   string
		policy resilience.Policy
	}{
		{"no timeout (wait out the spike)", resilience.Policy{}},
		{"timeout 10s", resilience.Policy{Timeout: 10}},
		{"timeout 10s + retry x3", resilience.Policy{
			Timeout: 10,
			Retry:   &resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 2, Multiplier: 2},
		}},
	}
	tbl := report.NewTable(
		fmt.Sprintf("Scripted latency spike on %s (30s extra, window [600s,1800s), %v, %d visits)",
			travelagency.SvcWeb, class, visits),
		"policy", "A(user)", "±95%", "timeout steps", "mean visit (s)")
	for _, row := range rows {
		s := sim.TimedVisitSimulator{
			Profile:     profile,
			Diagrams:    diagrams,
			Campaign:    campaign,
			Policy:      row.policy,
			StepLatency: stepLatency,
		}
		res, err := s.Run(visits, seed)
		if err != nil {
			return fmt.Errorf("policy %q: %w", row.name, err)
		}
		tbl.MustAddRow(row.name,
			report.Fixed(res.Availability, 6),
			report.Scientific(res.CI95.HalfWidth, 1),
			fmt.Sprintf("%d", res.TimeoutSteps),
			report.Fixed(res.MeanVisitDuration, 2))
	}
	return tbl.Render(w)
}

// analyticTable prints the closed-form counterparts of the policy mechanisms
// for one representative service (a reservation supplier, per-system
// availability from Table 7).
func analyticTable(w io.Writer, params travelagency.Params, mttr float64) error {
	a := params.FlightSystemAvailability
	ren, err := resilience.RenewalFromAvailability(a, mttr)
	if err != nil {
		return err
	}
	retry := resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 2, Multiplier: 2, MaxDelay: 30}
	spacings := retry.Spacings(stepLatency)

	tbl := report.NewTable(
		fmt.Sprintf("Analytic counterparts (supplier availability %g, mttr %gs)", a, mttr),
		"quantity", "value")
	indep, err := resilience.IndependentRetryAvailability(a, retry.MaxAttempts)
	if err != nil {
		return err
	}
	tbl.MustAddRow("independent-retry bracket 1-(1-A)^3", report.Fixed(indep, 6))
	exact, err := resilience.RetrySuccessProbability(ren, spacings)
	if err != nil {
		return err
	}
	tbl.MustAddRow("exact retry success (renewal-aware)", report.Fixed(exact, 6))
	var wait float64
	for _, d := range spacings {
		wait += d
	}
	rescue, err := resilience.RescueProbability(ren.RepairRate, wait)
	if err != nil {
		return err
	}
	tbl.MustAddRow(fmt.Sprintf("rescue probability within %.0fs wait", wait), report.Fixed(rescue, 6))
	replicas := make([]float64, params.FlightSystems)
	for i := range replicas {
		replicas[i] = a
	}
	bracket, err := interaction.FailoverAvailability(replicas)
	if err != nil {
		return err
	}
	tbl.MustAddRow(fmt.Sprintf("failover bracket 1-of-%d", params.FlightSystems), report.Fixed(bracket, 6))
	for _, k := range []int{2, 3} {
		kofn, err := interaction.KofNAvailability(k, replicas)
		if err != nil {
			return err
		}
		tbl.MustAddRow(fmt.Sprintf("%d-of-%d bracket", k, params.FlightSystems), report.Fixed(kofn, 6))
	}
	return tbl.Render(w)
}
