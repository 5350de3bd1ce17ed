package tracemine

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/interaction"
	"repro/internal/obs"
	"repro/internal/opprofile"
	"repro/internal/stats"
)

// Options tunes the miner.
type Options struct {
	// Clusters is the number of session clusters used to split visits that
	// carry no user-class attr (default 2, the paper's class A / class B).
	Clusters int
}

func (o Options) clusters() int {
	if o.Clusters <= 0 {
		return 2
	}
	return o.Clusters
}

// Estimate is one mined probability: a success count over a trial count,
// with the maximum-likelihood point estimate. Confidence bounds come from
// the Agresti–Coull adjusted-Wald interval (CIAt); Low/High cache the 95%
// band for reports.
type Estimate struct {
	Successes int64   `json:"successes"`
	Trials    int64   `json:"trials"`
	P         float64 `json:"p"`
	Low       float64 `json:"low"`
	High      float64 `json:"high"`
}

func newEstimate(successes, trials int64) Estimate {
	e := Estimate{Successes: successes, Trials: trials}
	if trials > 0 {
		e.P = float64(successes) / float64(trials)
		if iv, err := stats.AdjustedWald(successes, trials, 0.95); err == nil {
			e.Low, e.High = clamp01(iv.Low()), clamp01(iv.High())
		}
	}
	return e
}

// CIAt returns the adjusted-Wald interval widened to z standard errors —
// the band the diff engine tests specified values against.
func (e Estimate) CIAt(z float64) (stats.Interval, error) {
	return stats.AdjustedWaldZ(e.Successes, e.Trials, z)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Profile is the discovered operational profile of one user class (or one
// session cluster when classes were not stamped on the traces).
type Profile struct {
	// Class is the class attr value, or "cluster-N" for clustered visits.
	Class string `json:"class"`
	// Clustered marks profiles produced by session clustering rather than
	// an explicit class attr.
	Clustered bool `json:"clustered,omitempty"`
	// Visits is the number of visits behind the estimates.
	Visits int64 `json:"visits"`
	// Availability is the visit-level success fraction — the empirical
	// counterpart of the user-perceived availability of eq. (10).
	Availability Estimate `json:"availability"`
	// Scenarios maps canonical scenario keys (sorted function names joined
	// by "+") to their probability estimates π̂_i.
	Scenarios map[string]Estimate `json:"scenarios"`
	// ScenarioFunctions records each scenario's functions in invocation
	// order (first observation wins).
	ScenarioFunctions map[string][]string `json:"scenario_functions"`
	// Transitions holds the function-level transition estimates of the
	// profile graph, with opprofile.Start / opprofile.Exit boundaries.
	Transitions map[string]map[string]Estimate `json:"transitions"`
}

// Graph converts the discovered transition estimates into an
// opprofile.Profile (rows renormalized from the raw counts).
func (p *Profile) Graph() (*opprofile.Profile, error) {
	weights := make(map[string]map[string]float64, len(p.Transitions))
	for from, row := range p.Transitions {
		w := make(map[string]float64, len(row))
		for to, e := range row {
			w[to] = float64(e.Successes)
		}
		weights[from] = w
	}
	return opprofile.FromTransitions(weights)
}

// Diagram is the discovered interaction diagram of one function, aggregated
// over all classes (the diagram is a property of the implementation, not of
// the user mix).
type Diagram struct {
	Function string `json:"function"`
	// Invocations counts function-level spans; Availability is their
	// success fraction.
	Invocations  int64    `json:"invocations"`
	Availability Estimate `json:"availability"`
	// Steps counts executions per step; StepServices is the union of
	// services observed on each step's resource spans (sorted).
	Steps        map[string]int64    `json:"steps,omitempty"`
	StepServices map[string][]string `json:"step_services,omitempty"`
	// Transitions holds branch-probability estimates q̂_ij with
	// interaction.Begin / interaction.End boundaries. Failed walks censor
	// their final outgoing edge (the walk aborted, so no edge was taken);
	// Censored counts them.
	Transitions map[string]map[string]Estimate `json:"transitions,omitempty"`
	Censored    int64                          `json:"censored,omitempty"`
}

// Graph converts the discovered step graph into an interaction.Diagram.
func (d *Diagram) Graph() (*interaction.Diagram, error) {
	if len(d.Steps) == 0 {
		return nil, fmt.Errorf("%w: function %q has no observed steps", ErrMine, d.Function)
	}
	steps := make(map[string][]string, len(d.Steps))
	for step := range d.Steps {
		steps[step] = d.StepServices[step]
	}
	weights := make(map[string]map[string]float64, len(d.Transitions))
	for from, row := range d.Transitions {
		w := make(map[string]float64, len(row))
		for to, e := range row {
			w[to] = float64(e.Successes)
		}
		weights[from] = w
	}
	return interaction.FromObservations(d.Function, steps, weights)
}

// Service is the discovered view of one service: call volume, all-cause
// empirical availability and the failure-cause mix.
type Service struct {
	Name     string `json:"name"`
	Calls    int64  `json:"calls"`
	Failures int64  `json:"failures"`
	// Availability is the all-cause success fraction of the service's
	// resource spans. Note this is an *effective* availability: admission
	// losses (buffer overflow) count against the serving tier exactly as in
	// the composite performance-availability model of the spec.
	Availability Estimate `json:"availability"`
	// Causes histograms the Cause field of failed calls.
	Causes map[string]int64 `json:"causes,omitempty"`
}

// Discovery is the full mined model.
type Discovery struct {
	Read     ReadStats           `json:"read"`
	Fold     FoldStats           `json:"fold"`
	Visits   int64               `json:"visits"`
	Profiles map[string]*Profile `json:"profiles"`
	Diagrams map[string]*Diagram `json:"diagrams"`
	Services map[string]*Service `json:"services"`
}

// MineJSONL reads spans from r (tolerantly; see ReadSpans) and mines them.
func MineJSONL(r io.Reader, opts Options) (*Discovery, error) {
	traces, rs, err := ReadSpans(r)
	if err != nil {
		return nil, err
	}
	d := Mine(traces, opts)
	d.Read = rs
	return d, nil
}

// Mine folds span traces into visit trees and estimates the model. The Read
// stats of the result reflect span and trace counts only (no line
// accounting — the traces never crossed the JSONL format).
func Mine(traces []obs.Trace, opts Options) *Discovery {
	visits, fs := Fold(traces)
	d := mine(visits, fs, opts)
	d.Read.Traces = int64(len(traces))
	for _, tr := range traces {
		d.Read.Spans += int64(len(tr.Spans))
	}
	return d
}

// visitSig is a visit's distinct function names in invocation order
// (repeats collapse onto their first occurrence, matching the
// scenario-class semantics of Table 1) and their scenario key.
type visitSig struct {
	fns []string
	key string
}

// maxScanFunctions is the longest function list whose repeats are found by
// scanning the names kept so far; a longer one uses a set, so a hostile
// visit cannot make the scan quadratic.
const maxScanFunctions = 32

// signatures computes every visit's signature once. The name lists are
// carved from one shared slice.
func signatures(visits []Visit) []visitSig {
	sigs := make([]visitSig, len(visits))
	var names []string
	for i := range visits {
		fns := visits[i].Functions
		start := len(names)
		var seen map[string]bool
		if len(fns) > maxScanFunctions {
			seen = make(map[string]bool, len(fns))
		}
		for j := range fns {
			name := fns[j].Name
			if seen != nil {
				if seen[name] {
					continue
				}
				seen[name] = true
			} else if slices.Contains(names[start:], name) {
				continue
			}
			names = append(names, name)
		}
		distinct := names[start:len(names):len(names)]
		sigs[i] = visitSig{fns: distinct, key: opprofile.ScenarioKey(distinct)}
	}
	return sigs
}

// profileAcc accumulates raw counts for one class before estimates are cut.
type profileAcc struct {
	clustered   bool
	visits      int64
	ok          int64
	scenarios   map[string]int64
	scenarioFns map[string][]string
	transitions map[string]map[string]int64
	fromTotals  map[string]int64
}

func newProfileAcc(clustered bool) *profileAcc {
	return &profileAcc{
		clustered:   clustered,
		scenarios:   make(map[string]int64),
		scenarioFns: make(map[string][]string),
		transitions: make(map[string]map[string]int64),
		fromTotals:  make(map[string]int64),
	}
}

func (a *profileAcc) addVisit(sig visitSig, ok bool) {
	a.visits++
	if ok {
		a.ok++
	}
	a.scenarios[sig.key]++
	if _, seen := a.scenarioFns[sig.key]; !seen {
		a.scenarioFns[sig.key] = append([]string(nil), sig.fns...)
	}
	from := opprofile.Start
	for _, to := range sig.fns {
		a.edge(from, to)
		from = to
	}
	a.edge(from, opprofile.Exit)
}

func (a *profileAcc) edge(from, to string) {
	row := a.transitions[from]
	if row == nil {
		row = make(map[string]int64)
		a.transitions[from] = row
	}
	row[to]++
	a.fromTotals[from]++
}

func (a *profileAcc) profile(class string) *Profile {
	p := &Profile{
		Class:             class,
		Clustered:         a.clustered,
		Visits:            a.visits,
		Availability:      newEstimate(a.ok, a.visits),
		Scenarios:         make(map[string]Estimate, len(a.scenarios)),
		ScenarioFunctions: a.scenarioFns,
		Transitions:       make(map[string]map[string]Estimate, len(a.transitions)),
	}
	for key, n := range a.scenarios {
		p.Scenarios[key] = newEstimate(n, a.visits)
	}
	for from, row := range a.transitions {
		out := make(map[string]Estimate, len(row))
		for to, n := range row {
			out[to] = newEstimate(n, a.fromTotals[from])
		}
		p.Transitions[from] = out
	}
	return p
}

// diagramAcc accumulates step-walk counts for one function.
type diagramAcc struct {
	invocations int64
	ok          int64
	censored    int64
	steps       map[string]int64
	services    map[string]map[string]bool
	transitions map[string]map[string]int64
	fromTotals  map[string]int64
}

func newDiagramAcc() *diagramAcc {
	return &diagramAcc{
		steps:       make(map[string]int64),
		services:    make(map[string]map[string]bool),
		transitions: make(map[string]map[string]int64),
		fromTotals:  make(map[string]int64),
	}
}

func (a *diagramAcc) edge(from, to string) {
	row := a.transitions[from]
	if row == nil {
		row = make(map[string]int64)
		a.transitions[from] = row
	}
	row[to]++
	a.fromTotals[from]++
}

func (a *diagramAcc) addWalk(fn VisitFunction) {
	a.invocations++
	if fn.OK {
		a.ok++
	}
	if len(fn.Steps) == 0 {
		return
	}
	prev := interaction.Begin
	for _, st := range fn.Steps {
		a.steps[st.Name]++
		svcs := a.services[st.Name]
		if svcs == nil {
			svcs = make(map[string]bool)
			a.services[st.Name] = svcs
		}
		for _, res := range st.Resources {
			svcs[res.Service] = true
		}
		a.edge(prev, st.Name)
		prev = st.Name
	}
	if fn.OK {
		a.edge(prev, interaction.End)
	} else {
		// The walk aborted at a failed step: its outgoing branch was never
		// taken, so counting an End edge here would bias q̂ toward End.
		a.censored++
	}
}

func (a *diagramAcc) diagram(fn string) *Diagram {
	d := &Diagram{
		Function:     fn,
		Invocations:  a.invocations,
		Availability: newEstimate(a.ok, a.invocations),
		Censored:     a.censored,
	}
	if len(a.steps) > 0 {
		d.Steps = a.steps
		d.StepServices = make(map[string][]string, len(a.services))
		for step, set := range a.services {
			svcs := make([]string, 0, len(set))
			for svc := range set {
				svcs = append(svcs, svc)
			}
			sort.Strings(svcs)
			d.StepServices[step] = svcs
		}
		d.Transitions = make(map[string]map[string]Estimate, len(a.transitions))
		for from, row := range a.transitions {
			out := make(map[string]Estimate, len(row))
			for to, n := range row {
				out[to] = newEstimate(n, a.fromTotals[from])
			}
			d.Transitions[from] = out
		}
	}
	return d
}

func mine(visits []Visit, fs FoldStats, opts Options) *Discovery {
	d := &Discovery{
		Fold:     fs,
		Visits:   int64(len(visits)),
		Profiles: make(map[string]*Profile),
		Diagrams: make(map[string]*Diagram),
		Services: make(map[string]*Service),
	}

	// Visits without a class attr are split by session clustering over
	// their scenario signatures.
	sigs := signatures(visits)
	var unclassed map[string]int64
	for i := range visits {
		if visits[i].Class == "" {
			if unclassed == nil {
				unclassed = make(map[string]int64)
			}
			unclassed[sigs[i].key]++
		}
	}
	var clusterOf map[string]int
	if len(unclassed) > 0 {
		counts := make(map[string]int, len(unclassed))
		for key, n := range unclassed {
			counts[key] = int(n)
		}
		clusterOf = clusterKeys(counts, opts.clusters())
	}

	profiles := make(map[string]*profileAcc)
	diagrams := make(map[string]*diagramAcc)
	type svcAcc struct {
		calls, failures int64
		causes          map[string]int64
	}
	services := make(map[string]*svcAcc)

	for i := range visits {
		v := &visits[i]
		class := v.Class
		clustered := false
		if class == "" {
			class = fmt.Sprintf("cluster-%d", clusterOf[sigs[i].key])
			clustered = true
		}
		acc := profiles[class]
		if acc == nil {
			acc = newProfileAcc(clustered)
			profiles[class] = acc
		}
		acc.addVisit(sigs[i], v.OK)

		for _, fn := range v.Functions {
			da := diagrams[fn.Name]
			if da == nil {
				da = newDiagramAcc()
				diagrams[fn.Name] = da
			}
			da.addWalk(fn)
			for _, st := range fn.Steps {
				for _, res := range st.Resources {
					sa := services[res.Service]
					if sa == nil {
						sa = &svcAcc{causes: make(map[string]int64)}
						services[res.Service] = sa
					}
					sa.calls++
					if !res.OK {
						sa.failures++
						cause := res.Cause
						if cause == "" {
							cause = "unknown"
						}
						sa.causes[cause]++
					}
				}
			}
		}
	}

	for class, acc := range profiles {
		d.Profiles[class] = acc.profile(class)
	}
	for fn, acc := range diagrams {
		d.Diagrams[fn] = acc.diagram(fn)
	}
	for name, acc := range services {
		svc := &Service{
			Name:         name,
			Calls:        acc.calls,
			Failures:     acc.failures,
			Availability: newEstimate(acc.calls-acc.failures, acc.calls),
		}
		if len(acc.causes) > 0 {
			svc.Causes = acc.causes
		}
		d.Services[name] = svc
	}
	return d
}
