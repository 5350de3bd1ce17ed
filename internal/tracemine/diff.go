package tracemine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/modelspec"
	"repro/internal/opprofile"
)

// DiffOptions tunes the drift test.
type DiffOptions struct {
	// Z is the adjusted-Wald band multiplier a specified value must fall
	// within (default 3 — the same 3-sigma convention as the obs drift
	// detector, deliberately wider than the 95% reporting interval so the
	// verdict is robust against multiple-comparison false alarms).
	Z float64
	// MinSamples is the evidence threshold: estimates with fewer trials are
	// reported "insufficient" instead of judged (default 50).
	MinSamples int64
}

func (o DiffOptions) z() float64 {
	if o.Z <= 0 || math.IsNaN(o.Z) {
		return 3
	}
	return o.Z
}

func (o DiffOptions) minSamples() int64 {
	if o.MinSamples <= 0 {
		return 50
	}
	return o.MinSamples
}

// Edge statuses.
const (
	StatusOK           = "ok"           // specified value inside the discovered band
	StatusDrift        = "drift"        // specified value outside the band
	StatusMissing      = "missing"      // specified with mass, never observed
	StatusExtra        = "extra"        // observed with mass, not specified
	StatusInsufficient = "insufficient" // too few trials to judge
)

// Verdicts.
const (
	VerdictConsistent = "consistent"
	VerdictDrifted    = "drifted"
)

// Edge is one judged comparison between the discovered model and the spec.
type Edge struct {
	// Kind is one of scenario, transition, branch, step, step-service,
	// service or function.
	Kind string `json:"kind"`
	// Class scopes user-level comparisons; empty for structural ones.
	Class string `json:"class,omitempty"`
	// Function scopes diagram-level comparisons.
	Function string `json:"function,omitempty"`
	// From/To identify transition and branch edges; Name identifies
	// scenario, step and service comparisons.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	Name string `json:"name,omitempty"`
	// Specified and Observed are the compared probabilities; Low/High the
	// adjusted-Wald band at Z the specified value was tested against.
	Specified float64 `json:"specified"`
	Observed  float64 `json:"observed"`
	Low       float64 `json:"low"`
	High      float64 `json:"high"`
	// Trials is the sample size behind the observation.
	Trials int64  `json:"trials"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// String renders the edge for drift listings, naming the offending
// comparison precisely.
func (e Edge) String() string {
	var loc string
	switch {
	case e.From != "" || e.To != "":
		loc = e.From + "→" + e.To
		if e.Function != "" {
			loc = e.Function + ": " + loc
		}
	default:
		loc = e.Name
		if e.Function != "" {
			loc = e.Function + ": " + loc
		}
	}
	if e.Class != "" {
		loc += " (" + e.Class + ")"
	}
	s := fmt.Sprintf("%s %s [%s]: specified %.4f, observed %.4f ± [%.4f, %.4f] over %d trials",
		e.Kind, loc, e.Status, e.Specified, e.Observed, e.Low, e.High, e.Trials)
	if e.Detail != "" {
		s += " — " + e.Detail
	}
	return s
}

// Report is the outcome of one discovered-vs-specified diff.
type Report struct {
	Verdict      string  `json:"verdict"`
	Z            float64 `json:"z"`
	MinSamples   int64   `json:"min_samples"`
	Checked      int     `json:"checked"`
	Drifted      int     `json:"drifted"`
	Insufficient int     `json:"insufficient"`
	// Edges lists every comparison, deterministically ordered; Drift lists
	// only the offenders (drift, missing and extra edges).
	Edges []Edge `json:"edges"`
	Drift []Edge `json:"drift,omitempty"`
}

// differ carries the options through one diff run.
type differ struct {
	z    float64
	minN int64
	out  []Edge
}

// judge classifies one estimate against its specified value and records the
// edge. Extra and missing edges are judged by the same band test — an edge
// with specified 0 (or observation 0) drifts exactly when the band excludes
// the specified value — but keep their structural status for readability.
func (df *differ) judge(e Edge, est Estimate) {
	e.Observed = est.P
	e.Trials = est.Trials
	if est.Trials < df.minN {
		e.Status = StatusInsufficient
		e.Low, e.High = est.Low, est.High
		df.out = append(df.out, e)
		return
	}
	iv, err := est.CIAt(df.z)
	if err != nil {
		e.Status = StatusInsufficient
		df.out = append(df.out, e)
		return
	}
	e.Low, e.High = clamp01(iv.Low()), clamp01(iv.High())
	switch {
	case e.Specified >= e.Low && e.Specified <= e.High:
		e.Status = StatusOK
	case e.Status == StatusMissing || e.Status == StatusExtra:
		// keep the structural status set by the caller
	default:
		e.Status = StatusDrift
	}
	df.out = append(df.out, e)
}

// Diff compares a discovery against hand-specified models, one spec per user
// class. Lookup order for a discovered class: exact key, then the "" key,
// then — when exactly one spec was given — that spec. Structural levels
// (diagrams, services) are class-independent and are compared against the
// primary spec: the "" entry, or the spec of the lexicographically smallest
// class key.
func Diff(d *Discovery, specs map[string]*modelspec.Spec, opts DiffOptions) (*Report, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil discovery", ErrMine)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: no specs to diff against", ErrMine)
	}
	df := &differ{z: opts.z(), minN: opts.minSamples()}

	specFor := func(class string) *modelspec.Spec {
		if s, ok := specs[class]; ok {
			return s
		}
		if s, ok := specs[""]; ok {
			return s
		}
		if len(specs) == 1 {
			for _, s := range specs {
				return s
			}
		}
		return nil
	}
	primary := specs[""]
	if primary == nil {
		keys := make([]string, 0, len(specs))
		for k := range specs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		primary = specs[keys[0]]
	}

	classes := make([]string, 0, len(d.Profiles))
	for class := range d.Profiles {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		spec := specFor(class)
		if spec == nil {
			df.out = append(df.out, Edge{
				Kind:   "scenario",
				Class:  class,
				Status: StatusInsufficient,
				Detail: "no spec for this class",
			})
			continue
		}
		if err := df.diffProfile(d.Profiles[class], spec); err != nil {
			return nil, err
		}
	}
	if err := df.diffDiagrams(d, primary); err != nil {
		return nil, err
	}
	df.diffServices(d, primary)

	sortEdges(df.out)
	rep := &Report{
		Verdict:    VerdictConsistent,
		Z:          df.z,
		MinSamples: df.minN,
		Checked:    len(df.out),
		Edges:      df.out,
	}
	for _, e := range rep.Edges {
		switch e.Status {
		case StatusInsufficient:
			rep.Insufficient++
		case StatusOK:
		default:
			rep.Drifted++
			rep.Drift = append(rep.Drift, e)
		}
	}
	if rep.Drifted > 0 {
		rep.Verdict = VerdictDrifted
	}
	return rep, nil
}

// diffProfile judges the user level of one class: scenario probabilities and
// the function-level transition matrix implied by the spec's scenarios.
func (df *differ) diffProfile(p *Profile, spec *modelspec.Spec) error {
	scenarios, err := spec.UserScenarios()
	if err != nil {
		return err
	}
	var total float64
	for _, sc := range scenarios {
		total += sc.Probability
	}
	if total <= 0 {
		return fmt.Errorf("%w: spec %q scenario probabilities sum to %v", ErrMine, spec.Name, total)
	}

	specByKey := make(map[string]float64, len(scenarios))
	nameByKey := make(map[string]string, len(scenarios))
	for _, sc := range scenarios {
		key := opprofile.ScenarioKey(sc.Functions)
		specByKey[key] += sc.Probability / total
		if nameByKey[key] == "" {
			nameByKey[key] = sc.Name
		}
	}
	keys := make(map[string]bool, len(specByKey)+len(p.Scenarios))
	for key := range specByKey {
		keys[key] = true
	}
	for key := range p.Scenarios {
		keys[key] = true
	}
	for _, key := range sortedKeys(keys) {
		est, observed := p.Scenarios[key]
		if !observed {
			est = newEstimate(0, p.Visits)
		}
		e := Edge{
			Kind:      "scenario",
			Class:     p.Class,
			Name:      key,
			Specified: specByKey[key],
		}
		if name := nameByKey[key]; name != "" && name != key {
			e.Detail = "spec scenario " + name
		}
		if _, inSpec := specByKey[key]; !inSpec {
			e.Status = StatusExtra
			e.Detail = "scenario not in spec"
		} else if !observed {
			e.Status = StatusMissing
		}
		df.judge(e, est)
	}

	// Function-level transition matrix implied by the spec's ordered
	// scenario walks — the same estimator the miner applies to traces, so
	// spec and observation live on the same scale.
	specTrans := transitionsFromScenarios(scenarios)
	for _, from := range sortedTransKeys(specTrans, p.Transitions) {
		row := p.Transitions[from]
		var rowTrials int64
		for _, est := range row {
			rowTrials += est.Successes
		}
		tos := make(map[string]bool, len(specTrans[from])+len(row))
		for to := range specTrans[from] {
			tos[to] = true
		}
		for to := range row {
			tos[to] = true
		}
		for _, to := range sortedKeys(tos) {
			est, observed := row[to]
			if !observed {
				est = newEstimate(0, rowTrials)
			}
			e := Edge{
				Kind:      "transition",
				Class:     p.Class,
				From:      from,
				To:        to,
				Specified: specTrans[from][to],
			}
			if _, inSpec := specTrans[from][to]; !inSpec {
				e.Status = StatusExtra
				e.Detail = "transition not implied by spec scenarios"
			} else if !observed {
				e.Status = StatusMissing
			}
			df.judge(e, est)
		}
	}
	return nil
}

// diffDiagrams judges the discovered step graphs (only functions whose
// traces carried step spans) against the primary spec's diagrams.
func (df *differ) diffDiagrams(d *Discovery, spec *modelspec.Spec) error {
	for _, fn := range sortedDiagramKeys(d.Diagrams) {
		disc := d.Diagrams[fn]
		fnSpec, inSpec := spec.Function(fn)
		if !inSpec {
			df.judge(Edge{
				Kind:      "function",
				Function:  fn,
				Name:      fn,
				Specified: 0,
				Status:    StatusExtra,
				Detail:    "function not in spec",
			}, newEstimate(disc.Invocations, disc.Invocations))
			continue
		}
		if len(disc.Steps) == 0 {
			continue // trace stream had no step spans for this function
		}

		specSteps := make(map[string][]string, len(fnSpec.Steps))
		for _, st := range fnSpec.Steps {
			specSteps[st.Name] = st.Services
		}
		stepNames := make(map[string]bool, len(specSteps)+len(disc.Steps))
		for name := range disc.Steps {
			stepNames[name] = true
		}
		for _, name := range sortedKeys(stepNames) {
			svcSpec, inStepSpec := specSteps[name]
			executions := disc.Steps[name]
			if !inStepSpec {
				df.judge(Edge{
					Kind:      "step",
					Function:  fn,
					Name:      name,
					Specified: 0,
					Status:    StatusExtra,
					Detail:    "step not in spec",
				}, newEstimate(executions, executions))
				continue
			}
			// Service-set comparison: the observed union must match the
			// spec's requirement set once there is enough evidence.
			if executions >= df.minN && !sameStringSet(disc.StepServices[name], svcSpec) {
				df.out = append(df.out, Edge{
					Kind:     "step-service",
					Function: fn,
					Name:     name,
					Trials:   executions,
					Status:   StatusDrift,
					Detail: fmt.Sprintf("observed services %v, specified %v",
						disc.StepServices[name], canonicalSet(svcSpec)),
				})
			}
		}

		specBranches := make(map[string]map[string]float64)
		for _, tr := range fnSpec.Transitions {
			q := tr.Probability
			if q == 0 {
				q = 1
			}
			row := specBranches[tr.From]
			if row == nil {
				row = make(map[string]float64)
				specBranches[tr.From] = row
			}
			row[tr.To] += q
		}
		for _, from := range sortedTransKeys(specBranches, disc.Transitions) {
			row := disc.Transitions[from]
			var rowTrials int64
			for _, est := range row {
				rowTrials += est.Successes
			}
			tos := make(map[string]bool, len(specBranches[from])+len(row))
			for to := range specBranches[from] {
				tos[to] = true
			}
			for to := range row {
				tos[to] = true
			}
			for _, to := range sortedKeys(tos) {
				est, observed := row[to]
				if !observed {
					est = newEstimate(0, rowTrials)
				}
				e := Edge{
					Kind:      "branch",
					Function:  fn,
					From:      from,
					To:        to,
					Specified: specBranches[from][to],
				}
				if _, inBranchSpec := specBranches[from][to]; !inBranchSpec {
					e.Status = StatusExtra
					e.Detail = "branch not in spec"
				} else if !observed {
					e.Status = StatusMissing
				}
				df.judge(e, est)
			}
		}
	}
	return nil
}

// diffServices judges each discovered service's all-cause empirical
// availability against the spec's declared (or group-derived) value.
func (df *differ) diffServices(d *Discovery, spec *modelspec.Spec) {
	for _, name := range sortedServiceKeys(d.Services) {
		svc := d.Services[name]
		spSvc, inSpec := spec.Service(name)
		if !inSpec {
			df.judge(Edge{
				Kind:      "service",
				Name:      name,
				Specified: 0,
				Status:    StatusExtra,
				Detail:    "service not in spec",
			}, newEstimate(svc.Calls, svc.Calls))
			continue
		}
		specified, err := spSvc.EffectiveAvailability()
		if err != nil {
			df.out = append(df.out, Edge{
				Kind:   "service",
				Name:   name,
				Status: StatusInsufficient,
				Detail: err.Error(),
			})
			continue
		}
		df.judge(Edge{
			Kind:      "service",
			Name:      name,
			Specified: specified,
		}, svc.Availability)
	}
}

// transitionsFromScenarios derives the function-level transition matrix a
// scenario mix implies: each scenario walks Start→f₁→…→Exit with its
// probability as weight; rows are normalized. Repeated functions collapse
// onto their first occurrence, matching the miner.
func transitionsFromScenarios(scenarios []modelspec.ScenarioSpec) map[string]map[string]float64 {
	weights := make(map[string]map[string]float64)
	add := func(from, to string, w float64) {
		row := weights[from]
		if row == nil {
			row = make(map[string]float64)
			weights[from] = row
		}
		row[to] += w
	}
	for _, sc := range scenarios {
		if sc.Probability <= 0 {
			continue
		}
		var fns []string
		seen := make(map[string]bool, len(sc.Functions))
		for _, fn := range sc.Functions {
			if !seen[fn] {
				seen[fn] = true
				fns = append(fns, fn)
			}
		}
		nodes := append([]string{opprofile.Start}, fns...)
		nodes = append(nodes, opprofile.Exit)
		for i := 0; i+1 < len(nodes); i++ {
			add(nodes[i], nodes[i+1], sc.Probability)
		}
	}
	for _, row := range weights {
		// Summed in name order, so the normalized row is the same on every
		// run.
		tos := make([]string, 0, len(row))
		for to := range row {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		var sum float64
		for _, to := range tos {
			sum += row[to]
		}
		if sum > 0 {
			for to := range row {
				row[to] /= sum
			}
		}
	}
	return weights
}

func sameStringSet(a, b []string) bool {
	as, bs := canonicalSet(a), canonicalSet(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func canonicalSet(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedTransKeys[A any, B any](a map[string]map[string]A, b map[string]map[string]B) []string {
	set := make(map[string]bool, len(a)+len(b))
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	return sortedKeys(set)
}

func sortedDiagramKeys(m map[string]*Diagram) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedServiceKeys(m map[string]*Service) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortEdges orders edges deterministically for reports.
func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
}
