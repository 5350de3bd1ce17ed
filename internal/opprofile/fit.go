package opprofile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/optimize"
)

// Edge declares an allowed transition of a profile graph whose probability
// is to be estimated.
type Edge struct {
	From, To string
}

// FitResult reports a calibrated profile.
type FitResult struct {
	// Profile is the fitted operational profile.
	Profile *Profile
	// Residual is the root-mean-square deviation between the fitted and the
	// target scenario probabilities.
	Residual float64
	// Converged reports whether the optimizer met its tolerance.
	Converged bool
}

// Fit estimates transition probabilities over the given graph structure so
// that the resulting scenario-class probabilities match the targets as
// closely as possible (least squares). This is the inverse problem behind
// the paper's Table 1, whose underlying p_ij are not published.
//
// Free parameters are one weight per edge, mapped through a per-source
// softmax so each node's outgoing probabilities always sum to one.
func Fit(edges []Edge, targets []Scenario, opts optimize.Options) (FitResult, error) {
	if len(edges) == 0 {
		return FitResult{}, fmt.Errorf("%w: no edges", ErrProfile)
	}
	if len(targets) == 0 {
		return FitResult{}, fmt.Errorf("%w: no targets", ErrProfile)
	}
	// Group edges by source, deterministically.
	bySource := make(map[string][]Edge)
	var sources []string
	for _, e := range edges {
		if _, ok := bySource[e.From]; !ok {
			sources = append(sources, e.From)
		}
		bySource[e.From] = append(bySource[e.From], e)
	}
	sort.Strings(sources)
	for _, s := range sources {
		sort.Slice(bySource[s], func(i, j int) bool { return bySource[s][i].To < bySource[s][j].To })
	}

	targetByKey := make(map[string]float64, len(targets))
	for _, t := range targets {
		targetByKey[ScenarioKey(t.Functions)] = t.Probability
	}
	// The squared errors are summed in key order, so the objective, and
	// with it the fit, is the same on every call.
	keys := make([]string, 0, len(targetByKey))
	for key := range targetByKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	build := func(weights []float64) (*Profile, error) {
		p := New()
		i := 0
		for _, s := range sources {
			group := bySource[s]
			// Softmax over the group's weights.
			maxW := weights[i]
			for k := 1; k < len(group); k++ {
				if weights[i+k] > maxW {
					maxW = weights[i+k]
				}
			}
			var denom float64
			exps := make([]float64, len(group))
			for k := range group {
				exps[k] = math.Exp(weights[i+k] - maxW)
				denom += exps[k]
			}
			for k, e := range group {
				if err := p.AddTransition(e.From, e.To, exps[k]/denom); err != nil {
					return nil, err
				}
			}
			i += len(group)
		}
		return p, nil
	}

	objective := func(weights []float64) float64 {
		p, err := build(weights)
		if err != nil {
			return math.Inf(1)
		}
		scenarios, err := p.Scenarios()
		if err != nil {
			return math.Inf(1)
		}
		var sse float64
		got := make(map[string]float64, len(scenarios))
		for _, sc := range scenarios {
			key := sc.Key()
			got[key] = sc.Probability
			if _, ok := targetByKey[key]; !ok {
				sse += sc.Probability * sc.Probability // scenario classes the targets say are impossible
			}
		}
		for _, key := range keys {
			d := got[key] - targetByKey[key]
			sse += d * d
		}
		return sse
	}

	x0 := make([]float64, len(edges))
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 6000
	}
	res, err := optimize.Minimize(objective, x0, opts)
	if err != nil {
		return FitResult{}, err
	}
	p, err := build(res.X)
	if err != nil {
		return FitResult{}, err
	}
	return FitResult{
		Profile:   p,
		Residual:  math.Sqrt(res.Value / float64(len(targetByKey))),
		Converged: res.Converged,
	}, nil
}
