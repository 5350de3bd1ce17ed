// Package sensitivity provides the one-at-a-time sensitivity measures of
// the paper's §5: numerical elasticities (which formalize the paper's
// observation that the LAN/net/web-service availabilities act at first order
// while the others are second order) and tornado analyses over parameter
// ranges.
package sensitivity

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrParam is returned for invalid study specifications.
var ErrParam = errors.New("sensitivity: invalid parameter")

// Elasticity estimates the relative sensitivity (∂R/∂p)·(p/R) by central
// finite differences with relative step relStep (default 1e-4 when ≤ 0).
// An elasticity near 1 marks a first-order parameter: a 1% change in the
// parameter moves the result by about 1%.
func Elasticity(eval func(float64) (float64, error), at float64, relStep float64) (float64, error) {
	if eval == nil {
		return 0, fmt.Errorf("%w: nil evaluator", ErrParam)
	}
	if at == 0 {
		return 0, fmt.Errorf("%w: elasticity undefined at 0", ErrParam)
	}
	if relStep <= 0 {
		relStep = 1e-4
	}
	h := math.Abs(at) * relStep
	lo, err := eval(at - h)
	if err != nil {
		return 0, err
	}
	hi, err := eval(at + h)
	if err != nil {
		return 0, err
	}
	mid, err := eval(at)
	if err != nil {
		return 0, err
	}
	if mid == 0 {
		return 0, fmt.Errorf("%w: result is 0 at the evaluation point", ErrParam)
	}
	deriv := (hi - lo) / (2 * h)
	return deriv * at / mid, nil
}

// TornadoEntry is one bar of a tornado diagram: the output at the low and
// high end of one parameter's range, all other parameters held at base.
type TornadoEntry struct {
	Name      string
	LowValue  float64 // parameter low end
	HighValue float64 // parameter high end
	AtLow     float64 // output at the low end
	AtHigh    float64 // output at the high end
}

// Swing returns |AtHigh − AtLow|, the bar length.
func (t TornadoEntry) Swing() float64 { return math.Abs(t.AtHigh - t.AtLow) }

// Range is a [Low, High] parameter interval for Tornado.
type Range struct {
	Low, High float64
}

// Tornado evaluates the one-at-a-time swing of every parameter over its
// range and returns the entries sorted by descending swing.
func Tornado(base map[string]float64, ranges map[string]Range, eval func(map[string]float64) (float64, error)) ([]TornadoEntry, error) {
	if len(base) == 0 || len(ranges) == 0 || eval == nil {
		return nil, fmt.Errorf("%w: tornado needs base values, ranges and an evaluator", ErrParam)
	}
	names := make([]string, 0, len(ranges))
	for name := range ranges {
		if _, ok := base[name]; !ok {
			return nil, fmt.Errorf("%w: range for unknown parameter %q", ErrParam, name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TornadoEntry, 0, len(names))
	for _, name := range names {
		r := ranges[name]
		entry := TornadoEntry{Name: name, LowValue: r.Low, HighValue: r.High}
		for _, end := range []struct {
			v    float64
			dest *float64
		}{{r.Low, &entry.AtLow}, {r.High, &entry.AtHigh}} {
			vals := make(map[string]float64, len(base))
			for k, v := range base {
				vals[k] = v
			}
			vals[name] = end.v
			res, err := eval(vals)
			if err != nil {
				return nil, fmt.Errorf("sensitivity: tornado %s = %v: %w", name, end.v, err)
			}
			*end.dest = res
		}
		out = append(out, entry)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Swing() != out[j].Swing() {
			return out[i].Swing() > out[j].Swing()
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}
