package telemetry

import (
	"fmt"
	"math"
)

// Histogram is a fixed-layout geometric histogram for non-negative latency
// observations. Bucket 0 holds values below Base; bucket i (1 ≤ i < n−1)
// holds values in [Base·Factor^(i−1), Base·Factor^i); the last bucket is a
// catch-all for everything larger. Observe is cheap and allocation-free, so
// the collector can afford one observation per executed diagram step.
type Histogram struct {
	base    float64
	factor  float64
	counts  []int64
	total   int64
	sum     float64
	max     float64
	logBase float64
	logFac  float64
}

// NewHistogram creates a histogram with the given smallest bucket bound,
// geometric growth factor, and bucket count.
func NewHistogram(base, factor float64, buckets int) (*Histogram, error) {
	if err := CheckLayout(base, factor, buckets); err != nil {
		return nil, err
	}
	return &Histogram{
		base:    base,
		factor:  factor,
		counts:  make([]int64, buckets),
		logBase: math.Log(base),
		logFac:  math.Log(factor),
	}, nil
}

// CheckLayout reports whether NewHistogram accepts the layout, without
// allocating one.
func CheckLayout(base, factor float64, buckets int) error {
	if !(base > 0) || math.IsInf(base, 0) {
		return fmt.Errorf("telemetry: histogram base %v", base)
	}
	if !(factor > 1) || math.IsInf(factor, 0) {
		return fmt.Errorf("telemetry: histogram factor %v", factor)
	}
	if buckets < 3 {
		return fmt.Errorf("telemetry: %d buckets (need ≥ 3)", buckets)
	}
	return nil
}

// defaultLatencyHistogram covers 1 ms to ~17 minutes of model time with
// 2× buckets — wide enough for base step latencies and injected spikes.
func defaultLatencyHistogram() *Histogram {
	h, err := NewHistogram(1e-3, 2, 22)
	if err != nil {
		panic(err) // static parameters; unreachable
	}
	return h
}

// Observe records one value. Negative, NaN and infinite values are clamped
// into the extreme buckets so telemetry never drops an observation.
func (h *Histogram) Observe(v float64) {
	idx := 0
	switch {
	case math.IsNaN(v) || v < h.base:
		idx = 0
	default:
		idx = 1 + int((math.Log(v)-h.logBase)/h.logFac)
		if idx < 1 {
			idx = 1
		}
		if idx >= len(h.counts) {
			idx = len(h.counts) - 1
		}
	}
	h.counts[idx]++
	h.total++
	if !math.IsNaN(v) {
		h.sum += v
		if v > h.max {
			h.max = v
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the exact sum of all non-NaN observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact sample mean (tracked outside the buckets).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observation.
func (h *Histogram) Max() float64 { return h.max }

// bucketBounds returns the value range [lo, hi) covered by bucket i. The
// catch-all bucket's upper bound is the largest observation actually seen,
// clamped so it never falls below the bucket's own lower boundary — without
// the clamp an (impossible in practice, but cheap to guard) empty-max
// catch-all would report a quantile smaller than the second-to-last bucket's.
func (h *Histogram) bucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, h.base
	case i == len(h.counts)-1:
		lo = h.base * math.Pow(h.factor, float64(i-1))
		hi = lo
		if h.max > hi {
			hi = h.max
		}
		return lo, hi
	default:
		hi = h.base * math.Pow(h.factor, float64(i))
		return hi / h.factor, hi
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket that contains it; the estimate never leaves the bucket's
// value range, so it is exact to one bucket width. In the catch-all bucket
// interpolation runs between the last finite boundary and the maximum
// observation. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := h.bucketBounds(i)
			return lo + (hi-lo)*float64(target-cum)/float64(c)
		}
		cum += c
	}
	_, hi := h.bucketBounds(len(h.counts) - 1)
	return hi
}

// Merge folds another histogram into h. The two histograms must share the
// identical bucket layout (base, factor and bucket count) — this is the
// combination path for per-worker histograms aggregated after a parallel run.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.base != other.base || h.factor != other.factor || len(h.counts) != len(other.counts) {
		return fmt.Errorf("telemetry: merge layout mismatch: (%v, %v, %d) vs (%v, %v, %d)",
			h.base, h.factor, len(h.counts), other.base, other.factor, len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	return nil
}

// Snapshot is a point-in-time copy of a histogram's layout and counts, the
// raw material for external renderers (e.g. the Prometheus exposition of
// internal/obs). Counts are per-bucket, not cumulative.
type HistogramSnapshot struct {
	Base   float64
	Factor float64
	Counts []int64
	Total  int64
	Sum    float64
	Max    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Base:   h.base,
		Factor: h.factor,
		Counts: append([]int64(nil), h.counts...),
		Total:  h.total,
		Sum:    h.sum,
		Max:    h.max,
	}
}
