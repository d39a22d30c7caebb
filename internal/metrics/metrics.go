// Package metrics provides the small statistical toolkit the DYRS
// reproduction uses everywhere: exponentially weighted moving averages
// (the paper's migration-time estimator), sample collections with
// percentile extraction, and (time, value) series, such as a slave's
// estimate trajectory (Fig. 9), with downsampling for compact tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// EWMA is an exponentially weighted moving average. Alpha is the weight
// given to each new observation: est = alpha*obs + (1-alpha)*est.
// The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha   float64
	value   float64
	samples int
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe incorporates a new sample. The first sample initializes the
// average directly.
func (e *EWMA) Observe(v float64) {
	if e.samples == 0 {
		e.value = v
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	e.samples++
}

// Value reports the current average, or 0 before any samples.
func (e *EWMA) Value() float64 { return e.value }

// Samples reports how many observations have been incorporated.
func (e *EWMA) Samples() int { return e.samples }

// Set overrides the current value without counting a sample; used to seed
// an estimator with a prior.
func (e *EWMA) Set(v float64) {
	e.value = v
	if e.samples == 0 {
		e.samples = 1
	}
}

// Sample is an accumulating collection of float64 observations supporting
// summary statistics and percentiles.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// NewSample returns an empty sample collection.
func NewSample() *Sample { return &Sample{} }

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
	s.sum += v
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Min reports the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max reports the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// FractionBelow reports the fraction of observations <= v (the empirical
// CDF evaluated at v).
func (s *Sample) FractionBelow(v float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	idx := sort.SearchFloat64s(s.xs, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(n)
}

// TimePoint is one (time, value) sample. A time series is a plain
// []TimePoint in time order; T is in seconds of virtual time unless its
// producer says otherwise.
type TimePoint struct {
	T float64
	V float64
}

// Downsample returns at most n points evenly spaced through pts, always
// including the final point; handy for rendering long series as compact
// tables. A series no longer than n comes back as is.
func Downsample(pts []TimePoint, n int) []TimePoint {
	if n <= 0 || len(pts) == 0 {
		return nil
	}
	if len(pts) <= n {
		return pts
	}
	if n == 1 {
		return pts[len(pts)-1:]
	}
	out := make([]TimePoint, 0, n)
	step := float64(len(pts)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, pts[int(math.Round(float64(i)*step))])
	}
	return out
}

// Speedup reports the paper's speedup metric: (base-new)/base, as a
// fraction. A negative result means a slowdown.
func Speedup(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - new) / base
}
