package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEWMABasics(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 || e.Samples() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Errorf("first sample should initialize: %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Errorf("after 10,20 with alpha .5: %v, want 15", e.Value())
	}
	if e.Samples() != 2 {
		t.Errorf("samples = %d", e.Samples())
	}
}

func TestEWMASet(t *testing.T) {
	e := NewEWMA(0.3)
	e.Set(42)
	if e.Value() != 42 {
		t.Errorf("Set: %v", e.Value())
	}
	if e.Samples() != 1 {
		t.Errorf("Set should mark initialized: %d", e.Samples())
	}
	e.Observe(42)
	if e.Value() != 42 {
		t.Errorf("steady state drifted: %v", e.Value())
	}
}

func TestEWMAAlphaValidation(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
	NewEWMA(1) // boundary ok
}

// Property: EWMA value is always bounded by min/max of observations.
func TestPropertyEWMABounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEWMA(0.01 + 0.98*rng.Float64())
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			v := rng.Float64() * 1000
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			e.Observe(v)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleStats(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample stats not zero")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.Len() != 5 || s.Mean() != 3 {
		t.Errorf("len/mean = %d/%v", s.Len(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 || s.Percentile(50) != 3 {
		t.Errorf("min/max/median = %v/%v/%v", s.Min(), s.Max(), s.Percentile(50))
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", p)
	}
	if p := s.Percentile(25); math.Abs(p-25.75) > 1e-9 {
		t.Errorf("p25 = %v, want 25.75", p)
	}
}

func TestFractionBelow(t *testing.T) {
	s := NewSample()
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	cases := []struct{ v, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.v); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestDownsample(t *testing.T) {
	var pts []TimePoint
	for i := 0; i < 100; i++ {
		pts = append(pts, TimePoint{T: float64(i), V: float64(i)})
	}
	d := Downsample(pts, 10)
	if len(d) != 10 {
		t.Fatalf("downsample len = %d", len(d))
	}
	if d[0].T != 0 || d[9].T != 99 {
		t.Errorf("endpoints = %v, %v", d[0], d[9])
	}
	if got := Downsample(pts, 1000); len(got) != 100 {
		t.Errorf("downsample beyond length should return all: %d", len(got))
	}
	if Downsample(pts, 0) != nil {
		t.Error("downsample(0) should be nil")
	}
	if got := Downsample(pts, 1); len(got) != 1 || got[0] != pts[99] {
		t.Errorf("downsample(1) = %v, want only the final point %v", got, pts[99])
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(100, 67); math.Abs(s-0.33) > 1e-12 {
		t.Errorf("speedup = %v", s)
	}
	if s := Speedup(100, 211); math.Abs(s+1.11) > 1e-12 {
		t.Errorf("slowdown = %v", s)
	}
	if Speedup(0, 5) != 0 {
		t.Error("zero base should return 0")
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPropertyPercentileMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSample()
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev-1e-9 || v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
