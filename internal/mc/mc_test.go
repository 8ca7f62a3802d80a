package mc

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Every deviate is a pure function of (seed, sample, gate): same inputs,
// same bits, and distinct coordinates decorrelate.
func TestNormalDeterministicAndDistinct(t *testing.T) {
	a := Normal(17, 3, 5)
	if b := Normal(17, 3, 5); b != a {
		t.Fatalf("Normal not deterministic: %v vs %v", a, b)
	}
	seen := map[float64]bool{a: true}
	for _, c := range []struct {
		seed   uint64
		sample int
		gate   int32
	}{{18, 3, 5}, {17, 4, 5}, {17, 3, 6}} {
		v := Normal(c.seed, c.sample, c.gate)
		if seen[v] {
			t.Fatalf("deviate collision at %+v: %v", c, v)
		}
		seen[v] = true
	}
}

// The deviates must actually be standard-normal-ish: mean ~0, var ~1, and
// symmetric tails. 64k draws give ~0.004 standard error on the mean.
func TestNormalMoments(t *testing.T) {
	const n = 1 << 16
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := Normal(99, i, 0)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite deviate at sample %d: %v", i, v)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

// Multiplier at sigma 0 is exactly 1.0 — the bit-identity contract the
// sigma-zero difftest oracle rests on.
func TestMultiplierSigmaZeroExact(t *testing.T) {
	for gate := int32(0); gate < 100; gate++ {
		if m := Multiplier(7, 0, 0, gate); m != 1.0 {
			t.Fatalf("Multiplier(sigma=0) = %v at gate %d, want exactly 1", m, gate)
		}
	}
}

// Extreme sigmas clamp at the floor instead of producing non-positive
// delays.
func TestMultiplierClamp(t *testing.T) {
	for i := 0; i < 10000; i++ {
		m := Multiplier(1, i, 100, 0) // sigma far beyond any physical value
		if m < MinMultiplier {
			t.Fatalf("multiplier %v below floor %v at sample %d", m, MinMultiplier, i)
		}
	}
}

func TestValidateSpec(t *testing.T) {
	cases := []struct {
		name    string
		samples int
		sigma   float64
		field   string // "" = valid
	}{
		{"valid", 16, 0.05, ""},
		{"zero sigma", 1, 0, ""},
		{"zero samples", 0, 0.05, "samples"},
		{"negative samples", -3, 0.05, "samples"},
		{"negative sigma", 8, -0.1, "sigma"},
		{"NaN sigma", 8, math.NaN(), "sigma"},
		{"Inf sigma", 8, math.Inf(1), "sigma"},
	}
	for _, c := range cases {
		err := ValidateSpec(c.samples, c.sigma)
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: want error naming %q, got nil", c.name, c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name field %q", c.name, err, c.field)
		}
	}
}

func TestCorners(t *testing.T) {
	for _, name := range CornerNames() {
		m, err := CornerMultiplier(name)
		if err != nil || m <= 0 {
			t.Errorf("corner %s: m=%v err=%v", name, m, err)
		}
	}
	if m, _ := CornerMultiplier("typ"); m != 1.0 {
		t.Errorf("typ corner = %v, want exactly 1", m)
	}
	if _, err := CornerMultiplier("nominal"); err == nil || !strings.Contains(err.Error(), "nominal") {
		t.Errorf("unknown corner error should name the value, got %v", err)
	}
	slow, _ := CornerMultiplier("slow")
	fast, _ := CornerMultiplier("fast")
	if !(fast < 1 && 1 < slow) {
		t.Errorf("corner ordering broken: fast=%v slow=%v", fast, slow)
	}
}

func TestNewDist(t *testing.T) {
	d := NewDist([]float64{3, 1, 2, math.NaN(), 4}, 4)
	if d.N != 4 || d.Min != 1 || d.Max != 4 {
		t.Fatalf("dist = %+v", d)
	}
	if math.Abs(d.Mean-2.5) > 1e-12 || math.Abs(d.P50-2.5) > 1e-12 {
		t.Errorf("mean/p50 = %v/%v, want 2.5/2.5", d.Mean, d.P50)
	}
	if !(d.P50 <= d.P95 && d.P95 <= d.P99 && d.P99 <= d.Max) {
		t.Errorf("percentiles out of order: %+v", d)
	}
	if d.Hist == nil {
		t.Fatal("no histogram")
	}
	n := d.Hist.Under + d.Hist.Over
	for _, c := range d.Hist.Counts {
		n += c
	}
	if n != 4 || d.Hist.Over != 0 {
		t.Errorf("histogram loses samples: counts=%v under=%d over=%d", d.Hist.Counts, d.Hist.Under, d.Hist.Over)
	}
}

// A constant sample set (the sigma=0 shape) must still aggregate cleanly.
func TestNewDistDegenerate(t *testing.T) {
	d := NewDist([]float64{5e-10, 5e-10, 5e-10}, 8)
	if d.N != 3 || d.Mean != 5e-10 || d.Std != 0 || d.P99 != 5e-10 {
		t.Fatalf("degenerate dist = %+v", d)
	}
	if d.Hist == nil || d.Hist.Over != 0 || d.Hist.Under != 0 {
		t.Fatalf("degenerate histogram drops samples: %+v", d.Hist)
	}
	if NewDist(nil, 8).N != 0 {
		t.Fatal("empty dist should have N 0")
	}
	if all := NewDist([]float64{math.NaN()}, 8); all.N != 0 {
		t.Fatal("all-NaN dist should have N 0")
	}
}

// Aggregation is order-independent: the sort inside NewDist makes shuffled
// inputs bit-identical — the property the worker-count-stability oracle
// leans on.
func TestNewDistOrderInvariant(t *testing.T) {
	a := []float64{9, 2, 7, 1, 8, 3}
	b := []float64{1, 3, 9, 8, 2, 7}
	da, db := NewDist(a, 4), NewDist(b, 4)
	if da.Mean != db.Mean || da.P95 != db.P95 || da.Std != db.Std {
		t.Fatalf("order-dependent aggregation: %+v vs %+v", da, db)
	}
}

// SortedDist on a NaN-free copy returns NewDist's distribution bit for bit,
// histogram included, while NewDist leaves its input as it was.
func TestSortedDistMatchesNewDist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		values := make([]float64, 1+rng.Intn(300))
		var xs []float64
		for i := range values {
			values[i] = math.NaN()
			if rng.Intn(4) > 0 {
				values[i] = (200 + 50*rng.NormFloat64()) * 1e-12
				xs = append(xs, values[i])
			}
		}
		before := append([]float64(nil), values...)
		want := NewDist(values, 8)
		got := SortedDist(xs, 8)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SortedDist %+v, NewDist %+v", trial, got, want)
		}
		for i := range values {
			if math.Float64bits(values[i]) != math.Float64bits(before[i]) {
				t.Fatalf("trial %d: NewDist modified its input at %d", trial, i)
			}
		}
	}
}
