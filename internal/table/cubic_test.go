package table

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvalCubicExactAtNodes(t *testing.T) {
	g, _ := New([]float64{0, 1, 2.5, 4}, []float64{-1, 0, 2}, []float64{0})
	if err := g.Fill(func(x0, x1, _ float64) (float64, error) {
		return math.Sin(x0) + x1*x1, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, x := range g.Axis(0) {
		for _, y := range g.Axis(1) {
			want := math.Sin(x) + y*y
			if got := g.EvalCubic(x, y, 0); math.Abs(got-want) > 1e-12 {
				t.Errorf("EvalCubic(%g,%g) = %g, want %g", x, y, got, want)
			}
		}
	}
}

// TestCubicReproducesCubics: 1-D cubic Hermite with three-point slopes is
// exact for quadratics (slopes exact), and clearly better than linear for
// smooth functions.
func TestCubicReproducesQuadratics(t *testing.T) {
	g, _ := New([]float64{0, 0.7, 1.5, 2.2, 3}, []float64{0}, []float64{0})
	f := func(x float64) float64 { return 2 + 3*x - 1.5*x*x }
	if err := g.Fill(func(x0, _, _ float64) (float64, error) { return f(x0), nil }); err != nil {
		t.Fatal(err)
	}
	// Interior cells have two-sided slopes: exact for quadratics there.
	for _, x := range []float64{0.9, 1.2, 1.9} {
		if got := g.EvalCubic(x, 0, 0); math.Abs(got-f(x)) > 1e-9 {
			t.Errorf("EvalCubic(%g) = %g, want %g", x, got, f(x))
		}
	}
}

func TestCubicBeatsLinearOnSmoothData(t *testing.T) {
	ax := LinSpace(0, math.Pi, 8)
	g, _ := New(ax, []float64{0}, []float64{0})
	if err := g.Fill(func(x0, _, _ float64) (float64, error) { return math.Sin(x0), nil }); err != nil {
		t.Fatal(err)
	}
	var linErr, cubErr float64
	for x := 0.01; x < math.Pi; x += 0.01 {
		linErr += math.Abs(g.Eval(x, 0, 0) - math.Sin(x))
		cubErr += math.Abs(g.EvalCubic(x, 0, 0) - math.Sin(x))
	}
	if cubErr >= linErr/3 {
		t.Errorf("cubic total error %.4f not clearly better than linear %.4f", cubErr, linErr)
	}
}

func TestCubicClampsOutside(t *testing.T) {
	g, _ := New([]float64{0, 1, 2}, []float64{0}, []float64{0})
	g.Set(5, 0, 0, 0)
	g.Set(7, 1, 0, 0)
	g.Set(6, 2, 0, 0)
	if got := g.EvalCubic(-9, 3, -3); got != 5 {
		t.Errorf("low clamp = %g", got)
	}
	if got := g.EvalCubic(99, -3, 3); got != 6 {
		t.Errorf("high clamp = %g", got)
	}
}

func TestCubicSingletonAxis(t *testing.T) {
	g, _ := New([]float64{2}, []float64{0, 1}, []float64{5})
	g.Set(3, 0, 0, 0)
	g.Set(9, 0, 1, 0)
	if got := g.EvalCubic(99, 0.5, -1); math.Abs(got-6) > 1e-12 {
		t.Errorf("singleton cubic = %g, want 6", got)
	}
}

// TestCubicContinuityProperty: the interpolant is continuous across grid
// lines (left and right limits agree).
func TestCubicContinuityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		ax := make([]float64, n)
		x := 0.0
		for i := range ax {
			x += 0.2 + r.Float64()
			ax[i] = x
		}
		g, err := New(ax, []float64{0}, []float64{0})
		if err != nil {
			return false
		}
		if err := g.Fill(func(_, _, _ float64) (float64, error) { return r.NormFloat64(), nil }); err != nil {
			return false
		}
		const eps = 1e-9
		for i := 1; i < n-1; i++ {
			left := g.EvalCubic(ax[i]-eps, 0, 0)
			right := g.EvalCubic(ax[i]+eps, 0, 0)
			at := g.EvalCubic(ax[i], 0, 0)
			if math.Abs(left-at) > 1e-5 || math.Abs(right-at) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCubic2DMixed(t *testing.T) {
	// Affine functions are reproduced exactly in any dimension (slopes are
	// exact and Hermite reproduces linears).
	g, _ := New(LinSpace(0, 2, 4), LinSpace(-1, 1, 5), []float64{0})
	if err := g.Fill(func(x0, x1, _ float64) (float64, error) { return 3 + 2*x0 - x1, nil }); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 50; k++ {
		x := r.Float64() * 2
		y := -1 + 2*r.Float64()
		want := 3 + 2*x - y
		if got := g.EvalCubic(x, y, 0); math.Abs(got-want) > 1e-9 {
			t.Fatalf("EvalCubic(%g,%g) = %g, want %g", x, y, got, want)
		}
	}
}

// TestEvalAllocFree: interpolating a rank-3 grid allocates nothing, linear
// or cubic (the CubicTables ablation evaluates through EvalCubic).
func TestEvalAllocFree(t *testing.T) {
	g := MustNew([]float64{0, 1, 2, 3}, []float64{0, 1, 2}, LinSpace(-1, 1, 9))
	if allocs := testing.AllocsPerRun(100, func() { g.Eval(1.5, 0.25, 0.3) }); allocs != 0 {
		t.Errorf("Eval allocates %.1f objects per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.EvalCubic(1.5, 0.25, 0.3) }); allocs != 0 {
		t.Errorf("EvalCubic allocates %.1f objects per run", allocs)
	}
}
