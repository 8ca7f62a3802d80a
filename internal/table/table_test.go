package table

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	one := []float64{0}
	if _, err := New(one, []float64{}, one); err == nil {
		t.Error("empty axis accepted")
	}
	if _, err := New([]float64{1, 1}, one, one); err == nil {
		t.Error("non-increasing axis accepted")
	}
	if _, err := New(one, one, []float64{2, 1}); err == nil {
		t.Error("decreasing axis accepted")
	}
}

func TestSetAtRoundtrip(t *testing.T) {
	g, err := New([]float64{0, 1}, []float64{0, 1, 2}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	g.Set(7, 1, 2, 0)
	if got := g.At(1, 2, 0); got != 7 {
		t.Errorf("At = %g", got)
	}
	if g.Len() != 6 {
		t.Errorf("Len=%d", g.Len())
	}
}

func TestEvalExactAtNodes(t *testing.T) {
	g, _ := New([]float64{0, 1, 3}, []float64{-1, 2}, []float64{0})
	err := g.Fill(func(x0, x1, _ float64) (float64, error) { return x0*10 + x1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1, 3} {
		for _, y := range []float64{-1, 2} {
			if got := g.Eval(x, y, 0); math.Abs(got-(x*10+y)) > 1e-12 {
				t.Errorf("Eval(%g,%g) = %g, want %g", x, y, got, x*10+y)
			}
		}
	}
}

// TestMultilinearReproducesAffine: a multilinear interpolant is exact for
// affine functions everywhere inside the grid, over one, two or three real
// axes (the rest single-point).
func TestMultilinearReproducesAffine(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(3)
		var axes [3][]float64
		for d := range axes {
			n := 1
			if d < dims {
				n = 2 + r.Intn(4)
			}
			ax := make([]float64, n)
			x := r.Float64()
			for i := range ax {
				ax[i] = x
				x += 0.1 + r.Float64()
			}
			axes[d] = ax
		}
		g, err := New(axes[0], axes[1], axes[2])
		if err != nil {
			return false
		}
		var coef [4]float64
		for i := range coef {
			coef[i] = r.NormFloat64()
		}
		affine := func(x0, x1, x2 float64) (float64, error) {
			return coef[0] + coef[1]*x0 + coef[2]*x1 + coef[3]*x2, nil
		}
		if err := g.Fill(affine); err != nil {
			return false
		}
		// Random interior points.
		var pt [3]float64
		for k := 0; k < 20; k++ {
			for d := range pt {
				ax := axes[d]
				pt[d] = ax[0] + r.Float64()*(ax[len(ax)-1]-ax[0])
			}
			want, _ := affine(pt[0], pt[1], pt[2])
			if math.Abs(g.Eval(pt[0], pt[1], pt[2])-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEvalClampsOutside(t *testing.T) {
	g, _ := New([]float64{0, 1}, []float64{0}, []float64{0})
	g.Set(2, 0, 0, 0)
	g.Set(8, 1, 0, 0)
	if got := g.Eval(-5, 3, -3); got != 2 {
		t.Errorf("clamped low = %g", got)
	}
	if got := g.Eval(99, -3, 3); got != 8 {
		t.Errorf("clamped high = %g", got)
	}
}

func TestSingletonAxis(t *testing.T) {
	g, _ := New([]float64{1}, []float64{0, 1}, []float64{2})
	g.Set(3, 0, 0, 0)
	g.Set(5, 0, 1, 0)
	if got := g.Eval(42, 0.5, -7); math.Abs(got-4) > 1e-12 {
		t.Errorf("singleton-axis eval = %g, want 4", got)
	}
}

func TestJSONRoundtrip(t *testing.T) {
	g, _ := New([]float64{0, 1}, []float64{0, 2, 4}, []float64{-1, 3})
	if err := g.Fill(func(x0, x1, x2 float64) (float64, error) { return x0 + x1*x1 - x2, nil }); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Grid
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Len() {
		t.Fatalf("shape lost: %d samples, want %d", back.Len(), g.Len())
	}
	for _, x := range []float64{0, 0.3, 1} {
		for _, y := range []float64{0, 1.7, 4} {
			for _, z := range []float64{-1, 0.4, 3} {
				if a, b := g.Eval(x, y, z), back.Eval(x, y, z); math.Abs(a-b) > 1e-12 {
					t.Errorf("roundtrip eval(%g,%g,%g): %g vs %g", x, y, z, a, b)
				}
			}
		}
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	var g Grid
	if err := json.Unmarshal([]byte(`{"axes":[[0,1],[0],[0]],"values":[1,2,3]}`), &g); err == nil {
		t.Error("mismatched value count accepted")
	}
	if err := json.Unmarshal([]byte(`{"axes":[[1,0],[0],[0]],"values":[1,2]}`), &g); err == nil {
		t.Error("unsorted axis accepted")
	}
}

// TestJSONRejectsWrongRank: a grid of any rank but 3 fails to decode, with
// an error naming its axis count, so Eval and Slice never see one. The
// rank-1 case is the grid Eval once rejected by panicking on a rank
// mismatch, the rank-2 case the one Slice did.
func TestJSONRejectsWrongRank(t *testing.T) {
	for _, tc := range []struct {
		n            int
		axes, values string
	}{
		{1, `[[0,1]]`, `[1,2]`},
		{2, `[[0,1],[0,1]]`, `[1,2,3,4]`},
		{4, `[[0,1],[0],[0],[0]]`, `[1,2]`},
	} {
		n := tc.n
		t.Run(fmt.Sprintf("axes=%d", n), func(t *testing.T) {
			var g Grid
			err := json.Unmarshal([]byte(`{"axes":`+tc.axes+`,"values":`+tc.values+`}`), &g)
			if err == nil {
				t.Fatalf("grid with %d axes accepted", n)
			}
			if want := fmt.Sprintf("%d axes", n); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name the axis count (%q)", err, want)
			}
		})
	}
}

func TestFillErrorPropagates(t *testing.T) {
	g, _ := New([]float64{0, 1}, []float64{0}, []float64{0})
	err := g.Fill(func(x0, _, _ float64) (float64, error) {
		if x0 == 1 {
			return 0, errTest
		}
		return 1, nil
	})
	if err == nil {
		t.Error("fill error swallowed")
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "test error" }

func TestLinSpace(t *testing.T) {
	v := LinSpace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Errorf("LinSpace[%d] = %g", i, v[i])
		}
	}
	if got := LinSpace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("LinSpace n=1 = %v", got)
	}
}

func TestLogSpace(t *testing.T) {
	v := LogSpace(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-9 {
			t.Errorf("LogSpace[%d] = %g, want %g", i, v[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("LogSpace with lo<=0 should panic")
		}
	}()
	LogSpace(0, 1, 3)
}
