package table

import (
	"math"
	"math/rand"
	"testing"
)

// randAxis returns n strictly increasing coordinates with random spacing.
func randAxis(rng *rand.Rand, n int) []float64 {
	ax := make([]float64, n)
	x := rng.NormFloat64() * 3
	for i := range ax {
		ax[i] = x
		x += 0.01 + rng.ExpFloat64()
	}
	return ax
}

// randGrid builds a rank-3 grid with random axes (lengths 1–6 on the fixed
// axes, 1–17 on the third) and random, non-monotone values.
func randGrid(t *testing.T, rng *rand.Rand) *Grid {
	t.Helper()
	g, err := New(randAxis(rng, 1+rng.Intn(6)), randAxis(rng, 1+rng.Intn(6)), randAxis(rng, 1+rng.Intn(17)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.values {
		switch rng.Intn(8) {
		case 0:
			g.values[i] = 0
		case 1:
			g.values[i] = -rng.ExpFloat64() * 1e6
		default:
			g.values[i] = rng.NormFloat64()
		}
	}
	return g
}

// probe picks a coordinate for axis ax: inside a cell, exactly on a node,
// or outside the axis on either side.
func probe(rng *rand.Rand, ax []float64) float64 {
	lo, hi := ax[0], ax[len(ax)-1]
	switch rng.Intn(5) {
	case 0:
		return ax[rng.Intn(len(ax))]
	case 1:
		return lo - rng.ExpFloat64()
	case 2:
		return hi + rng.ExpFloat64()
	default:
		return lo + (hi-lo+1)*rng.Float64() - 0.5
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSliceMatchesEval: a slice returns Eval's bits at every third-axis
// coordinate — inside cells, on nodes and outside the axis — on random,
// non-monotone grids, including single-point fixed axes and fixed
// coordinates outside or on the axes.
func TestSliceMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := 0
	for trial := 0; trial < 2000; trial++ {
		g := randGrid(t, rng)
		c0, c1 := probe(rng, g.axes[0]), probe(rng, g.axes[1])
		sl := g.Slice(c0, c1)
		for k := 0; k < 50; k++ {
			x := probe(rng, g.axes[2])
			if got, want := sl.Eval(x), g.Eval(c0, c1, x); !sameBits(got, want) {
				t.Fatalf("trial %d: Slice(%v, %v).Eval(%v) = %v (%x), Eval = %v (%x)",
					trial, c0, c1, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			points++
		}
	}
	if points < 100000 {
		t.Fatalf("only %d points compared", points)
	}
}

// TestSliceBisectionMatchesEval replays full 60-step bisections over the
// third axis — the access pattern of the glitch and pulse judgments, where
// the slice reuses its located cell between steps — and checks every step
// against Eval, with verdicts from a random threshold so the bracket moves
// both ways.
func TestSliceBisectionMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		g := randGrid(t, rng)
		c0, c1 := probe(rng, g.axes[0]), probe(rng, g.axes[1])
		sl := g.Slice(c0, c1)
		lo, hi := g.Span(2)
		if lo != g.axes[2][0] || hi != g.axes[2][len(g.axes[2])-1] {
			t.Fatalf("Span(2) = %v, %v", lo, hi)
		}
		level := rng.NormFloat64()
		for i := 0; i < 60; i++ {
			mid := 0.5 * (lo + hi)
			got, want := sl.Eval(mid), g.Eval(c0, c1, mid)
			if !sameBits(got, want) {
				t.Fatalf("trial %d step %d: Slice.Eval(%v) = %v, Eval = %v", trial, i, mid, got, want)
			}
			if got >= level {
				hi = mid
			} else {
				lo = mid
			}
		}
	}
}

// TestSliceAllocFree: building and evaluating a slice allocates nothing.
func TestSliceAllocFree(t *testing.T) {
	g := MustNew([]float64{0, 1, 2}, []float64{0, 1}, LinSpace(-1, 1, 9))
	if allocs := testing.AllocsPerRun(100, func() {
		sl := g.Slice(0.5, 0.25)
		lo, hi := g.Span(2)
		sl.Eval(0.5 * (lo + hi))
	}); allocs != 0 {
		t.Errorf("Slice/Span/Eval allocate %.1f objects per run", allocs)
	}
}
