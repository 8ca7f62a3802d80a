package table

// A verbatim copy of the rank-d interpolation kernels as they stood before
// Grid became rank 3 (variadic coordinates, a stride slice, the 2^d corner
// loop with its per-axis inner loop, and the recursive cubic), kept as the
// bit-exactness reference for TestKernelsMatchReference. Only names
// changed: the receiver is refGrid and the slope helper is refWeightedSlope.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refGrid is the old Grid's layout.
type refGrid struct {
	axes   [][]float64
	values []float64
	stride []int
}

// refOf views a grid's axes and values through the old layout.
func refOf(g *Grid) *refGrid {
	r := &refGrid{axes: g.axes[:], values: g.values}
	r.buildStrides()
	return r
}

func (g *refGrid) buildStrides() {
	d := len(g.axes)
	g.stride = make([]int, d)
	s := 1
	for i := d - 1; i >= 0; i-- {
		g.stride[i] = s
		s *= len(g.axes[i])
	}
}

// flat converts a multi-index to the flattened offset.
func (g *refGrid) flat(idx []int) int {
	if len(idx) != len(g.axes) {
		panic(fmt.Sprintf("table: index rank %d, grid rank %d", len(idx), len(g.axes)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= len(g.axes[d]) {
			panic(fmt.Sprintf("table: index %d out of range on axis %d (len %d)", i, d, len(g.axes[d])))
		}
		off += i * g.stride[d]
	}
	return off
}

// locate finds the cell and interpolation fraction on axis d for coordinate
// x, clamping outside the axis range (constant extrapolation).
func (g *refGrid) locate(d int, x float64) (i int, frac float64) {
	ax := g.axes[d]
	n := len(ax)
	if n == 1 {
		return 0, 0
	}
	if x <= ax[0] {
		return 0, 0
	}
	if x >= ax[n-1] {
		return n - 2, 1
	}
	i = sort.SearchFloat64s(ax, x)
	if ax[i] == x {
		if i == n-1 {
			return n - 2, 1
		}
		return i, 0
	}
	i--
	return i, (x - ax[i]) / (ax[i+1] - ax[i])
}

// Eval interpolates the table at the given coordinates (multilinear with
// clamped extrapolation). It performs no heap allocation for grids of rank
// ≤ 4 — Eval sits on the per-gate hot path of the proximity STA.
func (g *refGrid) Eval(coords ...float64) float64 {
	d := len(g.axes)
	if len(coords) != d {
		panic(fmt.Sprintf("table: eval rank %d, grid rank %d", len(coords), d))
	}
	var baseArr [4]int
	var fracArr [4]float64
	var base []int
	var frac []float64
	if d <= len(baseArr) {
		base, frac = baseArr[:d], fracArr[:d]
	} else {
		base, frac = make([]int, d), make([]float64, d)
	}
	for k := 0; k < d; k++ {
		base[k], frac[k] = g.locate(k, coords[k])
	}
	// Sum over the 2^d corners of the containing cell.
	total := 0.0
	for corner := 0; corner < (1 << d); corner++ {
		w := 1.0
		off := 0
		for k := 0; k < d; k++ {
			i := base[k]
			if corner&(1<<k) != 0 {
				// High corner on axis k.
				if len(g.axes[k]) > 1 {
					i++
				}
				w *= frac[k]
			} else {
				w *= 1 - frac[k]
			}
			off += i * g.stride[k]
		}
		if w != 0 {
			total += w * g.values[off]
		}
	}
	return total
}

// EvalCubic interpolates the table at the given coordinates using
// tensor-product cubic Hermite splines with non-uniform finite-difference
// slopes.
func (g *refGrid) EvalCubic(coords ...float64) float64 {
	d := len(g.axes)
	if len(coords) != d {
		panic("table: eval rank mismatch")
	}
	// Eval's stack bound: rank <= 4 evaluates without allocating.
	var idxArr [4]int
	var idx []int
	if d <= len(idxArr) {
		idx = idxArr[:d]
	} else {
		idx = make([]int, d)
	}
	return g.cubicAxis(0, idx, coords)
}

// cubicAxis recursively interpolates along axis k, with idx[0:k] fixed.
func (g *refGrid) cubicAxis(k int, idx []int, coords []float64) float64 {
	ax := g.axes[k]
	n := len(ax)
	last := k == len(g.axes)-1

	sample := func(i int) float64 {
		idx[k] = i
		if last {
			return g.values[g.flat(idx)]
		}
		return g.cubicAxis(k+1, idx, coords)
	}

	x := coords[k]
	if n == 1 {
		return sample(0)
	}
	// Locate the cell (clamped).
	i, frac := g.locate(k, x)
	x1, x2 := ax[i], ax[i+1]
	h := x2 - x1
	y1 := sample(i)
	y2 := sample(i + 1)
	if frac <= 0 {
		return y1
	}
	if frac >= 1 {
		return y2
	}
	// Finite-difference slopes; one-sided at the edges.
	m1 := (y2 - y1) / h
	if i > 0 {
		x0 := ax[i-1]
		y0 := sample(i - 1)
		m1 = refWeightedSlope(x0, x1, x2, y0, y1, y2)
	}
	m2 := (y2 - y1) / h
	if i+2 < n {
		x3 := ax[i+2]
		y3 := sample(i + 2)
		m2 = refWeightedSlope(x1, x2, x3, y1, y2, y3)
	}
	// Cubic Hermite basis on [0,1].
	t := frac
	t2 := t * t
	t3 := t2 * t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*y1 + h10*h*m1 + h01*y2 + h11*h*m2
}

// refWeightedSlope estimates dy/dx at the middle point of three
// non-uniformly spaced samples (the classic three-point formula).
func refWeightedSlope(x0, x1, x2, y0, y1, y2 float64) float64 {
	h0 := x1 - x0
	h1 := x2 - x1
	return (y2*h0*h0 + y1*(h1*h1-h0*h0) - y0*h1*h1) / (h0 * h1 * (h0 + h1))
}

// TestKernelsMatchReference: Eval and EvalCubic return the rank-d
// reference's bits on random, non-monotone grids with single-point axes
// (some with an infinite sample), at coordinates inside cells, on nodes and
// clamped on either side. No answer digest pins the cubic path, so this is
// its only bit-level guard.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := 0
	for trial := 0; trial < 2500; trial++ {
		g := randGrid(t, rng)
		if trial%8 == 0 {
			// An infinite sample turns every skipped zero weight and every
			// shortcut that drops a zero term into a NaN, so only the
			// same operations give the same bits.
			g.values[rng.Intn(len(g.values))] = math.Inf(1 - 2*rng.Intn(2))
		}
		ref := refOf(g)
		for k := 0; k < 50; k++ {
			c0, c1, c2 := probe(rng, g.axes[0]), probe(rng, g.axes[1]), probe(rng, g.axes[2])
			if got, want := g.Eval(c0, c1, c2), ref.Eval(c0, c1, c2); !sameBits(got, want) {
				t.Fatalf("trial %d: Eval(%v, %v, %v) = %v (%x), reference %v (%x)",
					trial, c0, c1, c2, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := g.EvalCubic(c0, c1, c2), ref.EvalCubic(c0, c1, c2); !sameBits(got, want) {
				t.Fatalf("trial %d: EvalCubic(%v, %v, %v) = %v (%x), reference %v (%x)",
					trial, c0, c1, c2, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			points++
		}
	}
	if points < 100000 {
		t.Fatalf("only %d points compared", points)
	}
}
