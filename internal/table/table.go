// Package table implements rank-3 regular-grid lookup tables with trilinear
// interpolation and clamped extrapolation. The paper's dual-input proximity
// macromodels D(2) and T(2) are three-argument functions of normalized
// temporal parameters; the practical storage for them (Section 4, Figure
// 4-2) is exactly this kind of table, and so are the Section-6
// extreme-voltage grids.
package table

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Grid is a table over a rectangular grid of sample points on three axes,
// stored row-major (axis 2 varies fastest).
type Grid struct {
	axes   [3][]float64
	values []float64
	s0, s1 int // strides of axes 0 and 1; axis 2's is 1
}

// New creates a grid over the given axes. Each axis must be strictly
// increasing and contain at least one point. Values are initialized to zero.
func New(a0, a1, a2 []float64) (*Grid, error) {
	g := &Grid{}
	for d, ax := range [3][]float64{a0, a1, a2} {
		if len(ax) == 0 {
			return nil, fmt.Errorf("table: axis %d is empty", d)
		}
		for i := 1; i < len(ax); i++ {
			if ax[i] <= ax[i-1] {
				return nil, fmt.Errorf("table: axis %d must strictly increase (index %d: %g after %g)",
					d, i, ax[i], ax[i-1])
			}
		}
		g.axes[d] = append([]float64(nil), ax...)
	}
	g.s1 = len(a2)
	g.s0 = len(a1) * g.s1
	g.values = make([]float64, len(a0)*g.s0)
	return g, nil
}

// MustNew is New that panics on error, for callers with literal axes known
// to be valid (tests, synthetic models).
func MustNew(a0, a1, a2 []float64) *Grid {
	g, err := New(a0, a1, a2)
	if err != nil {
		panic(err)
	}
	return g
}

// Axis returns a copy of axis d's sample coordinates.
func (g *Grid) Axis(d int) []float64 { return append([]float64(nil), g.axes[d]...) }

// Len returns the total number of stored samples.
func (g *Grid) Len() int { return len(g.values) }

// flat converts an index triple to the flattened offset.
func (g *Grid) flat(i, j, k int) int {
	for d, x := range [3]int{i, j, k} {
		if x < 0 || x >= len(g.axes[d]) {
			panic(fmt.Sprintf("table: index %d out of range on axis %d (len %d)", x, d, len(g.axes[d])))
		}
	}
	return i*g.s0 + j*g.s1 + k
}

// At returns the stored sample at index (i, j, k).
func (g *Grid) At(i, j, k int) float64 { return g.values[g.flat(i, j, k)] }

// Set stores a sample at index (i, j, k).
func (g *Grid) Set(v float64, i, j, k int) { g.values[g.flat(i, j, k)] = v }

// Fill evaluates f at every grid point, axis 2 fastest, and stores the
// result. Fill returns the first error from f and stops.
func (g *Grid) Fill(f func(x0, x1, x2 float64) (float64, error)) error {
	n := 0
	for _, x0 := range g.axes[0] {
		for _, x1 := range g.axes[1] {
			for _, x2 := range g.axes[2] {
				v, err := f(x0, x1, x2)
				if err != nil {
					return fmt.Errorf("table: fill at [%v %v %v]: %w", x0, x1, x2, err)
				}
				g.values[n] = v
				n++
			}
		}
	}
	return nil
}

// locate finds the cell and interpolation fraction on axis d for coordinate
// x, clamping outside the axis range (constant extrapolation).
func (g *Grid) locate(d int, x float64) (i int, frac float64) {
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

// Eval interpolates the table at (c0, c1, c2), trilinear with clamped
// extrapolation: a one-shot Slice. It performs no heap allocation — Eval
// sits on the per-gate hot path of the proximity STA.
func (g *Grid) Eval(c0, c1, c2 float64) float64 {
	s := g.Slice(c0, c1)
	i, f := g.locate(2, c2)
	return s.sum(i, f)
}

// Span returns the first and last sample coordinates of axis d. Unlike
// Axis it copies nothing, so per-call callers (the glitch bisections)
// allocate nothing.
func (g *Grid) Span(d int) (lo, hi float64) {
	ax := g.axes[d]
	return ax[0], ax[len(ax)-1]
}

// Slice is a grid with its first two coordinates fixed: the 1-D function
// x ↦ Eval(c0, c1, x) that a bisection along the third axis walks. It holds
// the loop-invariant part of the corner sum: each of the four (axis 0,
// axis 1) corner weights a0·a1 and offsets. A call then locates only the
// third coordinate, multiplies each weight by that axis's weight and sums
// the eight corners, axis-2 low corners first, skipping zero weights. Eval
// is a one-shot slice, so this is the grid's only corner sum.
//
// A bisection narrows onto one third-axis cell within a few steps, so the
// slice also keeps the last cell a coordinate fell strictly inside and its
// bounds. A coordinate strictly inside that cell gets the fraction the
// binary search would compute, (x − lo)/(hi − lo), without the search;
// node hits and coordinates outside the cell take the full path.
type Slice struct {
	g   *Grid
	w   [4]float64 // a0·a1 per corner, bit 0 = axis 0 high, bit 1 = axis 1 high
	off [4]int     // flat offset of that corner at third-axis index 0

	cell          int     // cached third-axis cell (-1: none)
	lo, hi, width float64 // its bounds and hi − lo
}

// Slice fixes the first two coordinates.
func (g *Grid) Slice(c0, c1 float64) Slice {
	i0, f0 := g.locate(0, c0)
	i1, f1 := g.locate(1, c1)
	// A single-point axis keeps its high corner on the one node.
	h0, h1 := i0, i1
	if len(g.axes[0]) > 1 {
		h0++
	}
	if len(g.axes[1]) > 1 {
		h1++
	}
	return Slice{
		g:    g,
		w:    [4]float64{(1 - f0) * (1 - f1), f0 * (1 - f1), (1 - f0) * f1, f0 * f1},
		off:  [4]int{i0*g.s0 + i1*g.s1, h0*g.s0 + i1*g.s1, i0*g.s0 + h1*g.s1, h0*g.s0 + h1*g.s1},
		cell: -1,
	}
}

// Eval interpolates the slice at third coordinate x: bit-identical to the
// grid's Eval(c0, c1, x).
func (s *Slice) Eval(x float64) float64 {
	if s.cell >= 0 && s.lo < x && x < s.hi {
		return s.sum(s.cell, (x-s.lo)/s.width)
	}
	ax := s.g.axes[2]
	i, f := s.g.locate(2, x)
	if ax[i] < x && i+1 < len(ax) && x < ax[i+1] {
		s.cell, s.lo, s.hi, s.width = i, ax[i], ax[i+1], ax[i+1]-ax[i]
	}
	return s.sum(i, f)
}

// sum is the corner sum at third-axis cell i and fraction f.
func (s *Slice) sum(i int, f float64) float64 {
	v := s.g.values
	h := i
	if len(s.g.axes[2]) > 1 {
		h++
	}
	total := 0.0
	for c, w := range s.w {
		if w *= 1 - f; w != 0 {
			total += w * v[s.off[c]+i]
		}
	}
	for c, w := range s.w {
		if w *= f; w != 0 {
			total += w * v[s.off[c]+h]
		}
	}
	return total
}

// Boundary bisects for the smallest w in [lo, hi] at which the slice,
// read at x = w (x = −w when mirrored), reaches level: at or above it when
// rising, at or below it otherwise — for a crossing that holds at and above
// one boundary (the inertial-delay searches of the glitch and pulse
// models). It returns lo when lo already reaches the level, else the
// boundary bisected 60 times (the upper end of the final bracket). When hi
// does not reach it either, it returns +Inf and false, so a caller that
// ignores ok and compares a width against the result still concludes
// "never reaches" rather than "every width reaches".
//
// Once the bracket is two adjacent floats, the midpoint rounds onto lo or
// hi, whose verdicts are known (false and true), so no later step can move
// the bracket; the loop stops there with the bits 60 steps would give.
func (s *Slice) Boundary(lo, hi float64, mirrored, rising bool, level float64) (float64, bool) {
	reaches := func(w float64) bool {
		if mirrored {
			w = -w
		}
		v := s.Eval(w)
		if rising {
			return v >= level
		}
		return v <= level
	}
	if !reaches(hi) {
		return math.Inf(1), false
	}
	if reaches(lo) {
		return lo, true
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		if reaches(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// gridJSON is the serialized form.
type gridJSON struct {
	Axes   [][]float64 `json:"axes"`
	Values []float64   `json:"values"`
}

// MarshalJSON serializes the grid.
func (g *Grid) MarshalJSON() ([]byte, error) {
	return json.Marshal(gridJSON{Axes: g.axes[:], Values: g.values})
}

// UnmarshalJSON restores a grid.
func (g *Grid) UnmarshalJSON(data []byte) error {
	var j gridJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Axes) != 3 {
		return fmt.Errorf("table: %d axes, want 3", len(j.Axes))
	}
	ng, err := New(j.Axes[0], j.Axes[1], j.Axes[2])
	if err != nil {
		return err
	}
	if len(j.Values) != len(ng.values) {
		return fmt.Errorf("table: value count %d does not match axes (want %d)", len(j.Values), len(ng.values))
	}
	copy(ng.values, j.Values)
	*g = *ng
	return nil
}

// LinSpace returns n evenly spaced points over [lo, hi].
func LinSpace(lo, hi float64, n int) []float64 {
	if n < 1 {
		panic("table: LinSpace needs n >= 1")
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// LogSpace returns n logarithmically spaced points over [lo, hi] (both > 0).
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo {
		panic("table: LogSpace needs 0 < lo < hi")
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	out[n-1] = hi
	return out
}
