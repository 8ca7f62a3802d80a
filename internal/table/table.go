// Package table implements regular-grid N-dimensional lookup tables with
// multilinear interpolation and clamped extrapolation. The paper's dual-input
// proximity macromodels D(2) and T(2) are three-argument functions of
// normalized temporal parameters; the practical storage for them (Section 4,
// Figure 4-2) is exactly this kind of table.
package table

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Grid is an N-dimensional table over a rectangular grid of sample points.
type Grid struct {
	axes   [][]float64
	values []float64
	stride []int
}

// New creates a grid over the given axes. Each axis must be strictly
// increasing and contain at least one point. Values are initialized to zero.
func New(axes ...[]float64) (*Grid, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("table: need at least one axis")
	}
	total := 1
	cp := make([][]float64, len(axes))
	for d, ax := range axes {
		if len(ax) == 0 {
			return nil, fmt.Errorf("table: axis %d is empty", d)
		}
		for i := 1; i < len(ax); i++ {
			if ax[i] <= ax[i-1] {
				return nil, fmt.Errorf("table: axis %d must strictly increase (index %d: %g after %g)",
					d, i, ax[i], ax[i-1])
			}
		}
		cp[d] = append([]float64(nil), ax...)
		total *= len(ax)
	}
	g := &Grid{axes: cp, values: make([]float64, total)}
	g.buildStrides()
	return g, nil
}

// MustNew is New that panics on error, for callers with literal axes known
// to be valid (tests, synthetic models).
func MustNew(axes ...[]float64) *Grid {
	g, err := New(axes...)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Grid) buildStrides() {
	d := len(g.axes)
	g.stride = make([]int, d)
	s := 1
	for i := d - 1; i >= 0; i-- {
		g.stride[i] = s
		s *= len(g.axes[i])
	}
}

// Dims returns the number of axes.
func (g *Grid) Dims() int { return len(g.axes) }

// Axis returns a copy of axis d's sample coordinates.
func (g *Grid) Axis(d int) []float64 { return append([]float64(nil), g.axes[d]...) }

// Len returns the total number of stored samples.
func (g *Grid) Len() int { return len(g.values) }

// flat converts a multi-index to the flattened offset.
func (g *Grid) flat(idx []int) int {
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

// At returns the stored sample at a multi-index.
func (g *Grid) At(idx ...int) float64 { return g.values[g.flat(idx)] }

// Set stores a sample at a multi-index.
func (g *Grid) Set(v float64, idx ...int) { g.values[g.flat(idx)] = v }

// Fill evaluates f at every grid point and stores the result. The coords
// slice passed to f is reused; copy it if retained. Fill returns the first
// error from f and stops.
func (g *Grid) Fill(f func(coords []float64) (float64, error)) error {
	d := len(g.axes)
	idx := make([]int, d)
	coords := make([]float64, d)
	for {
		for k := 0; k < d; k++ {
			coords[k] = g.axes[k][idx[k]]
		}
		v, err := f(coords)
		if err != nil {
			return fmt.Errorf("table: fill at %v: %w", coords, err)
		}
		g.values[g.flat(idx)] = v
		// Advance the multi-index.
		k := d - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(g.axes[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return nil
		}
	}
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

// Eval interpolates the table at the given coordinates (multilinear with
// clamped extrapolation). It performs no heap allocation for grids of rank
// ≤ 4 — Eval sits on the per-gate hot path of the proximity STA.
func (g *Grid) Eval(coords ...float64) float64 {
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

// Span returns the first and last sample coordinates of axis d. Unlike
// Axis it copies nothing, so per-call callers (the glitch bisections)
// allocate nothing.
func (g *Grid) Span(d int) (lo, hi float64) {
	ax := g.axes[d]
	return ax[0], ax[len(ax)-1]
}

// Slice is a rank-3 grid with its first two coordinates fixed: the 1-D
// function x ↦ Eval(c0, c1, x) that a bisection along the third axis walks.
// Slice.Eval returns exactly what Eval would, bit for bit, because it
// replays Eval's operation order with the loop-invariant part hoisted: each
// of the four (axis 0, axis 1) corner weights is the same product
// (1·a0)·a1 Eval forms, computed once here instead of once per call; a
// call then locates only the third coordinate, multiplies each hoisted
// weight by that axis's weight and sums the eight corners in Eval's corner
// order (axis-2 low corners first), skipping zero weights as Eval does.
//
// A bisection narrows onto one third-axis cell within a few steps, so the
// slice also keeps the last cell a coordinate fell strictly inside — its
// bounds, its width and its eight corner values. A coordinate strictly
// inside that cell gets the fraction Eval's binary search would compute,
// (x − lo)/(hi − lo), without the search; node hits and coordinates
// outside the cell take the full path.
type Slice struct {
	g   *Grid
	w   [4]float64 // (1·a0)·a1 per corner, bit 0 = axis 0 high, bit 1 = axis 1 high
	off [4]int     // flat offset of that corner at third-axis index 0

	cell     int        // cached third-axis cell (-1: none)
	lo, hi   float64    // its bounds
	width    float64    // hi − lo
	vlo, vhi [4]float64 // corner values at its low and high edge
}

// Slice fixes the first two coordinates of a rank-3 grid.
func (g *Grid) Slice(c0, c1 float64) Slice {
	if len(g.axes) != 3 {
		panic(fmt.Sprintf("table: slice of a rank-%d grid, want rank 3", len(g.axes)))
	}
	i0, f0 := g.locate(0, c0)
	i1, f1 := g.locate(1, c1)
	s := Slice{g: g, cell: -1}
	for corner := 0; corner < 4; corner++ {
		w := 1.0
		i, j := i0, i1
		if corner&1 != 0 {
			if len(g.axes[0]) > 1 {
				i++
			}
			w *= f0
		} else {
			w *= 1 - f0
		}
		if corner&2 != 0 {
			if len(g.axes[1]) > 1 {
				j++
			}
			w *= f1
		} else {
			w *= 1 - f1
		}
		s.w[corner] = w
		s.off[corner] = i*g.stride[0] + j*g.stride[1]
	}
	return s
}

// Eval interpolates the slice at third coordinate x: bit-identical to the
// grid's Eval(c0, c1, x).
func (s *Slice) Eval(x float64) float64 {
	if s.cell >= 0 && s.lo < x && x < s.hi {
		return s.sum((x-s.lo)/s.width, &s.vlo, &s.vhi)
	}
	return s.locate(x)
}

// locate is Eval off the cached cell: it searches the third axis, caches
// the cell when x falls strictly inside one, and sums.
func (s *Slice) locate(x float64) float64 {
	g := s.g
	ax := g.axes[2]
	i, f := g.locate(2, x)
	if !(ax[i] < x && i+1 < len(ax) && x < ax[i+1]) {
		// A node, a clamped coordinate or a single-point axis: the general
		// corner sum.
		j := i
		if len(ax) > 1 {
			j++
		}
		var vlo, vhi [4]float64
		for corner := range vlo {
			vlo[corner] = g.values[s.off[corner]+i*g.stride[2]]
			vhi[corner] = g.values[s.off[corner]+j*g.stride[2]]
		}
		return s.sum(f, &vlo, &vhi)
	}
	s.cell, s.lo, s.hi, s.width = i, ax[i], ax[i+1], ax[i+1]-ax[i]
	for corner := range s.vlo {
		s.vlo[corner] = g.values[s.off[corner]+i*g.stride[2]]
		s.vhi[corner] = g.values[s.off[corner]+(i+1)*g.stride[2]]
	}
	return s.sum((x-s.lo)/s.width, &s.vlo, &s.vhi)
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

// sum is Eval's corner sum at third-axis fraction f over the corner values
// at the cell's low and high edge.
func (s *Slice) sum(f float64, vlo, vhi *[4]float64) float64 {
	total := 0.0
	for corner := 0; corner < 4; corner++ {
		if w := s.w[corner] * (1 - f); w != 0 {
			total += w * vlo[corner]
		}
	}
	for corner := 0; corner < 4; corner++ {
		if w := s.w[corner] * f; w != 0 {
			total += w * vhi[corner]
		}
	}
	return total
}

// gridJSON is the serialized form.
type gridJSON struct {
	Axes   [][]float64 `json:"axes"`
	Values []float64   `json:"values"`
}

// MarshalJSON serializes the grid.
func (g *Grid) MarshalJSON() ([]byte, error) {
	return json.Marshal(gridJSON{Axes: g.axes, Values: g.values})
}

// UnmarshalJSON restores a grid.
func (g *Grid) UnmarshalJSON(data []byte) error {
	var j gridJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	ng, err := New(j.Axes...)
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
