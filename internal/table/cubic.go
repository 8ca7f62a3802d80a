package table

// Cubic (tensor-product Hermite) interpolation. Multilinear interpolation
// of the proximity tables leaves percent-level kinks at grid lines; cubic
// interpolation with finite-difference slopes removes most of that error
// without refining the characterization grid. Evaluation degrades gracefully
// to linear behaviour at the grid edges (slopes are one-sided there) and
// clamps outside the grid like Eval.

// EvalCubic interpolates the table at the given coordinates using
// tensor-product cubic Hermite splines with non-uniform finite-difference
// slopes.
func (g *Grid) EvalCubic(coords ...float64) float64 {
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
func (g *Grid) cubicAxis(k int, idx []int, coords []float64) float64 {
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
		m1 = weightedSlope(x0, x1, x2, y0, y1, y2)
	}
	m2 := (y2 - y1) / h
	if i+2 < n {
		x3 := ax[i+2]
		y3 := sample(i + 2)
		m2 = weightedSlope(x1, x2, x3, y1, y2, y3)
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

// weightedSlope estimates dy/dx at the middle point of three non-uniformly
// spaced samples (the classic three-point formula).
func weightedSlope(x0, x1, x2, y0, y1, y2 float64) float64 {
	h0 := x1 - x0
	h1 := x2 - x1
	return (y2*h0*h0 + y1*(h1*h1-h0*h0) - y0*h1*h1) / (h0 * h1 * (h0 + h1))
}
