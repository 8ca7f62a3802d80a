package table

// Cubic (tensor-product Hermite) interpolation. Trilinear interpolation of
// the proximity tables leaves percent-level kinks at grid lines; cubic
// interpolation with finite-difference slopes removes most of that error
// without refining the characterization grid. Evaluation degrades gracefully
// to linear behaviour at the grid edges (slopes are one-sided there) and
// clamps outside the grid like Eval.

// EvalCubic interpolates the table at (c0, c1, c2) using tensor-product
// cubic Hermite splines with non-uniform finite-difference slopes: a 1-D
// pass along axis 0 over samples that are passes along axis 1, whose
// samples are passes along axis 2.
func (g *Grid) EvalCubic(c0, c1, c2 float64) float64 {
	return g.hermite(0, c0, func(i int) float64 {
		return g.hermite(1, c1, func(j int) float64 {
			return g.hermite(2, c2, func(k int) float64 {
				return g.values[i*g.s0+j*g.s1+k]
			})
		})
	})
}

// hermite interpolates along axis d at x over the samples y(i) at that
// axis's nodes.
func (g *Grid) hermite(d int, x float64, y func(i int) float64) float64 {
	ax := g.axes[d]
	n := len(ax)
	if n == 1 {
		return y(0)
	}
	// Locate the cell (clamped).
	i, frac := g.locate(d, x)
	if frac <= 0 {
		return y(i)
	}
	if frac >= 1 {
		return y(i + 1)
	}
	x1, x2 := ax[i], ax[i+1]
	h := x2 - x1
	y1, y2 := y(i), y(i+1)
	// Finite-difference slopes; one-sided at the edges.
	m1 := (y2 - y1) / h
	if i > 0 {
		m1 = weightedSlope(ax[i-1], x1, x2, y(i-1), y1, y2)
	}
	m2 := (y2 - y1) / h
	if i+2 < n {
		m2 = weightedSlope(x1, x2, ax[i+2], y1, y2, y(i+2))
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
