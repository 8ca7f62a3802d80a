package core

// A verbatim copy of the proximity evaluator as it stood before the
// allocation-free kernel (heap working set, *Result with Order, the table
// path behind the DualBackend interface, two single-model lookups and four
// logarithms per interpolation), kept as the bit-exactness reference for
// TestEvaluateMatchesLegacy. Only names changed (and the single-input
// interpolation is the old four-logarithm interpLogTau).

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// legacyResult is the old Result, Order included.
type legacyResult struct {
	Delay             float64
	OutputCross       float64
	OutTT             float64
	Dominant          int
	Order             []int
	UsedDelay, UsedTT int
	CorrectionApplied float64
}

// legacyInterpLogTau is the old SingleInputModel.interpLogTau: four
// logarithms per call, no cached nodes.
func legacyInterpLogTau(m *macromodel.SingleInputModel, ys []float64, tau float64) float64 {
	ax := m.TauAxis
	n := len(ax)
	if tau <= ax[0] {
		return ys[0]
	}
	if tau >= ax[n-1] {
		return ys[n-1]
	}
	i := sort.SearchFloat64s(ax, tau)
	if ax[i] == tau {
		return ys[i]
	}
	lo, hi := ax[i-1], ax[i]
	f := (math.Log(tau) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	return ys[i-1] + f*(ys[i]-ys[i-1])
}

// legacyTableBackend adapts the model's characterized grids to DualBackend.
type legacyTableBackend struct {
	m     *macromodel.GateModel
	cubic bool
}

func (b legacyTableBackend) Ratios(ref, other int, dir waveform.Direction,
	tauRef, tauOther, sStar, d1, tt1 float64) (float64, float64, error) {
	dm := b.m.Dual(ref, other, dir)
	if dm == nil {
		return 0, 0, fmt.Errorf("core: no dual-input model for ref pin %d %v", ref, dir)
	}
	x1 := tauRef / d1
	x2 := tauOther / d1
	x3 := sStar / d1
	if b.cubic {
		return dm.EvalDelayRatioCubic(x1, x2, x3), dm.EvalTTRatioCubic(x1, x2, x3), nil
	}
	return dm.EvalDelayRatio(x1, x2, x3), dm.EvalTTRatio(x1, x2, x3), nil
}

// legacyBackendOf is the old Calculator.backend without its atomic cache.
func legacyBackendOf(c *Calculator) DualBackend {
	if c.Dual != nil {
		return c.Dual
	}
	return &legacyTableBackend{c.Model, c.CubicTables}
}

func legacyEvaluate(c *Calculator, events []InputEvent, ex *Explain) (*legacyResult, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("core: no switching inputs")
	}
	dir := events[0].Dir
	for _, e := range events {
		if e.Dir != dir {
			return nil, fmt.Errorf("core: mixed transition directions; use the glitch model for opposite transitions")
		}
		// !(TT > 0) rather than TT <= 0: NaN fails every ordered comparison,
		// and a NaN or infinite event would poison the dominance sort and
		// every table lookup downstream.
		if !(e.TT > 0) || math.IsInf(e.TT, 1) {
			return nil, fmt.Errorf("core: non-positive or non-finite transition time %v on pin %d", e.TT, e.Pin)
		}
		if math.IsNaN(e.Cross) || math.IsInf(e.Cross, 0) {
			return nil, fmt.Errorf("core: non-finite crossing time %v on pin %d", e.Cross, e.Pin)
		}
		if c.Model.Single(e.Pin, dir) == nil {
			return nil, fmt.Errorf("core: pin %d has no single-input model for %v inputs", e.Pin, dir)
		}
	}

	// Solo delays and solo output-crossing times, carved from one backing
	// allocation (Evaluate runs once per gate arc on the STA hot path).
	buf := make([]float64, 3*len(events))
	d1 := buf[:len(events)]
	tt1 := buf[len(events) : 2*len(events)]
	solo := buf[2*len(events):]
	for i, e := range events {
		s := c.Model.Single(e.Pin, dir)
		d1[i] = legacyInterpLogTau(s, s.Delay, e.TT)
		tt1[i] = legacyInterpLogTau(s, s.OutTT, e.TT)
		solo[i] = e.Cross + d1[i]
	}

	// Step 1: dominance order. For first-cause (parallel-conduction)
	// networks the earliest solo output crossing dominates — the paper's
	// pairwise condition s_ij > Δi − Δj. For last-cause (series-completion)
	// networks the LATEST solo crossing dominates (the paper's "analogous
	// argument" for rising inputs).
	caus := c.Model.Causation(dir)
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	switch {
	case c.NaiveOrdering:
		keys := make([]float64, len(events))
		for i, e := range events {
			keys[i] = e.Cross
		}
		sortByKey(order, keys, false)
	case caus == macromodel.LastCause:
		sortByKey(order, solo, true)
	default:
		sortByKey(order, solo, false)
	}
	if ex != nil {
		ex.Dir = dir
		ex.Causation = caus
		ex.NaiveOrdering = c.NaiveOrdering
		ex.Inputs = make([]ExplainInput, len(events))
		for i, e := range events {
			ex.Inputs[i] = ExplainInput{
				Pin: e.Pin, Dir: e.Dir, TT: e.TT, Cross: e.Cross,
				D1: d1[i], TT1: tt1[i], Solo: solo[i],
			}
		}
		ex.Order = append([]int(nil), order...)
	}

	y1 := order[0]
	ref := events[y1]
	refD1 := d1[y1]
	refTT1 := tt1[y1]
	be := legacyBackendOf(c)

	// Delay pass. First-cause window: inputs arriving after the cumulative
	// output crossing (s ≥ Δ(i-1)) cannot influence the delay — the
	// paper's while-loop condition — and dominance ordering makes later
	// list entries only further away, so we stop at the first such input.
	// Last-cause window: an earlier input stops mattering once its ramp
	// and solo response have completed well before the reference acts
	// (s ≤ −(τ_i + Δ(1)_i)); τ varies per input, so lapsed inputs are
	// skipped rather than terminating the loop.
	cum := refD1
	usedDelay := 1
	lastSep := 0.0
	lastWindow := cum
	for k := 1; k < len(order); k++ {
		yi := order[k]
		s := events[yi].Cross - ref.Cross
		if caus == macromodel.FirstCause {
			if s >= cum {
				if ex != nil {
					// The breaking input and everything after it: dominance
					// ordering guarantees later entries are only further out.
					ex.Delay = append(ex.Delay, AbsorbStep{
						Input: yi, Pin: events[yi].Pin, S: s, Window: cum,
						Pruned: true, Reason: "arrives after the cumulative output crossing (s >= delta)",
					})
					for _, yj := range order[k+1:] {
						ex.Delay = append(ex.Delay, AbsorbStep{
							Input: yj, Pin: events[yj].Pin, S: events[yj].Cross - ref.Cross, Window: cum,
							Pruned: true, Reason: "beyond the window edge (dominance order: no later input can re-enter)",
						})
					}
				}
				break
			}
		} else if s <= -(events[yi].TT + d1[yi] + refD1) {
			if ex != nil {
				ex.Delay = append(ex.Delay, AbsorbStep{
					Input: yi, Pin: events[yi].Pin, S: s, Window: events[yi].TT + d1[yi] + refD1,
					Pruned: true, Reason: "lapsed: ramp and solo response complete before the reference acts",
				})
			}
			continue
		}
		sStar := s + refD1 - cum
		dr, tr, err := be.Ratios(ref.Pin, events[yi].Pin, dir, ref.TT, events[yi].TT, sStar, refD1, refTT1)
		if err != nil {
			return nil, err
		}
		if caus == macromodel.FirstCause {
			lastWindow = cum
		} else {
			lastWindow = events[yi].TT + d1[yi] + refD1
		}
		if ex != nil {
			ex.Delay = append(ex.Delay, AbsorbStep{
				Input: yi, Pin: events[yi].Pin, S: s, SStar: sStar, Window: lastWindow,
				X1: ref.TT / refD1, X2: events[yi].TT / refD1, X3: sStar / refD1,
				DRatio: dr, TRatio: tr, CumBefore: cum,
			})
		}
		cum += refD1 * (dr - 1)
		if cum < 1e-15 {
			cum = 1e-15 // delay stays positive by the threshold policy
		}
		if ex != nil {
			ex.Delay[len(ex.Delay)-1].CumAfter = cum
		}
		usedDelay++
		lastSep = s
	}

	// Transition-time pass (window Δ(i-1) + τ(i-1)). Transition-time
	// perturbation ratios compose multiplicatively: equivalent to the
	// paper's additive perturbation to first order, but it stays positive
	// when several inputs each speed the transition up strongly (additive
	// composition collapses to zero for simultaneous fast inputs).
	ttCum := refTT1
	dcum := refD1
	usedTT := 1
	lastSepTT := 0.0
	lastWindowTT := dcum + ttCum
	for k := 1; k < len(order); k++ {
		yi := order[k]
		s := events[yi].Cross - ref.Cross
		if caus == macromodel.FirstCause {
			if s >= dcum+ttCum {
				if ex != nil {
					ex.TT = append(ex.TT, AbsorbStep{
						Input: yi, Pin: events[yi].Pin, S: s, Window: dcum + ttCum,
						Pruned: true, Reason: "arrives after the output transition completes (s >= delta + tau_out)",
					})
					for _, yj := range order[k+1:] {
						ex.TT = append(ex.TT, AbsorbStep{
							Input: yj, Pin: events[yj].Pin, S: events[yj].Cross - ref.Cross, Window: dcum + ttCum,
							Pruned: true, Reason: "beyond the window edge (dominance order: no later input can re-enter)",
						})
					}
				}
				break
			}
			lastWindowTT = dcum + ttCum
		} else {
			if s <= -(events[yi].TT + d1[yi] + tt1[yi] + refD1) {
				if ex != nil {
					ex.TT = append(ex.TT, AbsorbStep{
						Input: yi, Pin: events[yi].Pin, S: s, Window: events[yi].TT + d1[yi] + tt1[yi] + refD1,
						Pruned: true, Reason: "lapsed: ramp, solo response and output transition complete before the reference acts",
					})
				}
				continue
			}
			lastWindowTT = events[yi].TT + d1[yi] + tt1[yi] + refD1
		}
		sStar := s + refD1 - dcum
		dr, tr, err := be.Ratios(ref.Pin, events[yi].Pin, dir, ref.TT, events[yi].TT, sStar, refD1, refTT1)
		if err != nil {
			return nil, err
		}
		if ex != nil {
			ex.TT = append(ex.TT, AbsorbStep{
				Input: yi, Pin: events[yi].Pin, S: s, SStar: sStar, Window: lastWindowTT,
				X1: ref.TT / refD1, X2: events[yi].TT / refD1, X3: sStar / refD1,
				DRatio: dr, TRatio: tr, CumBefore: ttCum,
			})
		}
		if tr > 0 {
			ttCum *= tr
		}
		// Track the delay evolution too: the TT window moves with it.
		if s < dcum {
			dcum += refD1 * (dr - 1)
			if dcum < 1e-15 {
				dcum = 1e-15
			}
		}
		if ex != nil {
			ex.TT[len(ex.TT)-1].CumAfter = ttCum
		}
		usedTT++
		lastSepTT = s
	}

	// Correction (Section 4): full magnitude when the last in-window input
	// is coincident-or-earlier (s ≤ 0), fading linearly to zero at the
	// window edge. Only multi-input compositions are corrected; each pass
	// uses its own window.
	// away converts a separation into "distance from coincidence in the
	// fading direction": late arrivals for first-cause networks, early
	// arrivals for last-cause (where every non-dominant input is early).
	away := func(sep float64) float64 {
		if caus == macromodel.LastCause {
			sep = -sep
		}
		if sep < 0 {
			return 0
		}
		return sep
	}
	corr := 0.0
	if !c.DisableCorrection {
		cc := c.Model.Correction(dir)
		if usedDelay >= 2 {
			factor := 1 - away(lastSep)/lastWindow
			if factor < 0 {
				factor = 0
			}
			corr = cc.Delay * factor
			cum += corr
			if cum < 1e-15 {
				cum = 1e-15
			}
			if ex != nil {
				ex.DelayCorrection = CorrectionTrace{Raw: cc.Delay, Factor: factor, Applied: corr}
			}
		}
		if usedTT >= 2 {
			factor := 1 - away(lastSepTT)/lastWindowTT
			if factor < 0 {
				factor = 0
			}
			ttCum += cc.OutTT * factor
			if ttCum < 1e-15 {
				ttCum = 1e-15
			}
			if ex != nil {
				ex.TTCorrection = CorrectionTrace{Raw: cc.OutTT, Factor: factor, Applied: cc.OutTT * factor}
			}
		}
	}

	return &legacyResult{
		Delay:             cum,
		OutputCross:       ref.Cross + cum,
		OutTT:             ttCum,
		Dominant:          ref.Pin,
		Order:             order,
		UsedDelay:         usedDelay,
		UsedTT:            usedTT,
		CorrectionApplied: corr,
	}, nil
}
