// Package core implements the paper's primary contribution: computing the
// propagation delay and output transition time of a multi-input gate whose
// inputs switch in close temporal proximity, by repeated application of a
// dual-input proximity macromodel (Sections 3 and 4 of the paper).
//
// The entry point is Calculator.Evaluate, which runs Algorithm
// ProximityDelay (Figure 4-1):
//
//  1. Order the switching inputs by dominance — input i dominates j when
//     its solo output response crosses the measurement threshold first
//     (equivalently, the paper's condition s_ij > Δ(1)_i − Δ(1)_j).
//  2. Seed the cumulative delay with the most dominant input's Δ(1).
//  3. For each next input inside the proximity window, represent the inputs
//     absorbed so far by an equivalent waveform y* (the dominant input
//     shifted so its solo response crosses the threshold where the
//     cumulative response would), apply the dual-input macromodel to
//     (y*, y_i), and update the cumulative delay:
//     Δ(i) = Δ(i-1) + Δ(1)·(D(2)(τ_y1/Δ(1), τ_yi/Δ(1), s*/Δ(1)) − 1).
//  4. Add the characterized step-input correction, scaled linearly from
//     full at s ≤ 0 to zero at the window edge.
//
// The output transition time is computed by the same loop with the T(2)
// tables and the wider transition-time proximity window Δ + τ_out.
package core

import (
	"fmt"
	"math"

	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// InputEvent is one switching input presented to the calculator.
type InputEvent struct {
	Pin int
	Dir waveform.Direction
	// TT is the input transition time (full-swing ramp duration).
	TT float64
	// Cross is the absolute time the input crosses its measurement level
	// (Vil rising, Vih falling).
	Cross float64
}

// DualBackend supplies the dual-input proximity ratios in place of the
// model's characterized tables (which the Calculator interpolates directly
// when no backend is set): the simulation-backed implementation reproduces
// the paper's validation methodology ("we used HSPICE as the macromodel for
// processing the dual-input case"), the analytic one evaluates fitted
// closed forms.
type DualBackend interface {
	// Ratios returns Δ(2)/Δ(1) and τ(2)/τ(1) for reference pin ref and
	// other pin switching in direction dir with the given physical
	// parameters. d1 and tt1 are the reference input's single-input delay
	// and output transition time (the normalizers).
	Ratios(ref, other int, dir waveform.Direction, tauRef, tauOther, sStar, d1, tt1 float64) (dRatio, tRatio float64, err error)
}

// Calculator evaluates proximity-aware delays against a characterized gate
// model.
//
// Concurrency: Evaluate and SingleDelay never mutate the Calculator or its
// Model, so one Calculator may be shared by any number of goroutines (the
// levelized STA engine relies on this) — provided the configuration fields
// below are not modified concurrently and the active DualBackend is itself
// safe: the default table path is read-only, SimBackend serializes its
// cache behind a mutex.
type Calculator struct {
	Model *macromodel.GateModel
	// Dual overrides the dual-input ratios (nil = interpolate the model's
	// tables directly).
	Dual DualBackend
	// DisableCorrection turns off the Section-4 corrective term (ablation).
	DisableCorrection bool
	// NaiveOrdering replaces dominance ordering with arrival-time ordering
	// (ablation of the paper's dominant-input identification).
	NaiveOrdering bool
	// CubicTables switches the table path to cubic Hermite interpolation
	// (smoother between characterization grid nodes).
	CubicTables bool
}

// NewCalculator builds a Calculator over the model's own tables.
func NewCalculator(m *macromodel.GateModel) *Calculator {
	return &Calculator{Model: m}
}

// Result is the outcome of a proximity evaluation.
type Result struct {
	// Delay is the propagation delay measured from the dominant input.
	Delay float64
	// OutputCross is the absolute time the output crosses its measurement
	// level.
	OutputCross float64
	// OutTT is the output transition time.
	OutTT float64
	// Dominant is the pin chosen as the most dominant input.
	Dominant int
	// UsedDelay and UsedTT count inputs inside the delay and
	// transition-time proximity windows (including the dominant input).
	UsedDelay, UsedTT int
	// CorrectionApplied is the correction actually added to Delay.
	CorrectionApplied float64
}

// stackFanin bounds the fan-in whose per-event working set (solo delays,
// transition times and crossings, the ordering key and the dominance order)
// Evaluate keeps in fixed-size arrays on its stack; wider gates take it
// from the heap.
const stackFanin = 8

// Evaluate runs Algorithm ProximityDelay over the events, which must all
// switch in the same direction (opposite-direction proximity is the glitch
// analysis; see InertialDelay). It allocates nothing on success for gates
// of up to stackFanin inputs on the table path.
func (c *Calculator) Evaluate(events []InputEvent) (Result, error) {
	return c.evaluate(events, nil)
}

// pairRatios returns the dual-input ratios of absorbing input e at
// equivalent separation sStar against the reference, through the Dual
// backend when one is set and straight from the model's tables otherwise.
// On the table path only the ratios a caller uses are interpolated: wantD
// and wantT select Δ(2)/Δ(1) and τ(2)/τ(1) (an unselected ratio reads 0).
func (c *Calculator) pairRatios(ref, e *InputEvent, dir waveform.Direction, sStar, refD1, refTT1 float64,
	wantD, wantT bool) (dr, tr float64, err error) {
	if c.Dual != nil {
		return c.Dual.Ratios(ref.Pin, e.Pin, dir, ref.TT, e.TT, sStar, refD1, refTT1)
	}
	dm := c.Model.Dual(ref.Pin, e.Pin, dir)
	if dm == nil {
		return 0, 0, fmt.Errorf("core: no dual-input model for ref pin %d %v", ref.Pin, dir)
	}
	x1 := ref.TT / refD1
	x2 := e.TT / refD1
	x3 := sStar / refD1
	switch {
	case c.CubicTables:
		if wantD {
			dr = dm.EvalDelayRatioCubic(x1, x2, x3)
		}
		if wantT {
			tr = dm.EvalTTRatioCubic(x1, x2, x3)
		}
	default:
		if wantD {
			dr = dm.EvalDelayRatio(x1, x2, x3)
		}
		if wantT {
			tr = dm.EvalTTRatio(x1, x2, x3)
		}
	}
	return dr, tr, nil
}

// evaluate is Evaluate with an optional decision-trace capture. ex == nil
// is the hot path: every capture hook is a dead nil-check, and the traced
// run computes the same values (EvaluateExplain's result is asserted
// bit-equal to Evaluate's in tests); it additionally interpolates the
// ratios only the trace reports.
func (c *Calculator) evaluate(events []InputEvent, ex *Explain) (Result, error) {
	n := len(events)
	if n == 0 {
		return Result{}, fmt.Errorf("core: no switching inputs")
	}
	// The per-event working set, on the stack up to stackFanin inputs.
	var (
		fbuf [4 * stackFanin]float64
		obuf [stackFanin]int
		sbuf [stackFanin]*macromodel.SingleInputModel
	)
	var fs []float64
	var order []int
	var singles []*macromodel.SingleInputModel
	if n <= stackFanin {
		fs, order, singles = fbuf[:], obuf[:n:n], sbuf[:n:n]
	} else {
		fs, order, singles = make([]float64, 4*n), make([]int, n), make([]*macromodel.SingleInputModel, n)
	}
	d1, tt1, solo, keys := fs[:n:n], fs[n:2*n:2*n], fs[2*n:3*n:3*n], fs[3*n:4*n:4*n]

	dir := events[0].Dir
	for i, e := range events {
		if e.Dir != dir {
			return Result{}, fmt.Errorf("core: mixed transition directions; use the glitch model for opposite transitions")
		}
		// !(TT > 0) rather than TT <= 0: NaN fails every ordered comparison,
		// and a NaN or infinite event would poison the dominance sort and
		// every table lookup downstream.
		if !(e.TT > 0) || math.IsInf(e.TT, 1) {
			return Result{}, fmt.Errorf("core: non-positive or non-finite transition time %v on pin %d", e.TT, e.Pin)
		}
		if math.IsNaN(e.Cross) || math.IsInf(e.Cross, 0) {
			return Result{}, fmt.Errorf("core: non-finite crossing time %v on pin %d", e.Cross, e.Pin)
		}
		if singles[i] = c.Model.Single(e.Pin, dir); singles[i] == nil {
			return Result{}, fmt.Errorf("core: pin %d has no single-input model for %v inputs", e.Pin, dir)
		}
	}

	// Solo delays and solo output-crossing times.
	for i, e := range events {
		d1[i], tt1[i] = singles[i].At(e.TT)
		solo[i] = e.Cross + d1[i]
	}

	// Step 1: dominance order. For first-cause (parallel-conduction)
	// networks the earliest solo output crossing dominates — the paper's
	// pairwise condition s_ij > Δi − Δj. For last-cause (series-completion)
	// networks the LATEST solo crossing dominates (the paper's "analogous
	// argument" for rising inputs).
	caus := c.Model.Causation(dir)
	for i := range order {
		order[i] = i
	}
	switch {
	case c.NaiveOrdering:
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
		ex.Inputs = make([]ExplainInput, n)
		for i, e := range events {
			ex.Inputs[i] = ExplainInput{
				Pin: e.Pin, Dir: e.Dir, TT: e.TT, Cross: e.Cross,
				D1: d1[i], TT1: tt1[i], Solo: solo[i],
			}
		}
		ex.Order = append([]int(nil), order...)
	}

	y1 := order[0]
	ref := &events[y1]
	refD1 := d1[y1]
	refTT1 := tt1[y1]

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
	for k := 1; k < n; k++ {
		yi := order[k]
		e := &events[yi]
		s := e.Cross - ref.Cross
		if caus == macromodel.FirstCause {
			if s >= cum {
				if ex != nil {
					// The breaking input and everything after it: dominance
					// ordering guarantees later entries are only further out.
					ex.Delay = append(ex.Delay, AbsorbStep{
						Input: yi, Pin: e.Pin, S: s, Window: cum,
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
		} else if s <= -(e.TT + d1[yi] + refD1) {
			if ex != nil {
				ex.Delay = append(ex.Delay, AbsorbStep{
					Input: yi, Pin: e.Pin, S: s, Window: e.TT + d1[yi] + refD1,
					Pruned: true, Reason: "lapsed: ramp and solo response complete before the reference acts",
				})
			}
			continue
		}
		sStar := s + refD1 - cum
		dr, tr, err := c.pairRatios(ref, e, dir, sStar, refD1, refTT1, true, ex != nil)
		if err != nil {
			return Result{}, err
		}
		if caus == macromodel.FirstCause {
			lastWindow = cum
		} else {
			lastWindow = e.TT + d1[yi] + refD1
		}
		if ex != nil {
			ex.Delay = append(ex.Delay, AbsorbStep{
				Input: yi, Pin: e.Pin, S: s, SStar: sStar, Window: lastWindow,
				X1: ref.TT / refD1, X2: e.TT / refD1, X3: sStar / refD1,
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
	for k := 1; k < n; k++ {
		yi := order[k]
		e := &events[yi]
		s := e.Cross - ref.Cross
		if caus == macromodel.FirstCause {
			if s >= dcum+ttCum {
				if ex != nil {
					ex.TT = append(ex.TT, AbsorbStep{
						Input: yi, Pin: e.Pin, S: s, Window: dcum + ttCum,
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
			if s <= -(e.TT + d1[yi] + tt1[yi] + refD1) {
				if ex != nil {
					ex.TT = append(ex.TT, AbsorbStep{
						Input: yi, Pin: e.Pin, S: s, Window: e.TT + d1[yi] + tt1[yi] + refD1,
						Pruned: true, Reason: "lapsed: ramp, solo response and output transition complete before the reference acts",
					})
				}
				continue
			}
			lastWindowTT = e.TT + d1[yi] + tt1[yi] + refD1
		}
		sStar := s + refD1 - dcum
		// The delay ratio matters here only while the input still moves
		// the delay (s < dcum) or for the trace.
		dr, tr, err := c.pairRatios(ref, e, dir, sStar, refD1, refTT1, s < dcum || ex != nil, true)
		if err != nil {
			return Result{}, err
		}
		if ex != nil {
			ex.TT = append(ex.TT, AbsorbStep{
				Input: yi, Pin: e.Pin, S: s, SStar: sStar, Window: lastWindowTT,
				X1: ref.TT / refD1, X2: e.TT / refD1, X3: sStar / refD1,
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

	return Result{
		Delay:             cum,
		OutputCross:       ref.Cross + cum,
		OutTT:             ttCum,
		Dominant:          ref.Pin,
		UsedDelay:         usedDelay,
		UsedTT:            usedTT,
		CorrectionApplied: corr,
	}, nil
}

// tieEps is the relative band within which two dominance keys are treated
// as equal, so the original (pin) order decides. Without it, a tie is
// decided by ULP-level rounding — and rounding is not invariant under time
// translation, so the same stimulus shifted by Δt could flip the dominance
// order and jump the result across the algorithm's inter-reference
// discontinuity. Exact ties are not measure-zero in practice: reconvergent
// fanout through identical cell types makes the upstream delay difference
// cancel the downstream solo-delay difference exactly. The band (~1e-22 s
// at circuit scale) sits many orders above accumulated rounding noise and
// many below any physical delay, so it only captures genuine ties.
const tieEps = 1e-11

// sortByKey stably sorts order by key[order[i]] — descending when desc is
// set. Keys within tieEps (relative to the larger magnitude) compare equal
// and keep their original relative order. A stable insertion sort: the
// event sets it orders are gate fan-ins (a handful of entries), and unlike
// sort.SliceStable it allocates nothing.
func sortByKey(order []int, key []float64, desc bool) {
	precedes := func(a, b float64) bool {
		if math.Abs(a-b) <= tieEps*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
		if desc {
			return a > b
		}
		return a < b
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && precedes(key[order[j]], key[order[j-1]]); j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
}

// SingleDelay returns the single-input delay and output transition time for
// one pin from the characterized model.
func (c *Calculator) SingleDelay(pin int, dir waveform.Direction, tau float64) (delay, outTT float64, err error) {
	s := c.Model.Single(pin, dir)
	if s == nil {
		return 0, 0, fmt.Errorf("core: pin %d has no single-input model for %v inputs", pin, dir)
	}
	delay, outTT = s.At(tau)
	return delay, outTT, nil
}
