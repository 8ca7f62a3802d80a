package core

import (
	"fmt"
	"io"

	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// Explain is the per-gate decision trace of one Algorithm-ProximityDelay
// run (Paper §4, Figure 4-1): which input was chosen as dominant and why,
// each pairwise (y*, y_i) absorption with its normalized table coordinates,
// and which inputs the proximity window pruned. It exists for debugging
// delay-model reproductions — the numbers it reports are exactly the ones
// the evaluation used, captured in-line, not recomputed.
//
// Capture is opt-in (EvaluateExplain); the plain Evaluate path carries a
// nil *Explain and pays only dead nil-checks.
type Explain struct {
	// Dir is the common input transition direction.
	Dir waveform.Direction
	// Causation names the conduction topology that picked the dominance
	// rule: first-cause (parallel, earliest solo crossing dominates) or
	// last-cause (series, latest solo crossing dominates).
	Causation macromodel.Causation
	// NaiveOrdering is set when the ablation replaced dominance ordering
	// with arrival-time ordering.
	NaiveOrdering bool
	// Inputs describes every presented event with its solo (single-input)
	// response, indexed like the events slice handed to Evaluate.
	Inputs []ExplainInput
	// Order lists indices into Inputs in dominance order (Order[0] is the
	// dominant input).
	Order []int
	// Delay and TT trace the two absorption passes: Delay the delay loop
	// (window Δ(i-1)), TT the transition-time loop (window Δ(i-1)+τ(i-1)).
	// Each non-dominant input in dominance order appears exactly once per
	// pass, absorbed or pruned.
	Delay []AbsorbStep
	TT    []AbsorbStep
	// DelayCorrection and TTCorrection describe the Section-4 corrective
	// term of each pass.
	DelayCorrection CorrectionTrace
	TTCorrection    CorrectionTrace
}

// ExplainInput is one presented input event with its characterized solo
// response.
type ExplainInput struct {
	Pin   int
	Dir   waveform.Direction
	TT    float64 // input transition time
	Cross float64 // absolute input crossing time
	D1    float64 // solo delay Δ(1)
	TT1   float64 // solo output transition time τ(1)_out
	Solo  float64 // solo output crossing: Cross + D1 (the dominance key)
}

// AbsorbStep is one iteration of an absorption pass: either a pairwise
// (y*, y_i) macromodel application or a window prune.
type AbsorbStep struct {
	// Index into Explain.Inputs; Pin is the physical pin.
	Input int
	Pin   int
	// S is the separation from the dominant input's crossing
	// (events[yi].Cross − ref.Cross); SStar the equivalent-waveform
	// separation actually handed to the dual model (s + Δ(1) − Δ(i-1)).
	S     float64
	SStar float64
	// Window is the bound the paper's while-condition tested for this
	// input: Δ(i-1) for the first-cause delay pass, Δ(i-1)+τ(i-1) for the
	// transition-time pass, τ_i+Δ(1)_i+Δ(1) (lapse distance) for
	// last-cause.
	Window float64
	// Pruned is set when the window excluded the input; Reason says which
	// rule fired. A pruned step carries no table lookup.
	Pruned bool
	Reason string
	// X1, X2, X3 are the normalized dual-table coordinates the lookup
	// used: τ_ref/Δ(1), τ_i/Δ(1), s*/Δ(1).
	X1, X2, X3 float64
	// DRatio and TRatio are the looked-up Δ(2)/Δ(1) and τ(2)/τ(1).
	DRatio, TRatio float64
	// CumBefore and CumAfter are the pass's cumulative value (delay Δ(i)
	// for the delay pass, output transition time for the TT pass) around
	// this absorption.
	CumBefore, CumAfter float64
}

// CorrectionTrace describes the Section-4 step-input corrective term of one
// pass: Raw is the characterized full-magnitude correction, Factor the
// linear fade (1 at coincidence, 0 at the window edge), Applied what was
// actually added (0 when the pass combined a single input or the ablation
// disabled it).
type CorrectionTrace struct {
	Raw     float64
	Factor  float64
	Applied float64
}

// EvaluateExplain runs Algorithm ProximityDelay exactly as Evaluate does —
// bit-identical result, asserted by tests — while recording the decision
// trace. It is not on the analysis hot path: explain requests re-run the
// evaluation for the nets they ask about.
func (c *Calculator) EvaluateExplain(events []InputEvent) (Result, *Explain, error) {
	ex := &Explain{}
	r, err := c.evaluate(events, ex)
	if err != nil {
		return Result{}, nil, err
	}
	return r, ex, nil
}

// Format renders the trace as an indented human-readable report (the
// cmd/sta -explain output).
func (ex *Explain) Format(w io.Writer) {
	fmt.Fprintf(w, "direction: %v inputs, causation: %v", ex.Dir, ex.Causation)
	if ex.NaiveOrdering {
		fmt.Fprintf(w, " (naive arrival ordering — ablation)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "dominance order (index: pin, input cross, solo delay, solo crossing):\n")
	for rank, i := range ex.Order {
		in := ex.Inputs[i]
		tag := ""
		if rank == 0 {
			tag = "  <- dominant"
		}
		fmt.Fprintf(w, "  #%d: pin %d  cross=%.2fps  tt=%.2fps  d1=%.2fps  solo=%.2fps%s\n",
			rank, in.Pin, in.Cross*1e12, in.TT*1e12, in.D1*1e12, in.Solo*1e12, tag)
	}
	passes := []struct {
		name  string
		steps []AbsorbStep
		corr  CorrectionTrace
	}{
		{"delay pass (window \u0394(i-1))", ex.Delay, ex.DelayCorrection},
		{"transition-time pass (window \u0394(i-1)+\u03c4(i-1))", ex.TT, ex.TTCorrection},
	}
	for _, p := range passes {
		fmt.Fprintf(w, "%s:\n", p.name)
		for _, st := range p.steps {
			if st.Pruned {
				fmt.Fprintf(w, "  pin %d: PRUNED (%s)  s=%.2fps window=%.2fps\n",
					st.Pin, st.Reason, st.S*1e12, st.Window*1e12)
				continue
			}
			fmt.Fprintf(w, "  pin %d: absorb  s=%.2fps s*=%.2fps  (\u03c4i/\u0394,\u03c4j/\u0394,s*/\u0394)=(%.3f,%.3f,%.3f)  D2/D1=%.4f T2/T1=%.4f  cum %.2f->%.2fps\n",
				st.Pin, st.S*1e12, st.SStar*1e12, st.X1, st.X2, st.X3,
				st.DRatio, st.TRatio, st.CumBefore*1e12, st.CumAfter*1e12)
		}
		if p.corr.Applied != 0 {
			fmt.Fprintf(w, "  correction: raw=%.3fps x factor %.3f = %+.3fps\n",
				p.corr.Raw*1e12, p.corr.Factor, p.corr.Applied*1e12)
		} else {
			fmt.Fprintf(w, "  correction: none applied\n")
		}
	}
}
