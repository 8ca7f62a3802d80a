package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// TestEvaluateConcurrentReadOnly pins down the contract the parallel STA
// engine relies on: Calculator.Evaluate over the table backend reads only
// immutable characterized state, so one shared calculator may serve many
// goroutines and every result must be bit-identical to the serial answer.
// Run with -race (part of the tier-1 recipe in ROADMAP.md).
func TestEvaluateConcurrentReadOnly(t *testing.T) {
	calc := core.NewCalculator(macromodel.SynthModel("nand", 3))

	// A spread of event sets: varying proximity, order, and direction.
	cases := make([][]core.InputEvent, 0, 24)
	for i := 0; i < 24; i++ {
		dir := waveform.Falling
		if i%2 == 1 {
			dir = waveform.Rising
		}
		sep := float64(i-12) * 25e-12
		cases = append(cases, []core.InputEvent{
			{Pin: 0, Dir: dir, TT: 300e-12 + float64(i)*10e-12, Cross: 0},
			{Pin: 1, Dir: dir, TT: 500e-12, Cross: sep},
			{Pin: 2, Dir: dir, TT: 200e-12, Cross: -sep / 2},
		})
	}
	refs := make([]core.Result, len(cases))
	for i, evs := range cases {
		r, err := calc.Evaluate(evs)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (g + rep) % len(cases)
				r, err := calc.Evaluate(cases[i])
				if err != nil {
					errc <- err
					return
				}
				if r.Delay != refs[i].Delay || r.OutTT != refs[i].OutTT ||
					r.OutputCross != refs[i].OutputCross || r.Dominant != refs[i].Dominant ||
					r.UsedDelay != refs[i].UsedDelay || r.UsedTT != refs[i].UsedTT {
					t.Errorf("case %d: concurrent result diverges from serial reference", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
