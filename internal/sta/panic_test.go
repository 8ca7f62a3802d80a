package sta_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// panicDual is a dual backend with a defect: every lookup panics.
type panicDual struct{}

func (panicDual) Ratios(int, int, waveform.Direction, float64, float64, float64, float64, float64) (float64, float64, error) {
	panic("dual backend defect")
}

// countingPanicDual is panicDual counting its lookups.
type countingPanicDual struct{ calls *atomic.Int64 }

func (d countingPanicDual) Ratios(int, int, waveform.Direction, float64, float64, float64, float64, float64) (float64, float64, error) {
	d.calls.Add(1)
	panic("dual backend defect")
}

// panickyCircuit builds a random DAG whose nand2 calculator panics on
// every dual-input lookup (the library is private to the circuit).
func panickyCircuit(t *testing.T) (*sta.Circuit, []sta.PIEvent, *core.Calculator) {
	t.Helper()
	c, err := sta.SynthRandom(12, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	var calc *core.Calculator
	for _, g := range c.Gates {
		if g.Type == "nand2" {
			calc = g.Calc
			break
		}
	}
	if calc == nil {
		t.Fatal("no nand2 in the circuit")
	}
	calc.Dual = panicDual{}
	return c, sta.SynthEvents(c, 3), calc
}

// panicStack checks that err wraps a *sta.PanicError whose stack reaches
// the frame named want.
func panicStack(t *testing.T, what string, err error, want string) {
	t.Helper()
	var pe *sta.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("%s: error %v wraps no *sta.PanicError", what, err)
		return
	}
	if !bytes.Contains(pe.Stack, []byte(want)) {
		t.Errorf("%s: panic stack does not reach %s:\n%s", what, want, pe.Stack)
	}
}

// TestEvaluationPanicIsContained: a panic inside a gate evaluation — on the
// serial path at Workers 1, on a worker goroutine at Workers 2 — comes back
// as an error wrapping sta.ErrPanic that names the gate, the same gate at
// both worker counts, and carries the stack down to the panicking frame;
// batch and Monte-Carlo runs name the vector or sample too. With the defect
// removed the same compile analyzes normally.
func TestEvaluationPanicIsContained(t *testing.T) {
	c, evs, calc := panickyCircuit(t)
	p := compile(t, c)
	ctx := context.Background()
	var msgs []string
	for _, workers := range []int{1, 2} {
		_, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: workers})
		if !errors.Is(err, sta.ErrPanic) {
			t.Fatalf("Workers %d: error %v, want one wrapping ErrPanic", workers, err)
		}
		if !strings.Contains(err.Error(), "sta: gate ") || !strings.Contains(err.Error(), "dual backend defect") {
			t.Errorf("Workers %d: error %q does not name the gate and the panic", workers, err)
		}
		panicStack(t, fmt.Sprintf("Workers %d", workers), err, "panicDual.Ratios")
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("serial and parallel walks report different gates: %q vs %q", msgs[0], msgs[1])
	}

	batch := [][]sta.PIEvent{evs, sta.SynthEvents(c, 4), sta.SynthEvents(c, 5)}
	for _, workers := range []int{1, 2} {
		_, err := p.AnalyzeBatch(ctx, batch, sta.Proximity, sta.Options{Workers: workers})
		if !errors.Is(err, sta.ErrPanic) || !strings.Contains(err.Error(), "batch vector 0") {
			t.Errorf("batch at Workers %d: error %v, want ErrPanic naming vector 0", workers, err)
		}
		panicStack(t, fmt.Sprintf("batch at Workers %d", workers), err, "panicDual.Ratios")
		_, err = p.AnalyzeMC(ctx, evs, sta.Proximity, sta.MCOptions{Samples: 4, Seed: 1, Sigma: 0.05,
			Options: sta.Options{Workers: workers}})
		if !errors.Is(err, sta.ErrPanic) || !strings.Contains(err.Error(), "mc sample 0") {
			t.Errorf("mc at Workers %d: error %v, want ErrPanic naming sample 0", workers, err)
		}
		panicStack(t, fmt.Sprintf("mc at Workers %d", workers), err, "panicDual.Ratios")
	}

	calc.Dual = nil
	got, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: 2})
	if err != nil {
		t.Fatalf("analysis after the defect was removed: %v", err)
	}
	fresh, err := sta.SynthRandom(12, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compile(t, fresh).Analyze(ctx, sta.SynthEvents(fresh, 3), sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, po := range c.POs {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			a, okA := got.Arrival(po, dir)
			b, okB := want.Arrival(fresh.Net(po.Name), dir)
			if okA != okB || a.Time != b.Time || a.TT != b.TT {
				t.Fatalf("%s %v after recovery: %+v/%v, fresh circuit %+v/%v", po.Name, dir, a, okA, b, okB)
			}
		}
	}
}

// TestCommitPanicIsContained: a panic outside the per-gate evaluation —
// here pulse judging on a glitch model with no grid, which runs in the
// serial commit — is recovered by the walk and wrapped in ErrPanic.
func TestCommitPanicIsContained(t *testing.T) {
	c, evs, calc := panickyCircuit(t)
	calc.Dual = nil
	for _, gm := range calc.Model.Glitches {
		gm.Extreme = nil
	}
	p := compile(t, c)
	res, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatalf("unfiltered analysis touched the glitch grids: %v", err)
	}
	if res.Stats.ProximityEvals == 0 {
		t.Fatal("no proximity evaluation: the vector cannot produce opposite-edge pairs")
	}
	for _, workers := range []int{1, 2} {
		_, err = p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: workers, PulseFiltering: true})
		if !errors.Is(err, sta.ErrPanic) || !strings.Contains(err.Error(), "sta: walk: ") {
			t.Errorf("Workers %d: error %v, want ErrPanic recovered by the walk", workers, err)
		}
		panicStack(t, fmt.Sprintf("Workers %d", workers), err, "applyPulseFilter")
	}
}

// TestMCStopsAtFirstFailingSample: once a sample fails, the parallel MC
// loop hands out no more samples — a stimulus every sample rejects costs a
// few samples, not all of them — and still reports the lowest-index
// failure, sample 0, as the serial loop does.
func TestMCStopsAtFirstFailingSample(t *testing.T) {
	c, evs, calc := panickyCircuit(t)
	var calls atomic.Int64
	calc.Dual = countingPanicDual{&calls}
	const samples = 4096
	_, err := compile(t, c).AnalyzeMC(context.Background(), evs, sta.Proximity, sta.MCOptions{Samples: samples, Seed: 1, Sigma: 0.05,
		Options: sta.Options{Workers: 2}})
	if !errors.Is(err, sta.ErrPanic) || !strings.Contains(err.Error(), "mc sample 0:") {
		t.Errorf("error %v, want ErrPanic naming sample 0", err)
	}
	// Each failing sample panics at its first dual lookup.
	if n := calls.Load(); n == 0 || n > samples/16 {
		t.Errorf("%d of %d samples ran: the loop kept handing out samples after one failed", n, samples)
	}
}

// TestBatchStopsAtFirstFailingVector: once a vector fails, AnalyzeBatch
// starts no further vector, on the serial and the parallel path, and
// reports the lowest failing index. Vector 0 repeats an event, so it fails
// at its seed before any gate runs, and every Perturb call counted belongs
// to a vector after it: serially none may run, and with two workers only
// what the other worker took before the failure was seen.
func TestBatchStopsAtFirstFailingVector(t *testing.T) {
	c, err := sta.SynthRandom(8, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, c)
	evs := sta.SynthEvents(c, 1)
	const vectors = 256
	batch := make([][]sta.PIEvent, vectors)
	batch[0] = append(evs[:len(evs):len(evs)], evs[0])
	for i := 1; i < vectors; i++ {
		batch[i] = evs
	}
	for _, workers := range []int{1, 2} {
		var calls atomic.Int64
		opt := sta.Options{Workers: workers, Perturb: func(int32) float64 {
			calls.Add(1)
			return 1
		}}
		_, err := p.AnalyzeBatch(context.Background(), batch, sta.Proximity, opt)
		if err == nil || !strings.HasPrefix(err.Error(), "sta: batch vector 0: ") {
			t.Errorf("Workers %d: error %v, want one naming vector 0", workers, err)
		}
		n := calls.Load()
		t.Logf("Workers %d: %d gate evaluations after vector 0 failed", workers, n)
		if (workers == 1 && n != 0) || n > int64(len(c.Gates))*vectors/16 {
			t.Errorf("Workers %d: %d gate evaluations after vector 0 failed: the batch kept running vectors", workers, n)
		}
	}
}
