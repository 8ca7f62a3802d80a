package sta_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// TestSparseCriticalPathAcrossPrunedCones stimulates one tile of a
// block-partitioned circuit and traces the critical path through the
// result: the indexed arrival store must support path tracing even though
// the walk never reached any other tile, and those tiles' outputs must
// carry no arrivals at all.
func TestSparseCriticalPathAcrossPrunedCones(t *testing.T) {
	c, err := sta.SynthTiled(5, 8, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	const tile = 2
	evs := sta.SynthEventsFor(sta.TilePIs(c, tile), 21)
	res, err := compile(t, c).Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for _, po := range c.POs {
		arr, ok := res.Latest(po)
		if !strings.HasPrefix(po.Name, "t2_") {
			if ok {
				t.Fatalf("pruned tile's output %s carries an arrival (%v)", po.Name, arr)
			}
			continue
		}
		if !ok {
			continue // a stimulated tile's PO may legitimately stay silent
		}
		path, err := res.CriticalPath(po, arr.Dir)
		if err != nil {
			t.Fatalf("CriticalPath(%s, %v): %v", po.Name, arr.Dir, err)
		}
		if len(path) < 2 {
			t.Fatalf("path to %s has %d stages, want >= 2", po.Name, len(path))
		}
		if first := path[0].Net; !strings.HasPrefix(first.Name, "t2_p") {
			t.Fatalf("path to %s starts at %s, want a t2 primary input", po.Name, first.Name)
		}
		for _, st := range path {
			if !strings.HasPrefix(st.Net.Name, "t2_") {
				t.Fatalf("path to %s crosses into another tile at %s", po.Name, st.Net.Name)
			}
		}
		traced++
	}
	if traced == 0 {
		t.Fatal("no critical path traced in the stimulated tile — vacuous")
	}
}

// TestSparseZeroConeStimulus: an event on a primary input that drives no
// gate has an empty fanout cone. The analysis must succeed with zero gates
// run — the PI's own arrival present, everything else silent — not error
// out.
func TestSparseZeroConeStimulus(t *testing.T) {
	lib := sta.NewLibrary()
	lib.Add("inv", core.NewCalculator(macromodel.SynthModel("inv", 1)))
	c := sta.NewCircuit(lib)
	a := c.Input("a")
	unused := c.Input("unused")
	x, err := c.AddGate("g1", "inv", "x", a)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(x)

	p := compile(t, c)
	res, err := p.Analyze(context.Background(), []sta.PIEvent{
		{Net: unused, Dir: waveform.Rising, Time: 0, TT: 200e-12},
	}, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatalf("zero-cone stimulus errored: %v", err)
	}
	if res.Stats.GatesScheduled != 0 || res.Stats.GatesEvaluated != 0 {
		t.Fatalf("scheduled %d / evaluated %d gates for an empty cone, want 0 / 0",
			res.Stats.GatesScheduled, res.Stats.GatesEvaluated)
	}
	if _, ok := res.Arrival(unused, waveform.Rising); !ok {
		t.Fatal("stimulated PI lost its own arrival")
	}
	if _, ok := res.Latest(x); ok {
		t.Fatal("unstimulated gate output carries an arrival")
	}

	// The compiled handle agrees: the cone is empty, not absent.
	cone, ok := p.Cone(unused)
	if !ok || len(cone) != 0 {
		t.Fatalf("Cone(unused) = %v, %v; want empty, true", cone, ok)
	}
	if cone, ok = p.Cone(a); !ok || len(cone) != 1 {
		t.Fatalf("Cone(a) = %v, %v; want one gate, true", cone, ok)
	}
}

// TestConventionalErrorContext cripples a model — pin 1 loses its
// single-input tables — and requires the Conventional-mode error to name
// the gate, the output direction, the failing pin, its net and the input
// direction, matching the context the proximity path's errors carry.
func TestConventionalErrorContext(t *testing.T) {
	m := macromodel.SynthModel("nand", 2)
	kept := m.Singles[:0]
	for _, s := range m.Singles {
		if s.Pin != 1 {
			kept = append(kept, s)
		}
	}
	m.Singles = kept

	lib := sta.NewLibrary()
	lib.Add("nand2", core.NewCalculator(m))
	c := sta.NewCircuit(lib)
	a, b := c.Input("a"), c.Input("b")
	x, err := c.AddGate("g1", "nand2", "x", a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(x)

	_, err = compile(t, c).Analyze(context.Background(), []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: 200e-12},
		{Net: b, Dir: waveform.Falling, Time: 10e-12, TT: 200e-12},
	}, sta.Conventional, sta.Options{})
	if err == nil {
		t.Fatal("crippled pin evaluated without error")
	}
	for _, want := range []string{"gate g1", "rising output", "pin 1", "net b", "falling"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestConventionalNaNDelayRejected: when every single-input arc of a gate
// yields a non-comparable (NaN) delay, Conventional mode must error rather
// than return a zero-FromGate arrival that breaks path tracing downstream.
func TestConventionalNaNDelayRejected(t *testing.T) {
	m := macromodel.SynthModel("inv", 1)
	for _, s := range m.Singles {
		for i := range s.Delay {
			s.Delay[i] = math.NaN()
		}
	}
	lib := sta.NewLibrary()
	lib.Add("inv", core.NewCalculator(m))
	c := sta.NewCircuit(lib)
	a := c.Input("a")
	x, err := c.AddGate("g1", "inv", "x", a)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(x)

	_, err = compile(t, c).Analyze(context.Background(), []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: 200e-12},
	}, sta.Conventional, sta.Options{})
	if err == nil {
		t.Fatal("NaN single-arc delay produced an arrival")
	}
	for _, want := range []string{"gate g1", "no finite single-arc delay"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
