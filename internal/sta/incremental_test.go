package sta_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// editScript applies the same structural edits to any circuit built by
// buildBase, so the incrementally recompiled handle can be compared against
// a from-scratch compile of an identically constructed circuit. The edits
// cover the interesting shapes: a new sink on existing logic, a new PI
// feeding a new subgraph, a gate landing between existing levels, and a
// forward net finally driven (which re-levels already-compiled consumers).
func editScript(t *testing.T, c *sta.Circuit) {
	t.Helper()
	mustGate := func(inst, typ, out string, ins ...*sta.Net) *sta.Net {
		t.Helper()
		n, err := c.AddGate(inst, typ, out, ins...)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// A consumer of a forward net wired before its driver exists: at
	// AddGate time e_fwd is undriven, so e_g0 levelizes as a source; when
	// e_drv later drives e_fwd, e_g0 and everything downstream of it must
	// be dragged to deeper levels.
	fwd := c.ForwardNet("e_fwd")
	a := mustGate("e_g0", "nand2", "e_n0", fwd, c.Net("p0"))
	b := mustGate("e_g1", "inv", "e_n1", a)
	c.MarkOutput(b)
	// New PI into a new subgraph that also taps existing internal logic.
	np := c.Input("e_pi")
	mid := mustGate("e_g2", "nand2", "e_n2", np, c.Net("n40"))
	// Drive the forward net from deep existing logic plus the new subgraph.
	mustGate("e_drv", "nand2", "e_fwd", mid, c.Net("n100"))
	c.MarkOutput(mustGate("e_g3", "inv", "e_n3", mid))
}

func buildBase(t *testing.T) *sta.Circuit {
	t.Helper()
	c, err := sta.SynthRandom(24, 600, 23)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIncrementalRecompile: editing a compiled circuit must produce a new
// handle whose schedule, cone tables and analysis results are bit-identical
// to compiling an identically built circuit from scratch — while the old
// handle keeps answering against its snapshot.
func TestIncrementalRecompile(t *testing.T) {
	c := buildBase(t)
	old, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Force the old handle's cones so the recompile exercises cone reuse.
	baseEvents := sta.SynthEvents(c, 9)
	oldRes, err := old.Analyze(context.Background(), baseEvents, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	editScript(t, c)
	inc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if inc == old {
		t.Fatal("structural edits did not refresh the compiled handle")
	}
	if got, err := c.Compile(); err != nil || got != inc {
		t.Fatalf("recompiled handle not memoized: %p vs %p (%v)", got, inc, err)
	}

	// From-scratch reference: the same construction on a fresh circuit.
	ref := buildBase(t)
	editScript(t, ref)
	refC, err := ref.Compile()
	if err != nil {
		t.Fatal(err)
	}

	// Identical levelized schedule, by gate name, row by row.
	if inc.NumGates() != refC.NumGates() || inc.NumLevels() != refC.NumLevels() {
		t.Fatalf("shape: %d gates / %d levels incremental vs %d / %d from scratch",
			inc.NumGates(), inc.NumLevels(), refC.NumGates(), refC.NumLevels())
	}
	incLv, refLv := inc.Levels(), refC.Levels()
	for li := range refLv {
		if len(incLv[li]) != len(refLv[li]) {
			t.Fatalf("level %d: %d gates incremental vs %d from scratch", li, len(incLv[li]), len(refLv[li]))
		}
		for k := range refLv[li] {
			if incLv[li][k].Name != refLv[li][k].Name {
				t.Fatalf("level %d slot %d: gate %s incremental vs %s from scratch",
					li, k, incLv[li][k].Name, refLv[li][k].Name)
			}
		}
	}

	// Identical cone tables for every PI (gate indices are comparable —
	// both circuits list gates in the same construction order).
	for _, pi := range c.PIs {
		refPi := ref.Net(pi.Name)
		incCone, ok1 := inc.Cone(pi)
		refCone, ok2 := refC.Cone(refPi)
		if ok1 != ok2 {
			t.Fatalf("PI %s: cone presence %v incremental vs %v from scratch", pi.Name, ok1, ok2)
		}
		if len(incCone) != len(refCone) {
			t.Fatalf("PI %s: cone size %d incremental vs %d from scratch", pi.Name, len(incCone), len(refCone))
		}
		for k := range refCone {
			if incCone[k] != refCone[k] {
				t.Fatalf("PI %s cone[%d]: gate %d incremental vs %d from scratch", pi.Name, k, incCone[k], refCone[k])
			}
		}
	}

	// Identical analysis, including an event on the new PI (SynthEvents
	// covers every current PI, e_pi included) reaching through the forward
	// net into pre-existing logic.
	events := sta.SynthEvents(c, 9)
	refEvents := make([]sta.PIEvent, len(events))
	for i, ev := range events {
		refEvents[i] = sta.PIEvent{Net: ref.Net(ev.Net.Name), Dir: ev.Dir, Time: ev.Time, TT: ev.TT}
	}
	incRes, err := inc.Analyze(context.Background(), events, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := refC.Analyze(context.Background(), refEvents, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ref.NetsByName() {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			ra, rok := refRes.Arrival(ref.Net(name), dir)
			ia, iok := incRes.Arrival(c.Net(name), dir)
			if rok != iok || (rok && (ra.Time != ia.Time || ra.TT != ia.TT || ra.UsedInputs != ia.UsedInputs)) {
				t.Fatalf("net %s %v: incremental (%v %+v) vs from scratch (%v %+v)", name, dir, iok, ia, rok, ra)
			}
		}
	}

	// The old handle still answers against its snapshot.
	oldAgain, err := old.Analyze(context.Background(), baseEvents, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, c, oldRes, oldAgain, "old handle after edits")
}

// TestIncrementalLoopDetection: an edit that closes a combinational loop
// must fail the recompile, exactly as a from-scratch compile would.
func TestIncrementalLoopDetection(t *testing.T) {
	c := sta.NewCircuit(sta.SynthLibrary(2))
	in := c.Input("in")
	fwd := c.ForwardNet("fwd")
	mid, err := c.AddGate("g0", "nand2", "mid", in, fwd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(); err != nil {
		t.Fatal(err) // fwd is undriven here: no loop yet
	}
	if _, err := c.AddGate("g1", "inv", "fwd", mid); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(); err == nil {
		t.Fatal("recompile accepted a combinational loop")
	}
}

// TestIncrementalColdCones: when the old handle never built cones (a
// dense-only workload), the recompiled handle must still build correct
// cones lazily on first sparse use.
func TestIncrementalColdCones(t *testing.T) {
	c := buildBase(t)
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	editScript(t, c)
	inc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref := buildBase(t)
	editScript(t, ref)
	refC, err := ref.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range c.PIs {
		incCone, _ := inc.Cone(pi)
		refCone, _ := refC.Cone(ref.Net(pi.Name))
		if fmt.Sprint(incCone) != fmt.Sprint(refCone) {
			t.Fatalf("PI %s: lazy cone %v vs from-scratch %v", pi.Name, incCone, refCone)
		}
	}
}

// TestBatchCompileAttribution: the first batch on a fresh circuit must
// carry the compile it triggered in its first result's stats — phase
// buckets and total wall — matching what AnalyzeOpts reports.
func TestBatchCompileAttribution(t *testing.T) {
	c, err := sta.SynthRandom(16, 800, 31)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]sta.PIEvent{sta.SynthEvents(c, 1), sta.SynthEvents(c, 2)}
	results, err := c.AnalyzeBatch(batch, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := results[0].Stats
	if st.Phases[obs.PhaseCompile] <= 0 {
		t.Error("fresh batch reports zero PhaseCompile in results[0]")
	}
	if st.Phases[obs.PhaseLevelize] <= 0 {
		t.Error("fresh batch reports zero PhaseLevelize in results[0]")
	}
	if st.Wall < st.Phases.Sum() {
		t.Errorf("results[0] wall %v below phase sum %v — compile wall not added", st.Wall, st.Phases.Sum())
	}
	if lv := results[1].Stats.Phases[obs.PhaseLevelize]; lv != 0 {
		t.Errorf("results[1] charged %v of levelize — the compile must be attributed exactly once", lv)
	}
}

// TestEmptyBatchRejected: a batch with no vectors is a caller bug, not a
// successful empty analysis.
func TestEmptyBatchRejected(t *testing.T) {
	c, err := sta.SynthRandom(8, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeBatch(nil, sta.Proximity, sta.Options{}); err == nil {
		t.Error("Circuit.AnalyzeBatch accepted an empty batch")
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AnalyzeBatch(context.Background(), [][]sta.PIEvent{}, sta.Proximity, sta.Options{}); err == nil {
		t.Error("Compiled.AnalyzeBatch accepted an empty batch")
	}
}

// TestLatestWorstSlackAllocFree: the per-PO report helpers run per output
// per request in the service's response builder — they must not allocate.
func TestLatestWorstSlackAllocFree(t *testing.T) {
	if sta.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := sta.SynthRandom(8, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AnalyzeOpts(sta.SynthEvents(c, 1), sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.POs) == 0 {
		t.Fatal("no primary outputs to report on")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for _, po := range c.POs {
			res.Latest(po)
		}
	}); allocs != 0 {
		t.Errorf("Latest allocates %.1f objects per run", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		res.WorstSlack(c.POs, 2e-9)
	}); allocs != 0 {
		t.Errorf("WorstSlack allocates %.1f objects per run", allocs)
	}
}
