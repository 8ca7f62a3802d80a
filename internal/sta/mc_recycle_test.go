package sta

// Monte-Carlo samples run through one recycled Result per worker. These
// tests hold the recycling to a fresh analysis, bit for bit, and the sample
// loop to allocating nothing per sample.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/obs"
)

// diffResults describes the first difference between two results of the
// same handle: the arrival store (index and slots, every bit), the pulse
// verdicts, the absorbed pairs' raw shapes and every Stats counter. It
// returns "" when they agree.
func diffResults(got, want *Result) string {
	if !slices.Equal(got.idx, want.idx) {
		return "the arrival index differs"
	}
	if len(got.arr) != len(want.arr) {
		return fmt.Sprintf("%d arrival slots, want %d", len(got.arr), len(want.arr))
	}
	for k := range want.arr {
		g, w := got.arr[k], want.arr[k]
		for d := range w.a {
			ga, wa := g.a[d], w.a[d]
			if g.has[d] != w.has[d] || ga.Dir != wa.Dir || ga.FromGate != wa.FromGate ||
				ga.FromPin != wa.FromPin || ga.UsedInputs != wa.UsedInputs ||
				math.Float64bits(ga.Time) != math.Float64bits(wa.Time) ||
				math.Float64bits(ga.TT) != math.Float64bits(wa.TT) {
				return fmt.Sprintf("slot %d direction %d: %+v, want %+v", k, d, ga, wa)
			}
		}
	}
	if len(got.pulses) != len(want.pulses) {
		return fmt.Sprintf("%d pulse verdicts, want %d", len(got.pulses), len(want.pulses))
	}
	for id, w := range want.pulses {
		if g, ok := got.pulses[id]; !ok || g != w {
			return fmt.Sprintf("net %d verdict %+v, want %+v", id, g, w)
		}
	}
	if len(got.pulseRaw) != len(want.pulseRaw) {
		return fmt.Sprintf("%d absorbed raw shapes, want %d", len(got.pulseRaw), len(want.pulseRaw))
	}
	for id, w := range want.pulseRaw {
		if g, ok := got.pulseRaw[id]; !ok || g != w {
			return fmt.Sprintf("net %d absorbed raw shape %+v, want %+v", id, g, w)
		}
	}
	counters := func(st Stats) Stats {
		st.Phases, st.Wall = obs.PhaseTimes{}, 0
		return st
	}
	if gs, ws := counters(got.Stats), counters(want.Stats); gs != ws {
		return fmt.Sprintf("stats %+v, want %+v", gs, ws)
	}
	return ""
}

// TestMCRecycledSampleMatchesFresh: a sample run through a worker's
// recycled Result equals a fresh analysis of the same sample under the same
// mc.Multiplier hook, whichever sample ran in that Result before it. On the
// runt-heavy vector with filtering on, σ 0.2 moves pairs across the
// inertial boundary from one sample to the next, so a reset that kept any
// of the index, the slots, the verdicts, the raw shapes or the counters
// would show a predecessor's state.
func TestMCRecycledSampleMatchesFresh(t *testing.T) {
	c, evs := getGlitchBench(t)
	p := compileBench(t, c)
	opt := MCOptions{Seed: 11, Sigma: 0.2}
	opt.PulseFiltering = true
	ctx := context.Background()
	fresh := map[int]*Result{}
	freshSample := func(si int) *Result {
		if r := fresh[si]; r != nil {
			return r
		}
		pv := Options{Workers: 1, PulseFiltering: true, Perturb: func(gi int32) float64 {
			return mc.Multiplier(opt.Seed, si, opt.Sigma, gi)
		}}
		r, err := p.analyze(ctx, evs, Proximity, pv, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh[si] = r
		return r
	}

	w := p.newMCWorker(evs, Proximity, opt)
	// Every sample runs after two different predecessors (sample 0 first
	// after the empty result).
	order := []int{0, 1, 2, 3, 1, 0, 3, 2}
	shrank, dropped, revived := false, false, false
	for i, si := range order {
		got, err := w.sample(ctx, si)
		if err != nil {
			t.Fatal(err)
		}
		want := freshSample(si)
		if msg := diffResults(got, want); msg != "" {
			t.Errorf("sample %d (run %d): %s", si, i, msg)
		}
		if i == 0 {
			continue
		}
		prev := fresh[order[i-1]]
		shrank = shrank || len(want.arr) < len(prev.arr)
		for id := range prev.pulses {
			if _, ok := want.pulses[id]; !ok {
				dropped = true
			}
		}
		for id := range prev.pulseRaw {
			if _, ok := want.pulseRaw[id]; !ok {
				revived = true
			}
		}
	}
	// The check needs a sample that commits fewer nets than the one before
	// it, and verdicts and absorbed pairs its predecessor had and it has not.
	if !shrank || !dropped || !revived {
		t.Fatalf("vacuous: a sample committing fewer nets %v, a verdict dropped %v, an absorbed pair revived %v",
			shrank, dropped, revived)
	}
}

// TestMCSampleAllocFree: a serial AnalyzeMC allocates per call, not per
// sample — 1,024 samples allocate at most 16 objects more than 64 do — on
// the tile-local vector with filtering off, and on the runt-heavy vector's
// first four tiles with filtering on (1,024 filtered samples of the whole
// vector take some 20 s, and AllocsPerRun runs each call twice; the tiles
// are independent, so four of them judge the pairs they judge in the whole
// vector).
func TestMCSampleAllocFree(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, local := getMCBench(t)
	_, runt := getGlitchBench(t)
	p := compileBench(t, c)
	for _, tc := range []struct {
		name   string
		evs    []PIEvent
		filter bool
	}{
		{"tile-local", local, false},
		{"runt-heavy", runt[:4*benchPIsPerTile], true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := MCOptions{Seed: 5, Sigma: mcBenchSigma}
			opt.Workers = 1
			opt.PulseFiltering = tc.filter
			run := func(samples int) *MCResult {
				opt.Samples = samples
				res, err := p.AnalyzeMC(context.Background(), tc.evs, Proximity, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if st := run(64).Stats; st.GatesEvaluated == 0 || tc.filter && st.PulsesFiltered+st.PulsesDegraded == 0 {
				t.Fatalf("vacuous: %d gates evaluated, %d pulses judged", st.GatesEvaluated, st.PulsesFiltered+st.PulsesDegraded)
			}
			allocs := func(samples int) float64 {
				return testing.AllocsPerRun(1, func() { run(samples) })
			}
			few, many := allocs(64), allocs(1024)
			t.Logf("64 samples allocate %.0f objects, 1024 samples %.0f", few, many)
			if many-few > 16 {
				t.Errorf("1024 samples allocate %.0f objects, 64 samples %.0f: %.2f per sample",
					many, few, (many-few)/(1024-64))
			}
		})
	}
}

// TestMCRejectsBadStimulusBeforeSlab: a stimulus every sample rejects (a
// duplicated event) is refused before AnalyzeMC allocates anything sized by
// the sample count. At 65,536 samples the call allocates under a tenth of
// the arrival slab it would fill, and the error still names sample 0.
func TestMCRejectsBadStimulusBeforeSlab(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := SynthRandom(8, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := compileBench(t, c)
	evs := SynthEvents(c, 1)
	dup := append(slices.Clone(evs), evs[0])
	const samples = 65536
	slabBytes := int64(samples * 2 * len(p.mcOutputs(dup)) * 8)
	if slabBytes == 0 {
		t.Fatal("vacuous: the stimulus reaches no primary output")
	}
	opt := MCOptions{Samples: samples, Seed: 1, Sigma: 0.05}
	opt.Workers = 2
	analyze := func() error {
		_, err := p.AnalyzeMC(context.Background(), dup, Proximity, opt)
		return err
	}
	if err := analyze(); err == nil || !strings.HasPrefix(err.Error(), "sta: mc sample 0: sta: duplicate") {
		t.Fatalf("error %v, want a duplicate event in sample 0", err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if analyze() == nil {
				b.Fatal("duplicate event accepted")
			}
		}
	})
	t.Logf("a rejected stimulus allocates %d B; the slab would be %d B", r.AllocedBytesPerOp(), slabBytes)
	if got := r.AllocedBytesPerOp(); got >= slabBytes/10 {
		t.Errorf("a rejected stimulus allocates %d B, the slab is %d B", got, slabBytes)
	}
}
