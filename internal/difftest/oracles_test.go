package difftest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// nConfigs is the seeded configuration budget each oracle sweeps. The
// acceptance bar is ≥ 100; keep a margin so trimming shapes never dips
// below it.
const nConfigs = 120

// buildWithEvents constructs a config's circuit and its k-th stimulus.
func buildWithEvents(t *testing.T, cfg Config, k int) (*sta.Circuit, []sta.PIEvent) {
	t.Helper()
	c, err := cfg.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", cfg.Name, err)
	}
	evs, err := ToPIEvents(c, cfg.WireVector(c, k))
	if err != nil {
		t.Fatalf("%s: events: %v", cfg.Name, err)
	}
	return c, evs
}

// compile levelizes a circuit into its analysis handle.
func compile(t *testing.T, c *sta.Circuit) *sta.Compiled {
	t.Helper()
	p, err := c.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// TestOracleParallelVsSerial: the levelized parallel schedule must be
// bit-identical to the serial reference on every config — the schedule
// changes, the arithmetic must not.
func TestOracleParallelVsSerial(t *testing.T) {
	ctx := context.Background()
	proxEvals := 0
	compared := 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p := compile(t, c)
		serial, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", cfg.Name, err)
		}
		parallel, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s: parallel: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(c, serial), Arrivals(c, parallel), nil); err != nil {
			t.Errorf("%s: parallel diverges from serial: %v", cfg.Name, err)
		}
		proxEvals += serial.Stats.ProximityEvals
		compared += len(Arrivals(c, serial))
	}
	if proxEvals == 0 {
		t.Fatal("no proximity evaluations across the whole sweep — oracle is vacuous")
	}
	if compared < 10*nConfigs {
		t.Fatalf("only %d arrivals compared over %d configs — sweep too thin", compared, nConfigs)
	}
}

// TestOracleBatchVsPerVector: AnalyzeBatch over N vectors must reproduce N
// independent Analyze calls exactly, for every vector index.
func TestOracleBatchVsPerVector(t *testing.T) {
	ctx := context.Background()
	const vectorsPerConfig = 4
	for _, cfg := range Configs(nConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		batch := make([][]sta.PIEvent, vectorsPerConfig)
		for k := range batch {
			if batch[k], err = ToPIEvents(c, cfg.WireVector(c, k)); err != nil {
				t.Fatalf("%s: vector %d: %v", cfg.Name, k, err)
			}
		}
		p := compile(t, c)
		results, err := p.AnalyzeBatch(ctx, batch, cfg.Mode, sta.Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: batch: %v", cfg.Name, err)
		}
		for k, res := range results {
			single, err := p.Analyze(ctx, batch[k], cfg.Mode, sta.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: single %d: %v", cfg.Name, k, err)
			}
			if err := DiffExact(Arrivals(c, single), Arrivals(c, res), nil); err != nil {
				t.Errorf("%s: batch vector %d diverges from Analyze: %v", cfg.Name, k, err)
			}
		}
	}
}

// refVectors returns a config's full-activity vector 0 and partial-activity
// vector 1 as engine events.
func refVectors(t *testing.T, cfg Config, c *sta.Circuit) []struct {
	label  string
	events []sta.PIEvent
} {
	t.Helper()
	out := []struct {
		label  string
		events []sta.PIEvent
	}{{label: "full"}, {label: "partial"}}
	for i, vec := range [][]service.Event{cfg.WireVector(c, 0), cfg.PartialWireVector(c, 1)} {
		evs, err := ToPIEvents(c, vec)
		if err != nil {
			t.Fatalf("%s/%s: events: %v", cfg.Name, out[i].label, err)
		}
		out[i].events = evs
	}
	return out
}

// TestOracleSparseVsDense: the engine's walk — which runs only the gates
// with a changed input — must be bit-identical to the dense reference walk
// (reference_test.go), which visits every gate of every level, on every
// config: full- and partial-activity vectors, pulse filtering off and on,
// serial and parallel. Arrivals and workload counters must match. The
// sweep proves itself non-vacuous: on partial vectors the walk must run
// strictly fewer gates than the netlists hold in aggregate, and filtering
// must judge pulses somewhere.
func TestOracleSparseVsDense(t *testing.T) {
	ctx := context.Background()
	var ranPartial, gatesPartial, judged int
	for _, cfg := range Configs(nConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		p := compile(t, c)
		for _, vec := range refVectors(t, cfg, c) {
			for _, filter := range []bool{false, true} {
				ref, err := runDenseRef(c, vec.events, cfg.Mode, filter)
				if err != nil {
					t.Fatalf("%s/%s: reference: %v", cfg.Name, vec.label, err)
				}
				for _, workers := range []int{1, 8} {
					label := fmt.Sprintf("%s/%s/filter=%v/workers=%d", cfg.Name, vec.label, filter, workers)
					res, err := p.Analyze(ctx, vec.events, cfg.Mode, sta.Options{Workers: workers, PulseFiltering: filter})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := diffRef(c, res, ref); err != nil {
						t.Errorf("%s: walk diverges from the dense reference: %v", label, err)
					}
					if vec.label == "partial" && !filter && workers == 1 {
						ranPartial += res.Stats.GatesScheduled
						gatesPartial += len(c.Gates)
					}
				}
				judged += ref.stats.PulsesFiltered + ref.stats.PulsesDegraded
			}
		}
	}
	if ranPartial >= gatesPartial {
		t.Fatalf("the walk ran %d of %d gates on partial vectors — it never skipped one, oracle vacuous",
			ranPartial, gatesPartial)
	}
	if judged == 0 {
		t.Fatal("no pulse judged across the sweep — the filtering half is vacuous")
	}
}

// TestOracleZeroConeStimulus: stimulating only primary inputs with no
// fanout at all must succeed with an empty walk — the stimulated PIs' own
// arrivals and nothing else, exactly as the dense reference reports.
func TestOracleZeroConeStimulus(t *testing.T) {
	ctx := context.Background()
	c, _, out, err := sta.SynthChain(8)
	if err != nil {
		t.Fatal(err)
	}
	dangling := c.Input("dangling")
	evs := []sta.PIEvent{{Net: dangling, Dir: waveform.Rising, Time: 0, TT: 250e-12}}
	ref, err := runDenseRef(c, evs, sta.Proximity, false)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, c)
	for _, workers := range []int{1, 8} {
		res, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: zero-cone stimulus errored: %v", workers, err)
		}
		if err := diffRef(c, res, ref); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.GatesEvaluated != 0 || res.Stats.GatesScheduled != 0 {
			t.Fatalf("workers=%d: ran %d / evaluated %d gates with no reachable fanout",
				workers, res.Stats.GatesScheduled, res.Stats.GatesEvaluated)
		}
		if _, ok := res.Latest(out); ok {
			t.Fatalf("workers=%d: unreachable output carries an arrival", workers)
		}
		if _, ok := res.Arrival(dangling, waveform.Rising); !ok {
			t.Fatalf("workers=%d: stimulated PI lost its arrival", workers)
		}
	}
}

// cubicLibrary returns a synthetic library with every calculator switched
// to cubic Hermite table interpolation. The tables are the same grids as
// the linear default — only the in-between reconstruction differs.
func cubicLibrary() *sta.Library {
	lib := sta.SynthLibrary(3)
	for _, name := range []string{"inv", "nand2", "nand3"} {
		lib.Get(name).CubicTables = true
	}
	return lib
}

// TestOracleTableVsCubic: linear and cubic reconstructions of the same
// characterized grids must agree within tolerance everywhere — a divergence
// beyond interpolation error means one backend reads the tables wrong. The
// cubic path must also actually differ somewhere, or the toggle is dead.
func TestOracleTableVsCubic(t *testing.T) {
	ctx := context.Background()
	// Measured over this sweep: arrival times differ by at most ~3.5%
	// between the two reconstructions, TTs by up to ~33% (window membership
	// is discrete — a borderline shift adds or drops one multiplicative TT
	// factor). The budgets below leave ~2× headroom; a broken backend blows
	// through them by orders of magnitude.
	const relTime, relTT, absTol = 8e-2, 5e-1, 1e-13
	differing := 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		var text strings.Builder
		if err := sta.WriteNetlist(&text, c); err != nil {
			t.Fatalf("%s: serialize: %v", cfg.Name, err)
		}
		cc, err := sta.ParseNetlist(strings.NewReader(text.String()), cubicLibrary())
		if err != nil {
			t.Fatalf("%s: reparse over cubic library: %v", cfg.Name, err)
		}
		cubicEvs := make([]sta.PIEvent, len(evs))
		for i, ev := range evs {
			cubicEvs[i] = sta.PIEvent{Net: cc.Net(ev.Net.Name), Dir: ev.Dir, TT: ev.TT, Time: ev.Time}
		}
		p := compile(t, c)
		linRes, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: linear: %v", cfg.Name, err)
		}
		cp := compile(t, cc)
		cubRes, err := cp.Analyze(ctx, cubicEvs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: cubic: %v", cfg.Name, err)
		}
		lin, cub := Arrivals(c, linRes), Arrivals(cc, cubRes)
		if err := DiffWithin(lin, cub, relTime, relTT, absTol); err != nil {
			t.Errorf("%s: cubic backend diverges beyond tolerance: %v", cfg.Name, err)
		}
		for k, av := range lin {
			if bv, ok := cub[k]; ok && (av.Time != bv.Time || av.TT != bv.TT) {
				differing++
			}
		}
	}
	if differing == 0 {
		t.Fatal("cubic backend never produced a different value — toggle appears dead, oracle vacuous")
	}
}
