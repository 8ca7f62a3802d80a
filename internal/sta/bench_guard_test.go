package sta

// TestBenchGuard holds the engine's costs to one table of rows, each a
// number measured on the bench fixture (bench_test.go):
//
//	BENCH_GUARD=1  go test -run '^TestBenchGuard$' -v ./internal/sta/  # check every row
//	BENCH_RECORD=1 go test -run '^TestBenchGuard$' -v ./internal/sta/  # add a reading to BENCH_guards.json
//
// A time row compares one operation with a single feature toggled, run as
// alternating pairs, so the host's speed cancels out of each pair's ratio.
// Work the engine may not grow is counted instead of timed: gates run and
// bytes allocated per tile-local vector, per MC sample and per single-PI
// delta. A time row divided by a path that gets faster on its own (full ÷
// partial, full ÷ delta) cannot tell that from a costlier divisor, so those
// ratios are held only to their acceptance bars.
//
// A recorded row reads at most its record × margin. Its record is the
// median of its first ten BENCH_RECORD=1 readings; later recordings keep
// the last ten readings beside it but never move it. To re-record a row,
// delete its entry from the file and record ten runs.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

const (
	recordPath = "../../BENCH_guards.json"
	// recordRuns is how many BENCH_RECORD=1 readings a record is the
	// median of.
	recordRuns = 10
	// Time and bytes rows may read a quarter above their record: pairs on
	// a shared host, and the allocator across Go releases (CI builds with
	// go.mod's Go, not the recording one), move them that much. Work counts
	// may not rise.
	timeMargin  = 1.25
	bytesMargin = 1.25
	workMargin  = 1
	// timeReps is how many alternating pairs a time row runs.
	timeReps = 10
	// deltaCalls is how many nudges a delta pass makes.
	deltaCalls = 32
	// partialVectors and fullVectors size BenchmarkSparseBatch's batches.
	partialVectors = 16
	fullVectors    = 4
)

// A benchRow is one number TestBenchGuard holds the engine to.
type benchRow struct {
	name, what string
	// margin is how far a reading may exceed the row's record; 0 marks a
	// row held to its bar alone.
	margin float64
	// atMost and atLeast are the row's acceptance bar (0: none).
	atMost, atLeast float64
	// read measures the row: a time row's pairwise ratios, or one count.
	read func(tb testing.TB, f *guardFixture) []float64
}

// guardFixture is what the rows measure: the bench fixture's compile, its
// three vectors and the kept baselines of its deltas.
type guardFixture struct {
	c                   *Circuit
	p                   *Compiled
	local, full, runt   []PIEvent
	delta, glitchDelta  *deltaQuery // BenchmarkDelta's and BenchmarkGlitchDelta's
	runtDelta           *deltaQuery // BenchmarkGlitchDelta's with filtering off
	partial, fullVector side        // BenchmarkSparseBatch's batches
}

func newGuardFixture(tb testing.TB) *guardFixture {
	c, local := getMCBench(tb)
	_, runt := getGlitchBench(tb)
	p := compileBench(tb, c)
	full := SynthEvents(c, 0)
	return &guardFixture{
		c: c, p: p, local: local, full: full, runt: runt,
		delta:       newDeltaQuery(tb, p, full, plainOpt),
		glitchDelta: newDeltaQuery(tb, p, runt, filterOpt),
		runtDelta:   newDeltaQuery(tb, p, runt, plainOpt),
		partial:     side{batchOp(p, tiledBatch(c, partialVectors)), 32, partialVectors},
		fullVector:  side{batchOp(p, fullBatch(c, fullVectors)), 2, fullVectors},
	}
}

var benchRows = []benchRow{
	{
		name: "filter_overhead", what: "filtered ÷ plain analysis of the runt-heavy vector (BenchmarkPulseFilter on ÷ off)",
		margin: timeMargin, atMost: 2,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			res, err := f.p.Analyze(context.Background(), f.runt, Proximity, filterOpt)
			if err != nil {
				tb.Fatal(err)
			}
			if res.Stats.PulsesFiltered+res.Stats.PulsesDegraded == 0 {
				tb.Fatal("the runt-heavy vector judged no pulse — the row is vacuous")
			}
			return pairs(tb, side{analyzeOp(f.p, f.runt, filterOpt), 8, 1}, side{analyzeOp(f.p, f.runt, plainOpt), 8, 1})
		},
	},
	{
		name: "mc_sample_overhead", what: "one serial MC sample ÷ a plain analysis of the tile-local vector (BenchmarkMC/amortized-1024)",
		margin: timeMargin, atMost: 1.5,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return pairs(tb, side{mcOp(f.p, f.local), 1, mcBenchSamples}, side{analyzeOp(f.p, f.local, plainOpt), 512, 1})
		},
	},
	{
		name: "mc_sample_bytes", what: "bytes allocated per sample of a serial 1,024-sample MC run on the tile-local vector (BenchmarkMC/amortized-1024)",
		margin: bytesMargin,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			// Four calls a pass: each call takes its worker's scratch from
			// the handle's pool once, and now and then finds the pool empty
			// (the scratch was put back on another P) and allocates a
			// ~200 KB scratch, which on one call alone reads over a third
			// above the rest, and on one call of four a tenth.
			return []float64{side{mcOp(f.p, f.local), 4, mcBenchSamples}.bytes(tb)}
		},
	},
	{
		name: "delta_filter_overhead", what: "filtered ÷ plain single-PI delta on the runt-heavy vector (BenchmarkGlitchDelta/delta)",
		margin: timeMargin,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return pairs(tb, side{f.glitchDelta.op(), deltaCalls, 1}, side{f.runtDelta.op(), deltaCalls, 1})
		},
	},
	{
		name: "full_over_partial", what: "full ÷ tile-local vector (BenchmarkSparseBatch)",
		atLeast: 50,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return pairs(tb, f.fullVector, f.partial)
		},
	},
	{
		name: "full_over_delta", what: "full re-analysis ÷ single-PI delta (BenchmarkDelta)",
		atLeast: 5,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return pairs(tb, side{reanalyzeOp(f.p, f.full, plainOpt), 8, 1}, side{f.delta.op(), deltaCalls, 1})
		},
	},
	{
		name: "full_over_delta_filtered", what: "filtered full re-analysis ÷ filtered single-PI delta (BenchmarkGlitchDelta)",
		atLeast: 5,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return pairs(tb, side{reanalyzeOp(f.p, f.runt, filterOpt), 8, 1}, side{f.glitchDelta.op(), deltaCalls, 1})
		},
	},
	{
		name: "partial_gates_scheduled", what: "gates the walk runs per tile-local vector",
		margin: workMargin,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			res, err := f.p.AnalyzeBatch(context.Background(), tiledBatch(f.c, partialVectors), Proximity, plainOpt)
			if err != nil {
				tb.Fatal(err)
			}
			n := 0
			for _, r := range res {
				n += r.Stats.GatesScheduled
			}
			return []float64{float64(n) / partialVectors}
		},
	},
	{
		name: "partial_bytes", what: "bytes allocated per tile-local vector",
		margin: bytesMargin,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return []float64{f.partial.bytes(tb)}
		},
	},
	{
		name: "delta_gates_reevaluated", what: "gates re-evaluated per single-PI delta",
		margin: workMargin,
		read:   func(tb testing.TB, f *guardFixture) []float64 { return reevaluated(tb, f.delta) },
	},
	{
		name: "delta_bytes", what: "bytes allocated per single-PI delta",
		margin: bytesMargin,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return []float64{side{f.delta.op(), deltaCalls, 1}.bytes(tb)}
		},
	},
	{
		name: "delta_gates_reevaluated_filtered", what: "gates re-evaluated per filtered single-PI delta",
		margin: workMargin,
		read:   func(tb testing.TB, f *guardFixture) []float64 { return reevaluated(tb, f.glitchDelta) },
	},
	{
		name: "delta_bytes_filtered", what: "bytes allocated per filtered single-PI delta",
		margin: bytesMargin,
		read: func(tb testing.TB, f *guardFixture) []float64 {
			return []float64{side{f.glitchDelta.op(), deltaCalls, 1}.bytes(tb)}
		},
	},
}

// reevaluated returns the gates a delta re-evaluates, on average over the
// nudges a delta pass makes; a delta must re-evaluate some gates but not
// all of them.
func reevaluated(tb testing.TB, d *deltaQuery) []float64 {
	n := 0
	for i := 0; i < deltaCalls; i++ {
		res, err := d.run(i)
		if err != nil {
			tb.Fatal(err)
		}
		n += res.Stats.GatesReevaluated
	}
	perDelta := float64(n) / deltaCalls
	if perDelta == 0 || perDelta >= float64(d.p.NumGates()) {
		tb.Fatalf("a delta re-evaluated %g of %d gates — the row is vacuous", perDelta, d.p.NumGates())
	}
	if d.opt.PulseFiltering && d.baseline.Stats.PulsesFiltered+d.baseline.Stats.PulsesDegraded == 0 {
		tb.Fatal("the filtered baseline judged no pulse — the row is vacuous")
	}
	return []float64{perDelta}
}

// verdict reduces a row's readings to its value, the mean of their middle
// half (the outer quartiles dropped, as the flight-recorder guard does: one
// noisy pair moves nothing, while a real cost shifts every pair), and
// checks the value against the row's bar and, when record > 0, against
// record × margin. A value exactly at a bound passes.
func (r benchRow) verdict(readings []float64, record float64) (float64, error) {
	s := slices.Clone(readings)
	slices.Sort(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	v := 0.0
	for _, x := range s {
		v += x
	}
	v /= float64(len(s))
	switch {
	case r.atMost > 0 && v > r.atMost:
		return v, fmt.Errorf("%s reads %.4g, above its bar %.4g", r.name, v, r.atMost)
	case r.atLeast > 0 && v < r.atLeast:
		return v, fmt.Errorf("%s reads %.4g, below its bar %.4g", r.name, v, r.atLeast)
	case r.margin > 0 && record > 0 && v > record*r.margin:
		return v, fmt.Errorf("%s reads %.4g, above its record %.4g × margin %.2f", r.name, v, record, r.margin)
	}
	return v, nil
}

// A side is one half of a time row: an op, the calls of it one pass makes
// (ops 0 to calls-1, so a delta's nudges are the same in every pass and on
// both sides of a pair), and the units (vectors, samples) one call yields.
// A pass takes some 40 to 200 ms and allocates a few times the fixture's
// live heap (about 9 MB).
type side struct {
	op           op
	calls, units int
}

// pass runs one pass and returns its seconds per unit. It starts from a
// collected heap, so it pays for the collections its own garbage causes,
// not for the one the previous pass left running.
func (s side) pass(tb testing.TB) float64 {
	runtime.GC()
	start := time.Now()
	for i := 0; i < s.calls; i++ {
		if err := s.op(i); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start).Seconds() / float64(s.calls*s.units)
}

// bytes returns the bytes one pass allocates per unit.
func (s side) bytes(tb testing.TB) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.pass(tb)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(s.calls*s.units)
}

// pairs warms both sides up, then runs their passes in alternating order —
// den first on even reps, num first on odd ones, so drift within a pair
// charges neither side — and returns each pair's ratio of per-unit times,
// num ÷ den.
func pairs(tb testing.TB, num, den side) []float64 {
	num.pass(tb)
	den.pass(tb)
	ratios := make([]float64, timeReps)
	for r := range ratios {
		var tn, td float64
		if r%2 == 0 {
			td = den.pass(tb)
			tn = num.pass(tb)
		} else {
			tn = num.pass(tb)
			td = den.pass(tb)
		}
		ratios[r] = tn / td
	}
	return ratios
}

// guardRecord is the BENCH_guards.json schema: per recorded row, the
// record and the readings it is the median of, and the Go release that
// took the last reading.
type guardRecord struct {
	Go   string                `json:"go"`
	Rows map[string]*rowRecord `json:"rows"`
}

type rowRecord struct {
	Record   float64   `json:"record"`
	Readings []float64 `json:"readings,omitempty"`
}

// add appends a reading, keeping the last recordRuns. A row not yet
// recorded takes the median of its first recordRuns readings as its
// record; a recorded row keeps its record.
func (r *rowRecord) add(v float64) {
	r.Readings = append(r.Readings, v)
	if len(r.Readings) > recordRuns {
		r.Readings = r.Readings[1:]
	}
	if r.Record == 0 && len(r.Readings) == recordRuns {
		s := slices.Clone(r.Readings)
		slices.Sort(s)
		r.Record = (s[recordRuns/2-1] + s[recordRuns/2]) / 2
	}
}

func TestBenchGuard(t *testing.T) {
	recording := os.Getenv("BENCH_RECORD") != ""
	if !recording && os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to check the rows against BENCH_guards.json, or BENCH_RECORD=1 to add a reading to it")
	}
	rec := guardRecord{Rows: map[string]*rowRecord{}}
	data, err := os.ReadFile(recordPath)
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil && !(recording && errors.Is(err, os.ErrNotExist)) {
		t.Fatal(err)
	}
	if rec.Go != runtime.Version() {
		t.Logf("recorded with %s, running %s", rec.Go, runtime.Version())
	}
	f := newGuardFixture(t)
	for _, r := range benchRows {
		t.Run(r.name, func(t *testing.T) {
			rr := rec.Rows[r.name]
			if r.margin > 0 && rr == nil {
				rr = &rowRecord{}
				rec.Rows[r.name] = rr
			}
			record := 0.0
			if r.margin > 0 && !recording {
				if record = rr.Record; record == 0 {
					t.Fatalf("%s has no record yet (%d of %d readings): run BENCH_RECORD=1", r.name, len(rr.Readings), recordRuns)
				}
			}
			readings := r.read(t, f)
			v, err := r.verdict(readings, record)
			t.Logf("%.4g (readings %.4g to %.4g)  record %.4g  %s",
				v, slices.Min(readings), slices.Max(readings), record, r.what)
			if err != nil {
				t.Error(err)
			}
			if recording && r.margin > 0 {
				rr.add(v)
			}
		})
	}
	if !recording || t.Failed() {
		return
	}
	rec.Go = runtime.Version()
	data, err = json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recordPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBenchVerdict pins the reduction from readings to a row's verdict.
func TestBenchVerdict(t *testing.T) {
	capped := benchRow{name: "capped", margin: 1.25, atMost: 2}
	floored := benchRow{name: "floored", atLeast: 5}
	work := benchRow{name: "work", margin: 1}
	for _, tc := range []struct {
		name     string
		row      benchRow
		readings []float64
		record   float64
		want     float64
		pass     bool
	}{
		{"odd reps keep the middle three", capped, []float64{1.3, 1.0, 1.2, 1.1, 9}, 1, 1.2, true},
		{"even reps keep the middle half", capped, []float64{1.0, 1.4, 1.1, 1.3, 1.2, 1.5, 0.2, 1.6}, 1.1, 1.25, true},
		{"one outlier pair moves nothing", capped, []float64{1, 1, 1, 1, 1, 1, 1, 40}, 1, 1, true},
		{"a count exactly at its record", work, []float64{48}, 48, 48, true},
		{"a count above its record", work, []float64{49}, 48, 49, false},
		{"exactly at record × margin", capped, []float64{1.25, 1.25, 1.25, 1.25}, 1, 1.25, true},
		{"just above record × margin", capped, []float64{1.26, 1.26, 1.26, 1.26}, 1, 1.26, false},
		{"no record: the bar alone", capped, []float64{1.9}, 0, 1.9, true},
		{"exactly at the bar", capped, []float64{2, 2}, 0, 2, true},
		{"above the bar", capped, []float64{2.1}, 10, 2.1, false},
		{"exactly at a floor", floored, []float64{5, 5, 5}, 0, 5, true},
		{"below a floor", floored, []float64{4.9, 5.5, 4.8, 4.9}, 0, 4.9, false},
	} {
		readings := slices.Clone(tc.readings)
		v, err := tc.row.verdict(readings, tc.record)
		if math.Abs(v-tc.want) > 1e-12 || (err == nil) != tc.pass {
			t.Errorf("%s: got %v, %v; want %v, pass %v", tc.name, v, err, tc.want, tc.pass)
		}
		if !slices.Equal(readings, tc.readings) {
			t.Errorf("%s: verdict reordered its readings", tc.name)
		}
	}
}

// TestBenchRecordAdd: a row's record is the median of its first ten
// readings, and later readings roll the window without moving it.
func TestBenchRecordAdd(t *testing.T) {
	var r rowRecord
	for i := 1; i <= recordRuns; i++ {
		if r.Record != 0 {
			t.Fatalf("recorded after %d readings", i-1)
		}
		r.add(float64(i))
	}
	if r.Record != 5.5 {
		t.Errorf("record %v, want the median 5.5", r.Record)
	}
	r.add(100)
	if r.Record != 5.5 || len(r.Readings) != recordRuns || r.Readings[recordRuns-1] != 100 {
		t.Errorf("after an eleventh reading: record %v, readings %v", r.Record, r.Readings)
	}
	carried := rowRecord{Record: 1.16}
	for i := 0; i < recordRuns; i++ {
		carried.add(1.3)
	}
	if carried.Record != 1.16 {
		t.Errorf("a carried record moved to %v", carried.Record)
	}
}
