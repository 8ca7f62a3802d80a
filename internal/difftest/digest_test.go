package difftest

// Pinned answers. Every other oracle in this package is relative — walk vs
// the dense reference walker, delta vs full, batch vs serial, HTTP vs
// in-process — and both sides call the same Calc.Evaluate, table.Grid.Eval
// and core.EvaluatePulse, so a change that moves every path alike passes
// all of them. TestDigests compares against the past instead: one FNV-64
// digest per (config, mode, filtering) over the arrival bits and Stats
// counters of all 120 configs, plus Monte-Carlo runs at sigma > 0, the
// Explain stories, and stad's answer bytes (the http family,
// http_digest_test.go), recorded in testdata/digests.txt.
//
// Regenerate only when answers are meant to move, and log the regeneration
// (which digests moved, and why) in CHANGES.md:
//
//	DIFFTEST_REGEN_DIGESTS=1 go test -run TestDigests ./internal/difftest/
//
// The digests are recorded on amd64. Other architectures may fuse
// multiply-adds (arm64, ppc64, s390x), which changes float results in the
// last bits, so the check skips there.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/waveform"
)

const (
	digestPath     = "testdata/digests.txt"
	digestRegenEnv = "DIFFTEST_REGEN_DIGESTS"
	digestArch     = "amd64"
)

// digester feeds values into an FNV-64a hash: floats by their bits, so a
// one-ulp change moves the digest.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) f(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) i(v int)     { d.u64(uint64(int64(v))) }

func (d *digester) b(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digester) s(v string) {
	d.i(len(v))
	d.h.Write([]byte(v))
}

func (d *digester) arrival(a sta.Arrival) {
	d.i(int(a.Dir))
	d.f(a.Time)
	d.f(a.TT)
	d.i(a.UsedInputs)
	d.i(a.FromPin)
	if a.FromGate != nil {
		d.s(a.FromGate.Name)
	} else {
		d.s("")
	}
}

func (d *digester) pulse(p sta.PulseInfo) {
	d.i(p.FallPin)
	d.i(p.RisePin)
	d.i(int(p.LeadDir))
	d.f(p.Sep)
	d.f(p.MinSep)
	d.b(p.MinSepOK)
	d.f(p.Extreme)
	d.f(p.Factor)
	d.b(p.Filtered)
	d.b(p.Unjudged)
}

func (d *digester) stats(st sta.Stats) {
	for _, v := range []int{
		st.GatesEvaluated, st.GatesScheduled, st.Evaluations, st.ProximityEvals,
		st.SingleArcEvals, st.PulsesFiltered, st.PulsesDegraded, st.PulsesUnjudged,
		st.GatesReevaluated, st.GatesReused,
	} {
		d.i(v)
	}
}

// result digests every net's arrivals (both directions, nets by name), the
// recorded pulse verdicts and the workload counters.
func (d *digester) result(c *sta.Circuit, res *sta.Result) {
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			a, ok := res.Arrival(n, dir)
			d.b(ok)
			if ok {
				d.s(name)
				d.arrival(a)
			}
		}
		if p, ok := res.Pulse(n); ok {
			d.s(name)
			d.pulse(p)
		}
	}
	d.stats(res.Stats)
}

func (d *digester) explain(ne *sta.NetExplain) {
	var text bytes.Buffer
	ne.Format(&text)
	d.s(text.String())
	for _, de := range ne.Dirs {
		d.arrival(de.Arrival)
		for _, in := range de.Inputs {
			d.i(in.Pin)
			d.arrival(in.Arrival)
		}
		for _, arc := range de.Arcs {
			d.i(arc.Pin)
			d.f(arc.Delay)
			d.f(arc.OutTT)
			d.f(arc.Arrives)
			d.b(arc.Winner)
		}
		ex := de.Proximity
		if ex == nil {
			continue
		}
		d.i(int(ex.Causation))
		for _, in := range ex.Inputs {
			for _, v := range []float64{in.TT, in.Cross, in.D1, in.TT1, in.Solo} {
				d.f(v)
			}
		}
		for _, o := range ex.Order {
			d.i(o)
		}
		for _, steps := range [][]core.AbsorbStep{ex.Delay, ex.TT} {
			for _, st := range steps {
				d.i(st.Input)
				d.b(st.Pruned)
				d.s(st.Reason)
				for _, v := range []float64{st.S, st.SStar, st.Window, st.X1, st.X2, st.X3,
					st.DRatio, st.TRatio, st.CumBefore, st.CumAfter} {
					d.f(v)
				}
			}
		}
		for _, ct := range []core.CorrectionTrace{ex.DelayCorrection, ex.TTCorrection} {
			d.f(ct.Raw)
			d.f(ct.Factor)
			d.f(ct.Applied)
		}
	}
}

func (d *digester) mc(res *sta.MCResult) {
	for _, od := range res.Outputs {
		d.s(od.Net.Name)
		d.i(int(od.Dir))
		ds := od.Dist
		d.i(ds.N)
		for _, v := range []float64{ds.Mean, ds.Std, ds.Min, ds.Max, ds.P50, ds.P95, ds.P99} {
			d.f(v)
		}
		if h := ds.Hist; h != nil {
			d.f(h.Lo)
			d.f(h.Hi)
			for _, n := range h.Counts {
				d.i(n)
			}
			d.i(h.Under)
			d.i(h.Over)
		}
	}
	for _, gc := range res.Criticality {
		d.s(gc.Gate.Name)
		d.i(gc.Count)
		d.f(gc.Probability)
	}
	for _, gg := range res.GlitchCriticality {
		d.s(gg.Gate.Name)
		d.i(gg.Absorbed)
		d.i(gg.Degraded)
		d.f(gg.PAbsorbed)
		d.f(gg.PDegraded)
	}
	for _, cr := range res.Corners {
		d.s(cr.Name)
		d.f(cr.Multiplier)
	}
	d.stats(res.Stats)
}

// digestEntry is one pinned answer: key, family (for the per-family
// report) and digest.
type digestEntry struct {
	key, family string
	sum         uint64
}

// family names a config's circuit shape: "dag-p4g24", ..., "chain".
func family(cfg Config) string {
	if cfg.Chain {
		return "chain"
	}
	return fmt.Sprintf("dag-p%dg%d", cfg.NPIs, cfg.NGates)
}

func filterName(on bool) string {
	if on {
		return "filter=on"
	}
	return "filter=off"
}

// computeDigests runs every pinned analysis:
//   - analyze: each of the 120 configs in both modes, filtering off and on,
//     over full vector 0 and partial vector 1;
//   - mc: every sixth config at sigma 0.05 (seeded, two workers, with the
//     slow and fast corners), filtering off and on;
//   - explain: every fourth config, filtering off and on, every net;
//   - http: status and body of stad's answers (computeHTTPDigests).
func computeDigests(t *testing.T) []digestEntry {
	t.Helper()
	ctx := context.Background()
	var out []digestEntry
	for ci, cfg := range Configs(nConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		full, err := ToPIEvents(c, cfg.WireVector(c, 0))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		partial, err := ToPIEvents(c, cfg.PartialWireVector(c, 1))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		p := compile(t, c)
		fam := family(cfg)
		for _, mode := range []sta.Mode{sta.Proximity, sta.Conventional} {
			for _, filt := range []bool{false, true} {
				d := newDigester()
				for _, evs := range [][]sta.PIEvent{full, partial} {
					res, err := p.Analyze(ctx, evs, mode, sta.Options{Workers: 1, PulseFiltering: filt})
					if err != nil {
						t.Fatalf("%s %v %s: %v", cfg.Name, mode, filterName(filt), err)
					}
					d.result(c, res)
				}
				out = append(out, digestEntry{
					key:    fmt.Sprintf("analyze %s %v %s", cfg.Name, mode, filterName(filt)),
					family: fam, sum: d.h.Sum64(),
				})
			}
		}
		if ci%6 == 0 {
			for _, filt := range []bool{false, true} {
				res, err := p.AnalyzeMC(ctx, full, cfg.Mode, sta.MCOptions{
					Samples: 16, Seed: uint64(cfg.Seed), Sigma: 0.05,
					Corners: []string{"slow", "fast"},
					Options: sta.Options{Workers: 2, PulseFiltering: filt},
				})
				if err != nil {
					t.Fatalf("%s mc %s: %v", cfg.Name, filterName(filt), err)
				}
				d := newDigester()
				d.mc(res)
				for _, cr := range res.Corners {
					d.result(c, cr.Result)
				}
				out = append(out, digestEntry{
					key:    fmt.Sprintf("mc %s %s", cfg.Name, filterName(filt)),
					family: "mc", sum: d.h.Sum64(),
				})
			}
		}
		if ci%4 == 0 {
			for _, filt := range []bool{false, true} {
				res, err := p.Analyze(ctx, full, cfg.Mode, sta.Options{Workers: 1, PulseFiltering: filt})
				if err != nil {
					t.Fatalf("%s explain %s: %v", cfg.Name, filterName(filt), err)
				}
				nes, err := sta.ExplainNets(c, res, c.NetsByName())
				if err != nil {
					t.Fatalf("%s explain %s: %v", cfg.Name, filterName(filt), err)
				}
				d := newDigester()
				for _, ne := range nes {
					d.explain(ne)
				}
				out = append(out, digestEntry{
					key:    fmt.Sprintf("explain %s %s", cfg.Name, filterName(filt)),
					family: "explain", sum: d.h.Sum64(),
				})
			}
		}
	}
	return append(out, computeHTTPDigests(t)...)
}

func readDigests(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(digestPath)
	if err != nil {
		t.Fatalf("no pinned digests (regenerate with %s=1): %v", digestRegenEnv, err)
	}
	defer f.Close()
	want := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", digestPath, line)
		}
		v, err := strconv.ParseUint(line[i+1:], 16, 64)
		if err != nil {
			t.Fatalf("%s: malformed digest in %q: %v", digestPath, line, err)
		}
		want[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeDigests(t *testing.T, got []digestEntry) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "# FNV-64a answer digests recorded on %s; see digest_test.go.\n", digestArch)
	fmt.Fprintf(&b, "# Regenerate with %s=1 and log the reason in CHANGES.md.\n", digestRegenEnv)
	for _, e := range got {
		fmt.Fprintf(&b, "%s %016x\n", e.key, e.sum)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDigests checks today's answers against the pinned digests. A
// mismatch names each moved key and summarizes the moved keys per family.
func TestDigests(t *testing.T) {
	if runtime.GOARCH != digestArch {
		t.Skipf("answer digests are recorded on %s; %s may fuse multiply-adds and round differently", digestArch, runtime.GOARCH)
	}
	got := computeDigests(t)
	if os.Getenv(digestRegenEnv) != "" {
		writeDigests(t, got)
		t.Logf("wrote %d digests to %s", len(got), digestPath)
		return
	}
	want := readDigests(t)
	moved := map[string]int{}
	total := map[string]int{}
	for _, e := range got {
		total[e.family]++
		w, ok := want[e.key]
		switch {
		case !ok:
			t.Errorf("%s: no pinned digest", e.key)
			moved[e.family]++
		case w != e.sum:
			t.Errorf("%s: digest %016x, pinned %016x", e.key, e.sum, w)
			moved[e.family]++
		}
		delete(want, e.key)
	}
	for k := range want {
		t.Errorf("%s: pinned but no longer computed", k)
	}
	if len(moved) > 0 {
		fams := make([]string, 0, len(moved))
		for f := range moved {
			fams = append(fams, f)
		}
		sort.Strings(fams)
		var b strings.Builder
		for _, f := range fams {
			fmt.Fprintf(&b, " %s %d/%d", f, moved[f], total[f])
		}
		t.Errorf("moved digests per family:%s", b.String())
	}
}
