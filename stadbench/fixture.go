package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/macromodel"
	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// Fixture shape: sta.SynthTiled(240, 8, 50) is the 12,000-gate netlist
// behind every BENCH_*.json. It cannot grow past about 25,000 gates while
// sta.ParseNetlist reads lines with a 64 KiB bufio.Scanner: the `output`
// line WriteNetlist emits for a 30,000-gate tiling is 68 KB and the upload
// fails with "token too long".
const (
	tiles        = 240
	pisPerTile   = 8
	gatesPerTile = 50
)

// cells is the synthetic model library stad loads from disk, by file name.
var cells = []struct {
	name, kind string
	inputs     int
}{{"inv", "inv", 1}, {"nand2", "nand", 2}, {"nand3", "nand", 3}}

// fixture is everything one run derives from its seed: the library files
// stad reads, the netlist text it uploads, and the in-process reference
// handle built from the same files the same way stad builds its own.
type fixture struct {
	seed     int64
	libDir   string
	netlist  string
	upload   []byte // the marshaled /v1/netlists body
	circuit  *sta.Circuit
	compiled *sta.Compiled
}

// Seed streams: every input a run makes is a pure function of the workload
// seed and one of these tags, so a held-out seed re-derives all of them.
const (
	streamNetlist = iota + 1
	streamVectors
	streamEdits
	streamMC
	streamTiles
)

// derive maps (seed, stream) to an independent non-negative seed through
// the SplitMix64 finalizer.
func derive(seed int64, stream uint64) int64 {
	x := uint64(seed) + stream*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64((x ^ (x >> 31)) >> 1)
}

// newFixture writes the synthetic library into dir and builds the netlist
// and its reference handle.
func newFixture(seed int64, dir string) (*fixture, error) {
	fx := &fixture{seed: seed, libDir: filepath.Join(dir, "lib")}
	if err := os.MkdirAll(fx.libDir, 0o755); err != nil {
		return nil, err
	}
	for _, c := range cells {
		if err := macromodel.SynthModel(c.kind, c.inputs).Save(filepath.Join(fx.libDir, c.name+".json")); err != nil {
			return nil, fmt.Errorf("write %s model: %w", c.name, err)
		}
	}
	synth, err := sta.SynthTiled(tiles, pisPerTile, gatesPerTile, derive(seed, streamNetlist))
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	if err := sta.WriteNetlist(&text, synth); err != nil {
		return nil, err
	}
	fx.netlist = text.String()
	if fx.upload, err = json.Marshal(service.UploadRequest{Netlist: fx.netlist}); err != nil {
		return nil, err
	}
	lib, err := loadLibrary(fx.libDir)
	if err != nil {
		return nil, err
	}
	if fx.circuit, err = sta.ParseNetlist(strings.NewReader(fx.netlist), lib); err != nil {
		return nil, fmt.Errorf("parse fixture netlist: %w", err)
	}
	if fx.compiled, err = fx.circuit.Compile(); err != nil {
		return nil, err
	}
	return fx, nil
}

// loadLibrary reads the cell models through a fresh service.Registry, the
// loader stad itself uses.
func loadLibrary(dir string) (*sta.Library, error) {
	reg := service.NewRegistry(dir, len(cells))
	lib := sta.NewLibrary()
	for _, c := range cells {
		calc, err := reg.Get(c.name)
		if err != nil {
			return nil, err
		}
		lib.Add(c.name, calc)
	}
	return lib, nil
}

// gates is the fixture's gate count.
func (fx *fixture) gates() int { return len(fx.circuit.Gates) }

// wireEvents converts engine events to the wire's picosecond form.
func wireEvents(evs []sta.PIEvent) []service.Event {
	out := make([]service.Event, len(evs))
	for i, ev := range evs {
		out[i] = service.Event{Net: ev.Net.Name, Dir: wireDir(ev.Dir), TTPs: ev.TT * 1e12, TimePs: ev.Time * 1e12}
	}
	return out
}

func wireDir(d waveform.Direction) string {
	if d == waveform.Falling {
		return "fall"
	}
	return "rise"
}

// resolve maps wire events back onto the reference circuit with the
// arithmetic stad applies to a request (ps × 1e-12), so the reference
// analyzes bit-for-bit the stimulus the daemon analyzed.
func (fx *fixture) resolve(vec []service.Event) []sta.PIEvent {
	out := make([]sta.PIEvent, len(vec))
	for i, ev := range vec {
		dir := waveform.Rising
		if ev.Dir == "fall" {
			dir = waveform.Falling
		}
		out[i] = sta.PIEvent{Net: fx.circuit.Net(ev.Net), Dir: dir, TT: ev.TTPs * 1e-12, Time: ev.TimePs * 1e-12}
	}
	return out
}

// fullVector is the i-th full-activity stimulus: every primary input
// switches (sta.SynthEvents).
func (fx *fixture) fullVector(i int64) []service.Event {
	return wireEvents(sta.SynthEvents(fx.circuit, derive(fx.seed, streamVectors)+i))
}

// runtVector is the i-th runt-heavy stimulus, the shape of BENCH_glitch
// confined to four tiles: the tiles' primary inputs switch with times
// folded into 160 ps and alternating directions, so downstream gates see
// close opposite-edge pairs the pulse filter must judge. Successive
// requests walk the tiles, so one run samples the whole netlist.
func (fx *fixture) runtVector(i int64) []service.Event {
	first := int(derive(fx.seed, streamTiles)%tiles) + 4*int(i)
	var pis []*sta.Net
	for t := 0; t < 4; t++ {
		pis = append(pis, sta.TilePIs(fx.circuit, (first+t)%tiles)...)
	}
	evs := sta.SynthEventsFor(pis, derive(fx.seed, streamVectors)+i)
	for k := range evs {
		evs[k].Time = float64(k%5) * 40e-12
		evs[k].Dir = waveform.Rising
		if k%2 == 1 {
			evs[k].Dir = waveform.Falling
		}
	}
	return wireEvents(evs)
}

// timingEdit returns a single-primary-input timing edit of vec drawn from
// rng: one input keeps its direction and gets a new time and transition
// time.
func timingEdit(rng *rand.Rand, vec []service.Event) (pi int, ev service.Event) {
	pi = rng.Intn(len(vec))
	ev = vec[pi]
	ev.TimePs = float64(rng.Intn(120))
	ev.TTPs = float64(120 + rng.Intn(400))
	return pi, ev
}

// wireResult is a Result as stad reports it: primary-output arrivals in
// declaration order, rising before falling, in picoseconds, plus the
// workload counters.
func wireResult(c *sta.Circuit, res *sta.Result) service.VectorResult {
	vr := service.VectorResult{
		GatesEvaluated: res.Stats.GatesEvaluated,
		ProximityEvals: res.Stats.ProximityEvals,
		SingleArcEvals: res.Stats.SingleArcEvals,
		PulsesFiltered: res.Stats.PulsesFiltered,
		PulsesDegraded: res.Stats.PulsesDegraded,
		PulsesUnjudged: res.Stats.PulsesUnjudged,
	}
	for _, po := range c.POs {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			if a, ok := res.Arrival(po, dir); ok {
				vr.Arrivals = append(vr.Arrivals, service.Arrival{
					Net: po.Name, Dir: dir.String(), TimePs: a.Time * 1e12, TTPs: a.TT * 1e12, UsedInputs: a.UsedInputs,
				})
			}
		}
	}
	return vr
}

// wireMC is an MCResult as stad reports it.
func wireMC(res *sta.MCResult) service.MCResponse {
	out := service.MCResponse{
		Mode: res.Mode.String(), Samples: res.Samples, Seed: res.Seed, Sigma: res.Sigma,
		GatesEvaluated: res.Stats.GatesEvaluated,
		PulsesFiltered: res.Stats.PulsesFiltered,
		PulsesDegraded: res.Stats.PulsesDegraded,
		PulsesUnjudged: res.Stats.PulsesUnjudged,
	}
	for _, od := range res.Outputs {
		wd := service.MCOutputDist{
			Net: od.Net.Name, Dir: od.Dir.String(), N: od.Dist.N,
			MeanPs: od.Dist.Mean * 1e12, StdPs: od.Dist.Std * 1e12,
			MinPs: od.Dist.Min * 1e12, MaxPs: od.Dist.Max * 1e12,
			P50Ps: od.Dist.P50 * 1e12, P95Ps: od.Dist.P95 * 1e12, P99Ps: od.Dist.P99 * 1e12,
		}
		if h := od.Dist.Hist; h != nil {
			wd.Hist = &service.MCHistWire{LoPs: h.Lo * 1e12, HiPs: h.Hi * 1e12, Counts: h.Counts}
		}
		out.Outputs = append(out.Outputs, wd)
	}
	for _, gc := range res.Criticality {
		out.Criticality = append(out.Criticality, service.MCCriticality{
			Gate: gc.Gate.Name, Type: gc.Gate.Type, Out: gc.Gate.Out.Name, Count: gc.Count, Probability: gc.Probability,
		})
	}
	for _, gc := range res.GlitchCriticality {
		out.GlitchCriticality = append(out.GlitchCriticality, service.MCGlitchCriticality{
			Gate: gc.Gate.Name, Type: gc.Gate.Type, Out: gc.Gate.Out.Name,
			Absorbed: gc.Absorbed, Degraded: gc.Degraded, PAbsorbed: gc.PAbsorbed, PDegraded: gc.PDegraded,
		})
	}
	return out
}

// digest is a 64-bit FNV-1a hash over the exact bits of an answer's
// fields. Answers and references hash through the same functions, so equal
// digests mean bit-equal wire picoseconds, directions, names and counters.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(v&0xff)) * 1099511628211
		v >>= 8
	}
}

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		*d = (*d ^ digest(s[i])) * 1099511628211
	}
	d.u64(uint64(len(s)))
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) int(v int)     { d.u64(uint64(v)) }

func vectorDigest(vr *service.VectorResult) digest {
	d := newDigest()
	for _, a := range vr.Arrivals {
		d.str(a.Net)
		d.str(a.Dir)
		d.f64(a.TimePs)
		d.f64(a.TTPs)
		d.int(a.UsedInputs)
	}
	for _, n := range []int{vr.GatesEvaluated, vr.ProximityEvals, vr.SingleArcEvals,
		vr.PulsesFiltered, vr.PulsesDegraded, vr.PulsesUnjudged} {
		d.int(n)
	}
	return d
}

func mcDigest(r *service.MCResponse) digest {
	d := newDigest()
	d.str(r.Mode)
	d.int(r.Samples)
	d.u64(r.Seed)
	d.f64(r.Sigma)
	for _, o := range r.Outputs {
		d.str(o.Net)
		d.str(o.Dir)
		d.int(o.N)
		for _, v := range []float64{o.MeanPs, o.StdPs, o.MinPs, o.MaxPs, o.P50Ps, o.P95Ps, o.P99Ps} {
			d.f64(v)
		}
		if h := o.Hist; h != nil {
			d.f64(h.LoPs)
			d.f64(h.HiPs)
			for _, c := range h.Counts {
				d.int(c)
			}
		}
	}
	for _, c := range r.Criticality {
		d.str(c.Gate)
		d.str(c.Type)
		d.str(c.Out)
		d.int(c.Count)
		d.f64(c.Probability)
	}
	for _, c := range r.GlitchCriticality {
		d.str(c.Gate)
		d.str(c.Type)
		d.str(c.Out)
		d.int(c.Absorbed)
		d.int(c.Degraded)
		d.f64(c.PAbsorbed)
		d.f64(c.PDegraded)
	}
	for _, n := range []int{r.GatesEvaluated, r.PulsesFiltered, r.PulsesDegraded, r.PulsesUnjudged} {
		d.int(n)
	}
	return d
}

// decode unmarshals an answer body.
func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	return nil
}
