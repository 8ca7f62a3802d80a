// Package difftest is the differential-testing and metamorphic-invariant
// harness for the analyze path. The paper's Algorithm ProximityDelay is
// compositional — the answer must not depend on how the work is scheduled —
// so the repo's parallel, batched, and HTTP execution paths are all checked
// against the serial reference over seeded random circuits and stimuli,
// together with the metamorphic invariants the model implies (time-shift
// equivariance, worker-count invariance, net-relabeling consistency,
// event-order independence).
//
// This file holds the pure harness: config enumeration, circuit/stimulus
// generation, and result comparison. The oracles themselves live in the
// package's tests, so the harness is importable without dragging in testing.
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// Config is one seeded circuit/stimulus configuration. Everything about the
// run — topology, stimulus, and analysis mode — is a deterministic function
// of the fields, so a failing config replays exactly from its Name.
type Config struct {
	Name   string
	Seed   int64
	NPIs   int
	NGates int
	// Chain selects the deep inverter chain (levelization stress) instead
	// of the wide random DAG; ChainDepth is its length.
	Chain      bool
	ChainDepth int
	Mode       sta.Mode
}

// Configs enumerates n deterministic configurations cycling through circuit
// shapes (wide shallow DAGs, larger mixed DAGs, deep chains), both analysis
// modes, and distinct seeds. The same n always yields the same list.
func Configs(n int) []Config {
	shapes := []struct{ npis, ngates int }{
		{4, 24}, {8, 60}, {12, 120}, {16, 200}, {6, 48}, {10, 90},
	}
	out := make([]Config, 0, n)
	for i := 0; len(out) < n; i++ {
		mode := sta.Proximity
		if i%3 == 2 {
			mode = sta.Conventional
		}
		seed := int64(1000 + i)
		if i%7 == 6 {
			depth := 20 + 15*(i%5)
			out = append(out, Config{
				Name: fmt.Sprintf("chain%d-d%d-%v", seed, depth, mode),
				Seed: seed, Chain: true, ChainDepth: depth, Mode: mode,
			})
			continue
		}
		sh := shapes[i%len(shapes)]
		out = append(out, Config{
			Name: fmt.Sprintf("dag%d-p%dg%d-%v", seed, sh.npis, sh.ngates, mode),
			Seed: seed, NPIs: sh.npis, NGates: sh.ngates, Mode: mode,
		})
	}
	return out
}

// Build constructs the configuration's circuit.
func (cfg Config) Build() (*sta.Circuit, error) {
	if cfg.Chain {
		c, _, _, err := sta.SynthChain(cfg.ChainDepth)
		return c, err
	}
	return sta.SynthRandom(cfg.NPIs, cfg.NGates, cfg.Seed)
}

// WireVector generates stimulus vector k for the circuit at the wire level:
// one event per primary input. Generating in wire units first means the
// in-process and HTTP paths apply the identical ps→seconds conversion,
// keeping cross-path comparisons bit-exact.
//
// Times and transition times are continuous (full random mantissas), not
// integer picoseconds: Algorithm ProximityDelay is discontinuous at
// dominance ties (when two solo output crossings coincide the reference
// choice is arbitrary, and the per-reference tables differ), and
// lattice-valued stimuli against the synthetic models' exact per-pin
// offsets make such ties likely instead of measure-zero. Continuous times
// keep every tie-flip probability at the 1-ULP level, so the metamorphic
// invariants can assert tight bounds. JSON round-trips float64 exactly
// (shortest round-trip encoding), so continuity costs the HTTP oracle
// nothing.
func (cfg Config) WireVector(c *sta.Circuit, k int) []service.Event {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(k)))
	vec := make([]service.Event, len(c.PIs))
	for i, pi := range c.PIs {
		dir := "rise"
		if rng.Intn(2) == 1 {
			dir = "fall"
		}
		vec[i] = service.Event{
			Net:    pi.Name,
			Dir:    dir,
			TTPs:   120 + 400*rng.Float64(),
			TimePs: 120 * rng.Float64(),
		}
	}
	return vec
}

// PartialWireVector is WireVector k restricted to a seeded subset of about
// a quarter of the primary inputs (always at least one) — the
// partial-activity stimulus shape where the engine's walk skips gates a
// dense level walk would visit.
func (cfg Config) PartialWireVector(c *sta.Circuit, k int) []service.Event {
	full := cfg.WireVector(c, k)
	rng := rand.New(rand.NewSource(cfg.Seed*2_000_003 + int64(k)))
	keep := len(full) / 4
	if keep < 1 {
		keep = 1
	}
	out := make([]service.Event, 0, keep)
	for _, i := range rng.Perm(len(full))[:keep] {
		out = append(out, full[i])
	}
	return out
}

// ToPIEvents converts wire events to engine events with the same arithmetic
// the service applies (ps × 1e-12), resolving nets by name.
func ToPIEvents(c *sta.Circuit, vec []service.Event) ([]sta.PIEvent, error) {
	evs := make([]sta.PIEvent, len(vec))
	for i, ev := range vec {
		n := c.Net(ev.Net)
		if n == nil {
			return nil, fmt.Errorf("difftest: unknown net %q", ev.Net)
		}
		var dir waveform.Direction
		switch ev.Dir {
		case "rise":
			dir = waveform.Rising
		case "fall":
			dir = waveform.Falling
		default:
			return nil, fmt.Errorf("difftest: bad direction %q", ev.Dir)
		}
		evs[i] = sta.PIEvent{Net: n, Dir: dir, TT: ev.TTPs * 1e-12, Time: ev.TimePs * 1e-12}
	}
	return evs, nil
}

// ArrivalKey identifies one reported transition.
type ArrivalKey struct {
	Net string
	Dir waveform.Direction
}

// Arrivals flattens a result into a comparable map over every net in the
// circuit (not just primary outputs — internal nets must agree too).
func Arrivals(c *sta.Circuit, res *sta.Result) map[ArrivalKey]sta.Arrival {
	out := map[ArrivalKey]sta.Arrival{}
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			if a, ok := res.Arrival(n, dir); ok {
				out[ArrivalKey{name, dir}] = a
			}
		}
	}
	return out
}

// DiffExact requires two arrival maps to be bit-identical: same keys, and
// per key the same Time, TT, UsedInputs and FromPin. The returned error
// names the first mismatching net. rename maps a's net names into b's namespace (nil
// = identity).
func DiffExact(a, b map[ArrivalKey]sta.Arrival, rename map[string]string) error {
	mapKey := func(k ArrivalKey) ArrivalKey {
		if rename == nil {
			return k
		}
		if to, ok := rename[k.Net]; ok {
			return ArrivalKey{to, k.Dir}
		}
		return k
	}
	if len(a) != len(b) {
		return fmt.Errorf("arrival count %d vs %d", len(a), len(b))
	}
	for k, av := range a {
		bv, ok := b[mapKey(k)]
		if !ok {
			return fmt.Errorf("net %s %v present in one result only", k.Net, k.Dir)
		}
		if av.Time != bv.Time || av.TT != bv.TT || av.UsedInputs != bv.UsedInputs || av.FromPin != bv.FromPin {
			return fmt.Errorf("net %s %v: (t=%.18e tt=%.18e used=%d pin=%d) vs (t=%.18e tt=%.18e used=%d pin=%d)",
				k.Net, k.Dir, av.Time, av.TT, av.UsedInputs, av.FromPin, bv.Time, bv.TT, bv.UsedInputs, bv.FromPin)
		}
	}
	return nil
}

// DiffWithin requires the same arrival sets with Time and TT each agreeing
// to their own relative tolerance (plus absTol slack for near-zero values)
// — the oracle for backends that are alternative interpolations of the same
// tables. TT gets a separate, looser budget: proximity-window membership is
// discrete, so a borderline arrival shift can add or drop one multiplicative
// TT factor while the arrival time moves much less.
func DiffWithin(a, b map[ArrivalKey]sta.Arrival, relTime, relTT, absTol float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("arrival count %d vs %d", len(a), len(b))
	}
	within := func(x, y, rel float64) bool {
		return math.Abs(x-y) <= absTol+rel*math.Max(math.Abs(x), math.Abs(y))
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			return fmt.Errorf("net %s %v present in one result only", k.Net, k.Dir)
		}
		if !within(av.Time, bv.Time, relTime) || !within(av.TT, bv.TT, relTT) {
			return fmt.Errorf("net %s %v: (t=%.6e tt=%.6e) vs (t=%.6e tt=%.6e) beyond rel %g/%g",
				k.Net, k.Dir, av.Time, av.TT, bv.Time, bv.TT, relTime, relTT)
		}
	}
	return nil
}

// ShiftEvents returns a copy of the events with every primary-input time
// shifted by dt — the stimulus half of the time-shift equivariance
// invariant.
func ShiftEvents(events []sta.PIEvent, dt float64) []sta.PIEvent {
	out := make([]sta.PIEvent, len(events))
	for i, ev := range events {
		ev.Time += dt
		out[i] = ev
	}
	return out
}

// ShuffleEvents returns a seeded permutation of the event list — the
// analysis must be independent of the order events are presented in.
func ShuffleEvents(events []sta.PIEvent, seed int64) []sta.PIEvent {
	out := append([]sta.PIEvent(nil), events...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// RenameNets serializes the circuit with every net renamed through a
// deterministic seeded permutation, returning the netlist text and the
// old→new mapping. Parsing the text over an equivalent library yields the
// same circuit up to labels — arrivals must be bit-identical per mapped net.
func RenameNets(c *sta.Circuit, seed int64) (netlist string, mapping map[string]string) {
	names := c.NetsByName()
	perm := rand.New(rand.NewSource(seed)).Perm(len(names))
	mapping = make(map[string]string, len(names))
	for i, name := range names {
		mapping[name] = fmt.Sprintf("w%d", perm[i])
	}
	var b strings.Builder
	if len(c.PIs) > 0 {
		b.WriteString("input")
		for _, pi := range c.PIs {
			b.WriteByte(' ')
			b.WriteString(mapping[pi.Name])
		}
		b.WriteByte('\n')
	}
	for i, g := range c.Gates {
		fmt.Fprintf(&b, "gate q%d %s %s", i, g.Type, mapping[g.Out.Name])
		for _, in := range g.In {
			b.WriteByte(' ')
			b.WriteString(mapping[in.Name])
		}
		b.WriteByte('\n')
	}
	if len(c.POs) > 0 {
		b.WriteString("output")
		for _, po := range c.POs {
			b.WriteByte(' ')
			b.WriteString(mapping[po.Name])
		}
		b.WriteByte('\n')
	}
	return b.String(), mapping
}

// RenameEvents maps a stimulus onto the renamed circuit.
func RenameEvents(renamed *sta.Circuit, events []sta.PIEvent, mapping map[string]string) ([]sta.PIEvent, error) {
	out := make([]sta.PIEvent, len(events))
	for i, ev := range events {
		n := renamed.Net(mapping[ev.Net.Name])
		if n == nil {
			return nil, fmt.Errorf("difftest: renamed net for %q missing", ev.Net.Name)
		}
		out[i] = sta.PIEvent{Net: n, Dir: ev.Dir, TT: ev.TT, Time: ev.Time}
	}
	return out, nil
}
