package sta

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// SynthLibrary returns a library of analytically modeled gates — "inv" plus
// "nand2" … "nandN" for N = maxInputs — built from macromodel.SynthModel.
// No transient simulation runs behind these calculators, so circuits of
// hundreds of thousands of gates characterize instantly; use it for
// large-netlist tests and benchmarks, not for physical results.
func SynthLibrary(maxInputs int) *Library {
	lib := NewLibrary()
	lib.Add("inv", core.NewCalculator(macromodel.SynthModel("inv", 1)))
	for n := 2; n <= maxInputs; n++ {
		lib.Add(fmt.Sprintf("nand%d", n), core.NewCalculator(macromodel.SynthModel("nand", n)))
	}
	return lib
}

// SynthChain builds an inverter chain of the given depth over a synthetic
// library: primary input "in" feeding depth inverters, the last of which is
// marked as the primary output. The chain is the deepest possible netlist
// per gate count — the levelization stress case.
func SynthChain(depth int) (c *Circuit, in, out *Net, err error) {
	if depth < 1 {
		return nil, nil, nil, fmt.Errorf("sta: chain depth must be positive")
	}
	c = NewCircuit(SynthLibrary(1))
	prev := c.Input("in")
	in = prev
	for i := 0; i < depth; i++ {
		prev, err = c.AddGate(fmt.Sprintf("i%d", i), "inv", fmt.Sprintf("n%d", i), prev)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	c.MarkOutput(prev)
	return c, in, prev, nil
}

// SynthRandom builds a pseudo-random layered combinational DAG with nPIs
// primary inputs and nGates gates (a mix of inverters and 2-/3-input NANDs
// over the synthetic library), deterministic in seed. Gates are laid out in
// layers roughly nGates/64 wide, each gate anchored on the previous layer
// with the remaining inputs drawn from anywhere earlier — the wide-level,
// moderate-depth shape of mapped logic (and the shape the levelized
// parallel Analyze is built for). Every net without fanout is marked as a
// primary output.
func SynthRandom(nPIs, nGates int, seed int64) (*Circuit, error) {
	if nPIs < 1 || nGates < 1 {
		return nil, fmt.Errorf("sta: need at least one PI and one gate")
	}
	rng := rand.New(rand.NewSource(seed))
	c := NewCircuit(SynthLibrary(3))
	pool := make([]*Net, 0, nPIs+nGates)
	for i := 0; i < nPIs; i++ {
		pool = append(pool, c.Input(fmt.Sprintf("p%d", i)))
	}
	width := nGates / 64
	if width < 8 {
		width = 8
	}
	hasFanout := make(map[*Net]bool, nPIs+nGates)
	prevLayer := pool // layer -1: the primary inputs
	var layer []*Net
	for i := 0; i < nGates; i++ {
		typ, arity := "nand2", 2
		switch r := rng.Intn(10); {
		case r < 2:
			typ, arity = "inv", 1
		case r >= 7:
			typ, arity = "nand3", 3
		}
		ins := make([]*Net, arity)
		// First input from the previous layer keeps the DAG layered;
		// the rest come from anywhere earlier for cross-layer fanin.
		ins[0] = prevLayer[rng.Intn(len(prevLayer))]
		for k := 1; k < arity; k++ {
			ins[k] = pool[rng.Intn(len(pool))]
		}
		out, err := c.AddGate(fmt.Sprintf("g%d", i), typ, fmt.Sprintf("n%d", i), ins...)
		if err != nil {
			return nil, err
		}
		for _, in := range ins {
			hasFanout[in] = true
		}
		layer = append(layer, out)
		if len(layer) >= width {
			pool = append(pool, layer...)
			prevLayer, layer = layer, nil
		}
	}
	pool = append(pool, layer...)
	for _, n := range pool {
		if !hasFanout[n] && n.Driver != nil {
			c.MarkOutput(n)
		}
	}
	return c, nil
}

// SynthTiled builds nTiles independent pseudo-random blocks in one circuit:
// each tile is a small layered DAG (the SynthRandom construction with a
// tile-local pool) over its own pisPerTile primary inputs, with no nets
// shared between tiles. This is the block-partitioned shape of real designs
// where batch timing queries have locality — a vector that stimulates one
// tile's inputs can only ever reach that tile's gates, so it is the
// reference workload for partial-activity analysis (the walk runs one tile
// of many).
func SynthTiled(nTiles, pisPerTile, gatesPerTile int, seed int64) (*Circuit, error) {
	if nTiles < 1 || pisPerTile < 1 || gatesPerTile < 1 {
		return nil, fmt.Errorf("sta: need at least one tile, PI and gate per tile")
	}
	rng := rand.New(rand.NewSource(seed))
	c := NewCircuit(SynthLibrary(3))
	for t := 0; t < nTiles; t++ {
		pool := make([]*Net, 0, pisPerTile+gatesPerTile)
		for i := 0; i < pisPerTile; i++ {
			pool = append(pool, c.Input(fmt.Sprintf("t%d_p%d", t, i)))
		}
		width := gatesPerTile / 8
		if width < 4 {
			width = 4
		}
		hasFanout := make(map[*Net]bool, pisPerTile+gatesPerTile)
		prevLayer := pool
		var layer []*Net
		for i := 0; i < gatesPerTile; i++ {
			typ, arity := "nand2", 2
			switch r := rng.Intn(10); {
			case r < 2:
				typ, arity = "inv", 1
			case r >= 7:
				typ, arity = "nand3", 3
			}
			ins := make([]*Net, arity)
			ins[0] = prevLayer[rng.Intn(len(prevLayer))]
			for k := 1; k < arity; k++ {
				ins[k] = pool[rng.Intn(len(pool))]
			}
			out, err := c.AddGate(fmt.Sprintf("t%d_g%d", t, i), typ, fmt.Sprintf("t%d_n%d", t, i), ins...)
			if err != nil {
				return nil, err
			}
			for _, in := range ins {
				hasFanout[in] = true
			}
			layer = append(layer, out)
			if len(layer) >= width {
				pool = append(pool, layer...)
				prevLayer, layer = layer, nil
			}
		}
		pool = append(pool, layer...)
		for _, n := range pool {
			if !hasFanout[n] && n.Driver != nil {
				c.MarkOutput(n)
			}
		}
	}
	return c, nil
}

// TilePIs returns the primary inputs of one SynthTiled tile (by naming
// convention), for building tile-local stimulus vectors.
func TilePIs(c *Circuit, tile int) []*Net {
	var pis []*Net
	for i := 0; ; i++ {
		n := c.Net(fmt.Sprintf("t%d_p%d", tile, i))
		if n == nil {
			break
		}
		pis = append(pis, n)
	}
	return pis
}

// SynthEvents builds one deterministic event per primary input — a
// full-activity stimulus with staggered arrival times, varied transition
// times, and alternating directions, seeded for reproducibility.
func SynthEvents(c *Circuit, seed int64) []PIEvent {
	return SynthEventsFor(c.PIs, seed)
}

// SynthEventsFor builds one deterministic event per net of a primary-input
// subset — the partial-stimulus shape.
func SynthEventsFor(pis []*Net, seed int64) []PIEvent {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]PIEvent, len(pis))
	for i, pi := range pis {
		dir := waveform.Rising
		if rng.Intn(2) == 1 {
			dir = waveform.Falling
		}
		evs[i] = PIEvent{
			Net:  pi,
			Dir:  dir,
			Time: float64(rng.Intn(120)) * 1e-12,
			TT:   (120 + float64(rng.Intn(400))) * 1e-12,
		}
	}
	return evs
}
