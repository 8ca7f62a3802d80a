// STA example: time a small combinational circuit (a 2-bit ripple-carry
// adder's carry chain built from NAND2 gates and inverters) with the
// proximity-aware analyzer, and compare against the conventional
// single-switching-input analysis the paper criticizes.
//
// The interesting effect: near-simultaneous arrivals at a NAND's inputs make
// the conventional analysis optimistic on series stacks (the real pull-down
// is slower while both inputs are mid-transit) and pessimistic on parallel
// pull-ups (the real output starts moving with the first faller).
//
//	go run ./examples/sta
package main

import (
	"context"
	"fmt"
	"log"

	prox "repro"
	"repro/internal/sta"
	"repro/internal/waveform"
)

func main() {
	// Characterize the two library cells (coarse grids for example speed).
	lib := sta.NewLibrary()
	for _, spec := range []struct {
		name   string
		kind   prox.GateKind
		inputs int
	}{
		{"nand2", prox.NAND, 2},
		{"inv", prox.INV, 1},
	} {
		gate, err := prox.BuildGate(spec.kind, spec.inputs, prox.DefaultProcess(), prox.DefaultGeometry())
		if err != nil {
			log.Fatal(err)
		}
		model, err := gate.Characterize(prox.FastCharacterization())
		if err != nil {
			log.Fatal(err)
		}
		lib.Add(spec.name, model.Calculator())
		fmt.Printf("characterized %s (thresholds %.2f/%.2f V)\n", spec.name, gate.Th.Vil, gate.Th.Vih)
	}

	// Build a NAND-only full adder carry: cout = NAND(NAND(a,b), NAND(cin, NAND-pair...)).
	// Here: g = NAND(a,b); p1 = NAND(a, b') is elided — we use the classic
	// 5-NAND carry structure on (a, b, cin).
	c := sta.NewCircuit(lib)
	a := c.Input("a")
	b := c.Input("b")
	cin := c.Input("cin")

	must := func(n *sta.Net, err error) *sta.Net {
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	nab := must(c.AddGate("g1", "nand2", "nab", a, b))       // NAND(a,b)
	nac := must(c.AddGate("g2", "nand2", "nac", a, cin))     // NAND(a,cin)
	nbc := must(c.AddGate("g3", "nand2", "nbc", b, cin))     // NAND(b,cin)
	t1 := must(c.AddGate("g4", "nand2", "t1", nab, nac))     // NAND of NANDs
	t1i := must(c.AddGate("g5", "inv", "t1i", t1))           // invert
	cout := must(c.AddGate("g6", "nand2", "cout", t1i, nbc)) // carry out
	c.MarkOutput(cout)
	p, err := c.Compile()
	if err != nil {
		log.Fatal(err)
	}

	// Stimulus: a, b, cin all rise within 60 ps of each other — exactly the
	// temporal proximity regime.
	events := []sta.PIEvent{
		{Net: a, Dir: waveform.Rising, Time: 0, TT: 300 * prox.Picosecond},
		{Net: b, Dir: waveform.Rising, Time: 30 * prox.Picosecond, TT: 200 * prox.Picosecond},
		{Net: cin, Dir: waveform.Rising, Time: 60 * prox.Picosecond, TT: 400 * prox.Picosecond},
	}

	for _, mode := range []sta.Mode{sta.Conventional, sta.Proximity} {
		res, err := p.Analyze(context.Background(), events, mode, sta.Options{})
		if err != nil {
			log.Fatal(err)
		}
		arr, ok := res.Latest(cout)
		if !ok {
			log.Fatal("no arrival at cout")
		}
		fmt.Printf("\n%-12s: cout %s at %.0f ps (transition %.0f ps)\n",
			mode, arr.Dir, arr.Time/prox.Picosecond, arr.TT/prox.Picosecond)
		path, err := res.CriticalPath(cout, arr.Dir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  critical path:")
		for _, step := range path {
			fmt.Printf(" %s@%.0fps", step.Net.Name, step.Arrival.Time/prox.Picosecond)
		}
		fmt.Println()
	}
	fmt.Println("\nThe proximity-aware arrival differs from the conventional one because")
	fmt.Println("near-simultaneous NAND input transitions are evaluated together instead")
	fmt.Println("of one at a time.")
}
