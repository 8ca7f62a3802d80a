package sta_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// A NAND fed by two proximate primary inputs: the explanation must agree
// with the committed arrival and carry the proximity decision trace.
func buildExplainCircuit(t *testing.T) (*sta.Circuit, []sta.PIEvent) {
	t.Helper()
	lib := sta.SynthLibrary(3)
	c := sta.NewCircuit(lib)
	a, b := c.Input("a"), c.Input("b")
	n1, err := c.AddGate("g1", "nand2", "n1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.AddGate("g2", "inv", "out", n1)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out)
	evs := []sta.PIEvent{
		{Net: a, Dir: waveform.Rising, TT: 300e-12, Time: 0},
		{Net: b, Dir: waveform.Rising, TT: 260e-12, Time: 25e-12},
	}
	return c, evs
}

func TestExplainProximityNet(t *testing.T) {
	c, evs := buildExplainCircuit(t)
	res, err := compile(t, c).Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nes, err := sta.ExplainNets(c, res, []string{"n1", "out", "a"})
	if err != nil {
		t.Fatal(err)
	}

	n1 := nes[0]
	if n1.Gate != "g1" || n1.Type != "nand2" {
		t.Fatalf("n1 driver = %s (%s)", n1.Gate, n1.Type)
	}
	if len(n1.Dirs) == 0 {
		t.Fatal("n1 has no explained arrivals")
	}
	for _, de := range n1.Dirs {
		if de.Proximity == nil {
			t.Fatalf("%v: proximity result lacks a core trace", de.Dir)
		}
		if len(de.Inputs) != 2 {
			t.Fatalf("%v: %d inputs presented, want 2", de.Dir, len(de.Inputs))
		}
		// The trace's dominant pin must be the one the arrival recorded.
		dom := de.Proximity.Inputs[de.Proximity.Order[0]].Pin
		if dom != de.Arrival.FromPin {
			t.Fatalf("%v: trace dominant pin %d != arrival FromPin %d", de.Dir, dom, de.Arrival.FromPin)
		}
		if de.Arrival.UsedInputs > 1 {
			// At least one absorbed (non-pruned) step must exist.
			absorbed := 0
			for _, st := range de.Proximity.Delay {
				if !st.Pruned {
					absorbed++
				}
			}
			if absorbed != de.Arrival.UsedInputs-1 {
				t.Fatalf("%v: %d absorbed steps for UsedInputs=%d", de.Dir, absorbed, de.Arrival.UsedInputs)
			}
		}
	}

	// "a" is a primary input.
	if !nes[2].PI {
		t.Fatalf("net a not explained as a primary input: %+v", nes[2])
	}

	// Rendering mentions the driver and the dominance section.
	var sb strings.Builder
	n1.Format(&sb)
	for _, want := range []string{"g1", "nand2", "dominance order"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("formatted explain missing %q:\n%s", want, sb.String())
		}
	}
}

func TestExplainConventionalNet(t *testing.T) {
	c, evs := buildExplainCircuit(t)
	res, err := compile(t, c).Analyze(context.Background(), evs, sta.Conventional, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nes, err := sta.ExplainNets(c, res, []string{"n1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range nes[0].Dirs {
		if de.Proximity != nil {
			t.Fatalf("conventional explain carries a proximity trace")
		}
		if len(de.Arcs) != 2 {
			t.Fatalf("%v: %d arcs, want 2", de.Dir, len(de.Arcs))
		}
		winners := 0
		for _, arc := range de.Arcs {
			if arc.Winner {
				winners++
				if arc.Pin != de.Arrival.FromPin {
					t.Fatalf("%v: winning arc pin %d != FromPin %d", de.Dir, arc.Pin, de.Arrival.FromPin)
				}
				if arc.Arrives != de.Arrival.Time {
					t.Fatalf("%v: winning arc arrives %g != arrival %g", de.Dir, arc.Arrives, de.Arrival.Time)
				}
			}
		}
		if winners != 1 {
			t.Fatalf("%v: %d winning arcs", de.Dir, winners)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	c, evs := buildExplainCircuit(t)
	res, err := compile(t, c).Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.ExplainNets(c, res, []string{"nope"}); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown net error = %v, want it to name the net", err)
	}
	// A net that never transitioned explains as empty, not as an error.
	lib := sta.SynthLibrary(2)
	c2 := sta.NewCircuit(lib)
	x := c2.Input("x")
	c2.Input("y")
	if _, err := c2.AddGate("g", "inv", "z", x); err != nil {
		t.Fatal(err)
	}
	res2, err := compile(t, c2).Analyze(context.Background(), []sta.PIEvent{{Net: c2.Net("y"), Dir: waveform.Rising, TT: 200e-12, Time: 0}}, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nes, err := sta.ExplainNets(c2, res2, []string{"z"})
	if err != nil {
		t.Fatal(err)
	}
	if len(nes[0].Dirs) != 0 {
		t.Fatalf("quiet net explained with %d arrivals", len(nes[0].Dirs))
	}
	var sb strings.Builder
	nes[0].Format(&sb)
	if !strings.Contains(sb.String(), "no arrivals") {
		t.Fatalf("quiet net report missing 'no arrivals':\n%s", sb.String())
	}
}
