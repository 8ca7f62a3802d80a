package sta_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// boundaryCircuit is a small nand2 circuit over the synthetic library: two
// primary inputs, one internal net, one output.
func boundaryCircuit(t *testing.T) *sta.Circuit {
	t.Helper()
	c := sta.NewCircuit(sta.SynthLibrary(2))
	a, b := c.Input("a"), c.Input("b")
	x, err := c.AddGate("g1", "nand2", "x", a, b)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.AddGate("g2", "inv", "y", x)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(y)
	return c
}

func ev(c *sta.Circuit, net string, dir waveform.Direction, tt, at float64) sta.PIEvent {
	return sta.PIEvent{Net: c.Net(net), Dir: dir, TT: tt, Time: at}
}

// TestAnalyzeBoundaryContract enumerates every engine rejection path and
// requires each error to name the offending net, so a service mapping these
// to 400s gives clients something actionable.
func TestAnalyzeBoundaryContract(t *testing.T) {
	c := boundaryCircuit(t)
	p := compile(t, c)
	okA := func() sta.PIEvent { return ev(c, "a", waveform.Rising, 300e-12, 0) }
	cases := []struct {
		name     string
		events   []sta.PIEvent
		wantName string // substring the error must carry
	}{
		{"empty vector", nil, "empty"},
		{"event on internal net", []sta.PIEvent{ev(c, "x", waveform.Rising, 300e-12, 0)}, "x"},
		{"event on output net", []sta.PIEvent{ev(c, "y", waveform.Rising, 300e-12, 0)}, "y"},
		{"duplicate event", []sta.PIEvent{okA(), okA()}, "a"},
		{"zero TT", []sta.PIEvent{ev(c, "a", waveform.Rising, 0, 0)}, "a"},
		{"negative TT", []sta.PIEvent{ev(c, "a", waveform.Rising, -1e-12, 0)}, "a"},
		{"NaN TT", []sta.PIEvent{ev(c, "a", waveform.Rising, math.NaN(), 0)}, "a"},
		{"+Inf TT", []sta.PIEvent{ev(c, "a", waveform.Rising, math.Inf(1), 0)}, "a"},
		{"-Inf TT", []sta.PIEvent{ev(c, "a", waveform.Rising, math.Inf(-1), 0)}, "a"},
		{"NaN time", []sta.PIEvent{ev(c, "a", waveform.Rising, 300e-12, math.NaN())}, "a"},
		{"+Inf time", []sta.PIEvent{ev(c, "a", waveform.Rising, 300e-12, math.Inf(1))}, "a"},
		{"-Inf time", []sta.PIEvent{ev(c, "a", waveform.Rising, 300e-12, math.Inf(-1))}, "a"},
	}
	for _, mode := range []sta.Mode{sta.Proximity, sta.Conventional} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				res, err := p.Analyze(context.Background(), tc.events, mode, sta.Options{})
				if err == nil {
					t.Fatalf("accepted %s; result %+v", tc.name, res)
				}
				if !strings.Contains(err.Error(), tc.wantName) {
					t.Errorf("error %q does not name %q", err, tc.wantName)
				}
			})
		}
	}

	// Opposite-direction events on the same PI are two distinct transitions,
	// not duplicates — the boundary must not over-reject.
	if _, err := p.Analyze(context.Background(), []sta.PIEvent{
		ev(c, "a", waveform.Rising, 300e-12, 0),
		ev(c, "a", waveform.Falling, 300e-12, 500e-12),
		ev(c, "b", waveform.Rising, 250e-12, 20e-12),
	}, sta.Proximity, sta.Options{}); err != nil {
		t.Fatalf("valid opposite-direction events rejected: %v", err)
	}
}

// TestParseEventsBoundaryContract covers the textual event boundary,
// including the NaN/Inf literals strconv.ParseFloat happily accepts.
func TestParseEventsBoundaryContract(t *testing.T) {
	c := boundaryCircuit(t)
	bad := []struct {
		name string
		spec string
	}{
		{"unknown net", "zz:rise:300:0"},
		{"bad direction", "a:sideways:300:0"},
		{"zero tt", "a:rise:0:0"},
		{"negative tt", "a:rise:-5:0"},
		{"NaN tt", "a:rise:NaN:0"},
		{"+Inf tt", "a:rise:Inf:0"},
		{"-Inf tt", "a:rise:-Inf:0"},
		{"NaN time", "a:rise:300:NaN"},
		{"Inf time", "a:rise:300:+Inf"},
		{"malformed", "a:rise:300"},
		{"empty list", " , , "},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if evs, err := sta.ParseEvents(c, tc.spec); err == nil {
				t.Fatalf("accepted %q: %+v", tc.spec, evs)
			}
		})
	}
	evs, err := sta.ParseEvents(c, "a:rise:300:0,b:f:250:15")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("parsed %d events, want 2", len(evs))
	}
}

// TestMarkOutputDedup: declaring the same output twice (e.g. a duplicated
// `output` line, or overlapping output directives) must not duplicate the
// net in POs — duplicated POs duplicate arrivals in every report.
func TestMarkOutputDedup(t *testing.T) {
	c := boundaryCircuit(t)
	y := c.Net("y")
	before := len(c.POs)
	c.MarkOutput(y)
	c.MarkOutput(y)
	if len(c.POs) != before {
		t.Fatalf("duplicate MarkOutput grew POs to %d (was %d)", len(c.POs), before)
	}

	// The parser path: a netlist repeating the output declaration.
	lib := sta.SynthLibrary(2)
	netlist := "input a b\ngate g1 nand2 y a b\noutput y\noutput y y"
	c2, err := sta.ParseNetlist(strings.NewReader(netlist), lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.POs) != 1 {
		t.Fatalf("parsed circuit has %d POs, want 1", len(c2.POs))
	}
}
