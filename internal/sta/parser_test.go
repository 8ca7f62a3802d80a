package sta_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

const adderNetlist = `
# 5-NAND carry structure
input a b cin
gate g1 nand2 nab a b
gate g2 nand2 nac a cin
gate g3 nand2 nbc b cin
gate g4 nand2 t1 nab nac
gate g5 inv   t1i t1
gate g6 nand2 cout t1i nbc
output cout
`

func TestParseNetlist(t *testing.T) {
	l := testLibrary(t)
	c, err := sta.ParseNetlist(strings.NewReader(adderNetlist), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 6 {
		t.Errorf("parsed %d gates, want 6", len(c.Gates))
	}
	if len(c.PIs) != 3 || len(c.POs) != 1 {
		t.Errorf("PIs=%d POs=%d", len(c.PIs), len(c.POs))
	}
	// Analyzable end to end.
	evs, err := sta.ParseEvents(c, "a:rise:300:0, b:rise:250:30, cin:r:400:60")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile(t, c).Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Latest(c.Net("cout")); !ok {
		t.Error("no arrival at cout")
	}
}

func TestParseNetlistForwardReference(t *testing.T) {
	l := testLibrary(t)
	// g1 references n2 before g2 drives it.
	src := `
input a
gate g1 nand2 n1 a n2
gate g2 inv n2 a2
input a2
output n1
`
	c, err := sta.ParseNetlist(strings.NewReader(src), l)
	if err != nil {
		t.Fatal(err)
	}
	if c.Net("n2").Driver == nil {
		t.Error("forward-referenced net lost its driver")
	}
}

func TestParseNetlistErrors(t *testing.T) {
	l := testLibrary(t)
	cases := map[string]string{
		"unknown directive": "wire x y\n",
		"gate arity":        "gate g1 nand2 out a\ninput a\n",
		"unknown type":      "input a b\ngate g1 xor2 out a b\n",
		"undriven net":      "input a\ngate g1 nand2 out a floating\noutput out\n",
		"short gate":        "gate g1 nand2\n",
		"short input":       "input\n",
	}
	for name, src := range cases {
		if _, err := sta.ParseNetlist(strings.NewReader(src), l); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseEventsErrors(t *testing.T) {
	l := testLibrary(t)
	c, err := sta.ParseNetlist(strings.NewReader("input a\ngate g1 inv out a\noutput out\n"), l)
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]string{
		"empty":        "",
		"bad format":   "a:rise:300",
		"unknown net":  "zz:rise:300:0",
		"bad dir":      "a:sideways:300:0",
		"bad tt":       "a:rise:zero:0",
		"non-positive": "a:rise:-5:0",
		"bad time":     "a:rise:300:soon",
	} {
		if _, err := sta.ParseEvents(c, spec); err == nil {
			t.Errorf("%s: accepted %q", name, spec)
		}
	}
	evs, err := sta.ParseEvents(c, "a:fall:250:10")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Dir != waveform.Falling || evs[0].TT != 250e-12 || evs[0].Time != 10e-12 {
		t.Errorf("parsed event %+v", evs[0])
	}
}

// TestParseNetlistWideRoundTrip: WriteNetlist puts every primary input on
// one line — 77.5 KB for 9,600 PIs, past bufio.Scanner's 64 KiB default —
// and ParseNetlist must read it back to the same structure.
func TestParseNetlistWideRoundTrip(t *testing.T) {
	c, err := sta.SynthTiled(1200, 8, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := sta.WriteNetlist(&text, c); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(text.String(), "\n")
	if len(first) <= 64<<10 {
		t.Fatalf("input line is %d bytes; the test wants one past 64 KiB", len(first))
	}
	back, err := sta.ParseNetlist(strings.NewReader(text.String()), sta.SynthLibrary(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.PIs) != 9600 || len(back.Gates) != len(c.Gates) || len(back.POs) != len(c.POs) {
		t.Fatalf("round trip: %d PIs, %d gates, %d POs; want 9600, %d, %d",
			len(back.PIs), len(back.Gates), len(back.POs), len(c.Gates), len(c.POs))
	}
	var again strings.Builder
	if err := sta.WriteNetlist(&again, back); err != nil {
		t.Fatal(err)
	}
	if again.String() != text.String() {
		t.Fatal("re-serialized netlist differs from the original")
	}
}
