package sta_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// rippleAdderNetlist generates an n-bit ripple-carry adder in the 9-NAND
// full-adder realization (sum and carry per bit), as netlist text.
func rippleAdderNetlist(bits int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "input cin0")
	for i := 0; i < bits; i++ {
		fmt.Fprintf(&b, " a%d b%d", i, i)
	}
	fmt.Fprintln(&b)
	for i := 0; i < bits; i++ {
		cin := fmt.Sprintf("cin%d", i)
		// Half-XOR pieces with NAND2s: x1 = NAND(a,b); x2 = NAND(a,x1);
		// x3 = NAND(b,x1); p = NAND(x2,x3) (= a XOR b).
		fmt.Fprintf(&b, "gate g%dx1 nand2 x1_%d a%d b%d\n", i, i, i, i)
		fmt.Fprintf(&b, "gate g%dx2 nand2 x2_%d a%d x1_%d\n", i, i, i, i)
		fmt.Fprintf(&b, "gate g%dx3 nand2 x3_%d b%d x1_%d\n", i, i, i, i)
		fmt.Fprintf(&b, "gate g%dp  nand2 p_%d x2_%d x3_%d\n", i, i, i, i)
		// Sum = p XOR cin, same structure.
		fmt.Fprintf(&b, "gate g%ds1 nand2 s1_%d p_%d %s\n", i, i, i, cin)
		fmt.Fprintf(&b, "gate g%ds2 nand2 s2_%d p_%d s1_%d\n", i, i, i, i)
		fmt.Fprintf(&b, "gate g%ds3 nand2 s3_%d %s s1_%d\n", i, i, cin, i)
		fmt.Fprintf(&b, "gate g%dsum nand2 sum%d s2_%d s3_%d\n", i, i, i, i)
		// Carry out = NAND(x1, s1) (standard 9-gate realization).
		fmt.Fprintf(&b, "gate g%dc nand2 cin%d x1_%d s1_%d\n", i, i+1, i, i)
		fmt.Fprintf(&b, "output sum%d\n", i)
	}
	fmt.Fprintf(&b, "output cin%d\n", bits)
	return b.String()
}

// BenchmarkAdderAnalyze16 measures proximity-aware analysis throughput on a
// 16-bit (144-gate) ripple-carry adder.
func BenchmarkAdderAnalyze16(b *testing.B) {
	l := testLibrary(b)
	const bits = 16
	c, err := sta.ParseNetlist(strings.NewReader(rippleAdderNetlist(bits)), l)
	if err != nil {
		b.Fatal(err)
	}
	var events []sta.PIEvent
	events = append(events, sta.PIEvent{Net: c.Net("cin0"), Dir: waveform.Rising, Time: 0, TT: 250e-12})
	for i := 0; i < bits; i++ {
		events = append(events,
			sta.PIEvent{Net: c.Net(fmt.Sprintf("a%d", i)), Dir: waveform.Rising, Time: float64(i) * 20e-12, TT: 300e-12},
			sta.PIEvent{Net: c.Net(fmt.Sprintf("b%d", i)), Dir: waveform.Rising, Time: float64(i) * 25e-12, TT: 200e-12},
		)
	}
	p := compile(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRippleAdderTiming runs both analysis modes over a 4-bit (36-gate)
// adder and checks structural sanity: every output has an arrival, the
// carry chain arrivals increase monotonically with bit position, and the
// proximity analysis engages multi-input evaluation somewhere.
func TestRippleAdderTiming(t *testing.T) {
	l := testLibrary(t)
	const bits = 4
	c, err := sta.ParseNetlist(strings.NewReader(rippleAdderNetlist(bits)), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 9*bits {
		t.Fatalf("adder has %d gates, want %d", len(c.Gates), 9*bits)
	}
	var events []sta.PIEvent
	events = append(events, sta.PIEvent{Net: c.Net("cin0"), Dir: waveform.Rising, Time: 0, TT: 250e-12})
	for i := 0; i < bits; i++ {
		events = append(events,
			sta.PIEvent{Net: c.Net(fmt.Sprintf("a%d", i)), Dir: waveform.Rising, Time: float64(i) * 20e-12, TT: 300e-12},
			sta.PIEvent{Net: c.Net(fmt.Sprintf("b%d", i)), Dir: waveform.Rising, Time: float64(i) * 25e-12, TT: 200e-12},
		)
	}
	p := compile(t, c)
	for _, mode := range []sta.Mode{sta.Conventional, sta.Proximity} {
		res, err := p.Analyze(context.Background(), events, mode, sta.Options{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		prev := -1.0
		for i := 1; i <= bits; i++ {
			arr, ok := res.Latest(c.Net(fmt.Sprintf("cin%d", i)))
			if !ok {
				t.Fatalf("%v: no arrival on carry cin%d", mode, i)
			}
			if arr.Time <= prev {
				t.Errorf("%v: carry chain not monotone at bit %d (%.1fps after %.1fps)",
					mode, i, arr.Time*1e12, prev*1e12)
			}
			prev = arr.Time
		}
		for i := 0; i < bits; i++ {
			if _, ok := res.Latest(c.Net(fmt.Sprintf("sum%d", i))); !ok {
				t.Errorf("%v: no arrival on sum%d", mode, i)
			}
		}
		if mode == sta.Proximity {
			engaged := 0
			for _, name := range c.NetsByName() {
				n := c.Net(name)
				for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
					if a, ok := res.Arrival(n, dir); ok && a.UsedInputs > 1 {
						engaged++
					}
				}
			}
			if engaged == 0 {
				t.Error("proximity mode never combined multiple inputs in a 36-gate adder")
			}
			t.Logf("proximity evaluation engaged on %d arrivals", engaged)
		}
	}
}
