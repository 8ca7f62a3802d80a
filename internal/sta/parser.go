package sta

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/waveform"
)

// ParseNetlist reads a gate-level netlist in this package's tiny text
// format and builds a Circuit over the library:
//
//	# comment
//	input a b cin
//	gate g1 nand2 n1 a b        # gate <inst> <type> <output> <inputs...>
//	gate g2 inv    n2 n1
//	output n2
//
// Nets may be referenced before they are driven (forward references are
// legal); every gate type must exist in the library. A line may be up to
// 64 MiB long, the largest netlist body stad accepts.
func ParseNetlist(r io.Reader, lib *Library) (*Circuit, error) {
	return parseNetlist(r, lib, maxNetlistLine)
}

// maxNetlistLine bounds one line of ParseNetlist input. WriteNetlist puts
// every primary input on one line, so wide netlists need far more than
// bufio.Scanner's 64 KiB default; at stad's body limit, a netlist the
// service takes in is never refused for its line length alone.
const maxNetlistLine = 64 << 20

// parseNetlist is ParseNetlist with the line limit as a parameter. The
// scanner buffer grows on demand up to maxLine.
func parseNetlist(r io.Reader, lib *Library, maxLine int) (*Circuit, error) {
	c := NewCircuit(lib)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "input":
			if len(fields) < 2 {
				return nil, fmt.Errorf("sta: line %d: input needs at least one net", lineNo)
			}
			for _, n := range fields[1:] {
				c.Input(n)
			}
		case "gate":
			if len(fields) < 5 {
				return nil, fmt.Errorf("sta: line %d: gate needs inst, type, output and inputs", lineNo)
			}
			inst, typ, out := fields[1], fields[2], fields[3]
			ins := make([]*Net, len(fields)-4)
			for i, n := range fields[4:] {
				ins[i] = c.ForwardNet(n)
			}
			if _, err := c.AddGate(inst, typ, out, ins...); err != nil {
				return nil, fmt.Errorf("sta: line %d: %w", lineNo, err)
			}
		case "output":
			if len(fields) < 2 {
				return nil, fmt.Errorf("sta: line %d: output needs at least one net", lineNo)
			}
			for _, n := range fields[1:] {
				c.MarkOutput(c.ForwardNet(n))
			}
		default:
			return nil, fmt.Errorf("sta: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("sta: line %d: longer than %d bytes", lineNo+1, maxLine)
		}
		return nil, fmt.Errorf("sta: line %d: %w", lineNo+1, err)
	}
	// Sanity: every non-primary net with loads must have a driver.
	for name, n := range c.nets {
		if n.Driver == nil && !c.IsPI(n) {
			return nil, fmt.Errorf("sta: net %s is neither driven nor a declared input", name)
		}
	}
	return c, nil
}

// WriteNetlist serializes a circuit back into the text format ParseNetlist
// reads: one input line, the gates in netlist order, one output line. A
// round trip through WriteNetlist and ParseNetlist over the same library
// reproduces the circuit structure exactly (names, pin order, levelization).
func WriteNetlist(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	if len(c.PIs) > 0 {
		bw.WriteString("input")
		for _, pi := range c.PIs {
			bw.WriteByte(' ')
			bw.WriteString(pi.Name)
		}
		bw.WriteByte('\n')
	}
	for _, g := range c.Gates {
		fmt.Fprintf(bw, "gate %s %s %s", g.Name, g.Type, g.Out.Name)
		for _, in := range g.In {
			bw.WriteByte(' ')
			bw.WriteString(in.Name)
		}
		bw.WriteByte('\n')
	}
	if len(c.POs) > 0 {
		bw.WriteString("output")
		for _, po := range c.POs {
			bw.WriteByte(' ')
			bw.WriteString(po.Name)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ParseEvents parses a comma-separated primary-input event list of the form
// net:dir:tt_ps:time_ps (dir = rise|fall, abbreviations r|f accepted).
func ParseEvents(c *Circuit, s string) ([]PIEvent, error) {
	var out []PIEvent
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("sta: event %q: want net:dir:tt_ps:time_ps", part)
		}
		n := c.Net(fields[0])
		if n == nil {
			return nil, fmt.Errorf("sta: event %q: unknown net %q", part, fields[0])
		}
		var dir waveform.Direction
		switch fields[1] {
		case "rise", "r":
			dir = waveform.Rising
		case "fall", "f":
			dir = waveform.Falling
		default:
			return nil, fmt.Errorf("sta: event %q: bad direction %q", part, fields[1])
		}
		// ParseFloat accepts "NaN" and "Inf", and NaN fails tt <= 0 — guard
		// with !(tt > 0) plus explicit infinity checks so non-finite inputs
		// are rejected here instead of flowing into the engine.
		tt, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !(tt > 0) || math.IsInf(tt, 1) {
			return nil, fmt.Errorf("sta: event %q: bad transition time %q", part, fields[2])
		}
		at, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || math.IsNaN(at) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("sta: event %q: bad time %q", part, fields[3])
		}
		out = append(out, PIEvent{Net: n, Dir: dir, TT: tt * 1e-12, Time: at * 1e-12})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sta: no events")
	}
	return out, nil
}
