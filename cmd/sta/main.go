// Command sta runs proximity-aware static timing analysis on a gate-level
// netlist, using the paper's delay model for gates whose inputs switch in
// close temporal proximity.
//
//	sta -netlist adder.net -event a:rise:300:0,b:rise:250:30 -mode both
//
// Gate types referenced by the netlist are characterized on the fly
// (-char nand2,inv — coarse grids unless -full) or loaded from JSON model
// files produced by charz (-model nand2=nand2.json).
//
// Large netlists: -workers bounds the per-level evaluation concurrency
// (0 = one per CPU, 1 = serial; results are identical either way). Several
// independent stimulus vectors may be batched in one run by separating them
// with ';' in -event — they share one levelization of the netlist. Only
// the gates an event actually reaches are evaluated, so partial stimuli
// cost a fraction of a full one.
//
// ECO-style what-if queries: -delta re-times the -event baseline under a
// stimulus edit (-delta sets/replaces events, -delta-remove withdraws them)
// by propagating only the nets whose arrivals actually change — the answer
// is bit-identical to a full analysis of the edited vector, at a fraction
// of the work on large netlists.
//
// Statistical timing: -mc-samples N re-times the vector N times with
// per-gate delay multipliers 1+sigma*N(0,1) drawn from a deterministic
// counter PRNG (-mc-seed selects the stream, -mc-sigma the spread) and
// reports per-output arrival distributions, a histogram, and per-gate
// criticality — the probability a gate lies on a sample's critical path.
// -mc-corners slow,typ,fast adds global corner presets.
//
// With -server http://host:port the analysis runs on a stad daemon instead
// of in-process: the netlist is uploaded once, the vectors go through
// /v1/analyze:batch, and the daemon's characterized model registry supplies
// the cell models (-char/-model are ignored). -delta maps onto
// keepBaseline + POST /v1/analyze:delta.
//
// Netlist format:
//
//	input a b cin
//	gate g1 nand2 n1 a b
//	gate g2 inv   n2 n1
//	output n2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/obs"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/table"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

func main() {
	var (
		netlist = flag.String("netlist", "", "netlist file (required)")
		events  = flag.String("event", "", "primary-input events net:dir:tt_ps:time_ps,... (required)")
		char    = flag.String("char", "nand2,inv", "gate types to characterize on the fly")
		models  = flag.String("model", "", "pre-characterized models type=file.json,...")
		mode    = flag.String("mode", "both", "analysis mode: prox, conv or both")
		full    = flag.Bool("full", false, "use full characterization grids")
		loadFF  = flag.Float64("cl", 100, "characterization load in fF")
		reqPS   = flag.Float64("required", 0, "required time at primary outputs in ps (0 = no slack report)")
		workers = flag.Int("workers", 0, "evaluation workers per level (0 = one per CPU, 1 = serial)")
		server  = flag.String("server", "", "stad base URL; analysis runs on the daemon instead of in-process")
		tracef  = flag.String("trace", "", "write a Chrome trace_event JSON of the engine phases to this file (load in chrome://tracing or Perfetto)")
		explain = flag.String("explain", "", "comma-separated nets: print the proximity decision trace behind each net's arrivals")
		vtrace  = flag.String("validate-trace", "", "validate a Chrome trace JSON file produced by -trace, then exit (used by CI)")
		deltaS  = flag.String("delta", "", "re-time the -event baseline under a stimulus edit: set/replace events net:dir:tt_ps:time_ps,... (single vector only)")
		deltaR  = flag.String("delta-remove", "", "baseline events to withdraw before -delta sets apply: net:dir,...")
		pulseF  = flag.Bool("pulse-filter", false, "apply the paper's Section-6 inertial-delay model: opposite-edge arrival pairs on a gate output below the pair's minimum separation are absorbed, survivors propagate a degraded transition time (characterizes glitch tables for -char types)")

		mcSamples = flag.Int("mc-samples", 0, "Monte-Carlo samples under process variation (0 = deterministic analysis)")
		mcSeed    = flag.Uint64("mc-seed", 0, "Monte-Carlo deviate stream seed (same seed+samples reproduces the run bit-for-bit)")
		mcSigma   = flag.Float64("mc-sigma", 0.05, "per-gate delay-multiplier standard deviation (delay scales by 1+sigma*N)")
		mcCorners = flag.String("mc-corners", "", "corner presets to evaluate alongside the samples: slow,typ,fast")
	)
	flag.Parse()
	if *vtrace != "" {
		if err := validateTraceFile(*vtrace); err != nil {
			fmt.Fprintf(os.Stderr, "sta: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *netlist == "" || *events == "" {
		flag.Usage()
		os.Exit(2)
	}
	mc, err := parseMCSpec(*mcSamples, *mcSeed, *mcSigma, *mcCorners)
	if err == nil {
		err = flagConflicts(*pulseF, mc, *deltaS, *deltaR, *server, *tracef, *explain)
	}
	if err == nil {
		if *server != "" {
			err = runRemote(*server, *netlist, *events, *mode, *deltaS, *deltaR, mc, *pulseF)
		} else {
			err = run(*netlist, *events, *char, *models, *mode, *full, *loadFF, *reqPS, *workers, *tracef, *explain, *deltaS, *deltaR, mc, *pulseF)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sta: %v\n", err)
		os.Exit(1)
	}
}

// flagConflicts validates cross-flag combinations after parsing, each error
// naming the offending flag. -pulse-filter composes with every analysis mode
// (-delta re-judges edited cones under the same filtering, -mc-* reports
// glitch criticality); -trace/-explain are in-process only.
func flagConflicts(pulseFilter bool, mc *mcSpec, deltaSet, deltaRemove, server, tracePath, explainList string) error {
	wantDelta := deltaSet != "" || deltaRemove != ""
	if mc != nil && wantDelta {
		return fmt.Errorf("-mc-samples cannot combine with -delta (a statistical run has no single baseline to edit)")
	}
	if server != "" {
		switch {
		case tracePath != "":
			return fmt.Errorf("-trace runs in-process only (use POST /v1/analyze?trace=1 against the daemon)")
		case explainList != "":
			return fmt.Errorf("-explain runs in-process only (use POST /v1/explain against the daemon)")
		}
	}
	return nil
}

func run(netPath, eventSpec, charList, modelList, mode string, full bool, loadFF, reqPS float64, workers int, tracePath, explainList, deltaSet, deltaRemove string, mc *mcSpec, pulseFilter bool) error {
	lib := sta.NewLibrary()

	// Load pre-characterized models.
	if modelList != "" {
		for _, kv := range strings.Split(modelList, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad -model entry %q (want type=file.json)", kv)
			}
			m, err := macromodel.Load(parts[1])
			if err != nil {
				return fmt.Errorf("model %s: %w", parts[0], err)
			}
			lib.Add(parts[0], core.NewCalculator(m))
		}
	}

	// Characterize remaining types.
	if charList != "" {
		for _, name := range strings.Split(charList, ",") {
			name = strings.TrimSpace(name)
			if name == "" || lib.Get(name) != nil {
				continue
			}
			calc, err := characterize(name, full, loadFF, pulseFilter)
			if err != nil {
				return fmt.Errorf("characterize %s: %w", name, err)
			}
			lib.Add(name, calc)
			fmt.Fprintf(os.Stderr, "sta: characterized %s\n", name)
		}
	}

	f, err := os.Open(netPath)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := sta.ParseNetlist(f, lib)
	if err != nil {
		return err
	}
	batch, err := parseBatch(c, eventSpec)
	if err != nil {
		return err
	}

	modes := map[string][]sta.Mode{
		"prox": {sta.Proximity},
		"conv": {sta.Conventional},
		"both": {sta.Conventional, sta.Proximity},
	}[mode]
	if modes == nil {
		return fmt.Errorf("unknown mode %q", mode)
	}
	opt := sta.Options{Workers: workers, PulseFiltering: pulseFilter}
	var tr *obs.Trace
	if tracePath != "" {
		tr = obs.NewTrace()
		opt.Trace = tr
		defer func() {
			if werr := writeTraceFile(tracePath, tr); werr != nil {
				fmt.Fprintf(os.Stderr, "sta: %v\n", werr)
			}
		}()
	}
	var explainNets []string
	if explainList != "" {
		for _, name := range strings.Split(explainList, ",") {
			if name = strings.TrimSpace(name); name != "" {
				explainNets = append(explainNets, name)
			}
		}
	}

	wantDelta := deltaSet != "" || deltaRemove != ""
	if len(batch) > 1 {
		if len(explainNets) > 0 {
			return fmt.Errorf("-explain works on a single stimulus vector (got %d)", len(batch))
		}
		if wantDelta {
			return fmt.Errorf("-delta re-times a single baseline vector (got %d)", len(batch))
		}
		if mc != nil {
			return fmt.Errorf("-mc-samples analyzes a single stimulus vector (got %d)", len(batch))
		}
	}
	var delta sta.Delta
	if wantDelta {
		if delta, err = parseDelta(c, deltaSet, deltaRemove); err != nil {
			return err
		}
	}

	// One compile serves every mode and vector of the run.
	compileSpan := tr.Begin(0, 0, "sta", "compile").Arg("gates", len(c.Gates))
	p, err := c.Compile()
	if err != nil {
		compileSpan.End()
		return err
	}
	compileSpan.Arg("levels", p.NumLevels()).End()
	if len(batch) > 1 {
		return runBatch(p, batch, modes, opt, reqPS)
	}
	if mc != nil {
		return runMC(p, batch[0], modes, opt, mc)
	}
	evs := batch[0]

	for _, m := range modes {
		res, err := p.Analyze(context.Background(), evs, m, opt)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s analysis ==\n", m)
		for _, name := range c.NetsByName() {
			n := c.Net(name)
			for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
				if a, ok := res.Arrival(n, dir); ok {
					fmt.Printf("%-12s %-8v t=%8.1f ps  tt=%7.1f ps\n",
						name, dir, a.Time*1e12, a.TT*1e12)
				}
			}
		}
		for _, po := range c.POs {
			arr, ok := res.Latest(po)
			if !ok {
				continue
			}
			path, err := res.CriticalPath(po, arr.Dir)
			if err != nil {
				return err
			}
			fmt.Printf("critical path to %s (%v @ %.1f ps):", po.Name, arr.Dir, arr.Time*1e12)
			for _, st := range path {
				fmt.Printf(" %s", st.Net.Name)
				if st.Arrival.UsedInputs > 1 {
					fmt.Printf("[prox:%d]", st.Arrival.UsedInputs)
				}
			}
			fmt.Println()
		}
		if reqPS > 0 {
			slack, at, warr, ok := res.WorstSlack(c.POs, reqPS*1e-12)
			if ok {
				status := "MET"
				if slack < 0 {
					status = "VIOLATED"
				}
				fmt.Printf("worst slack vs %.1f ps required: %.1f ps at %s (%v) — %s\n",
					reqPS, slack*1e12, at.Name, warr.Dir, status)
			}
		}
		if len(explainNets) > 0 {
			nes, err := sta.ExplainNets(c, res, explainNets)
			if err != nil {
				return err
			}
			fmt.Printf("\n-- explain (%s) --\n", m)
			for _, ne := range nes {
				ne.Format(os.Stdout)
			}
		}
		printStats(os.Stdout, res.Stats)

		if wantDelta {
			dres, err := p.AnalyzeDelta(context.Background(), res, delta, opt)
			if err != nil {
				return err
			}
			fmt.Printf("\n-- %s delta re-timing --\n", m)
			for _, name := range c.NetsByName() {
				n := c.Net(name)
				for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
					da, dok := dres.Arrival(n, dir)
					ba, bok := res.Arrival(n, dir)
					if !dok {
						if bok {
							fmt.Printf("%-12s %-8v gone (was t=%8.1f ps)\n", name, dir, ba.Time*1e12)
						}
						continue
					}
					marker := ""
					if !bok || da != ba {
						marker = "  *"
					}
					fmt.Printf("%-12s %-8v t=%8.1f ps  tt=%7.1f ps%s\n",
						name, dir, da.Time*1e12, da.TT*1e12, marker)
				}
			}
			fmt.Printf("delta: re-evaluated %d gates, reused %d baseline arrivals\n",
				dres.Stats.GatesReevaluated, dres.Stats.GatesReused)
			printStats(os.Stdout, dres.Stats)
		}
	}
	return nil
}

// parseDelta parses the -delta / -delta-remove flag syntax against circuit
// nets. Set events use the -event syntax; removes are net:dir pairs.
func parseDelta(c *sta.Circuit, setSpec, removeSpec string) (sta.Delta, error) {
	var delta sta.Delta
	if setSpec != "" {
		evs, err := sta.ParseEvents(c, setSpec)
		if err != nil {
			return sta.Delta{}, fmt.Errorf("-delta: %w", err)
		}
		delta.Set = evs
	}
	for _, part := range strings.Split(removeSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 2 {
			return sta.Delta{}, fmt.Errorf("-delta-remove: %q: want net:dir", part)
		}
		n := c.Net(fields[0])
		if n == nil {
			return sta.Delta{}, fmt.Errorf("-delta-remove: unknown net %q", fields[0])
		}
		var dir waveform.Direction
		switch fields[1] {
		case "rise", "r":
			dir = waveform.Rising
		case "fall", "f":
			dir = waveform.Falling
		default:
			return sta.Delta{}, fmt.Errorf("-delta-remove: %q: bad direction %q", part, fields[1])
		}
		delta.Remove = append(delta.Remove, sta.DeltaRemove{Net: n, Dir: dir})
	}
	return delta, nil
}

// validateTraceFile checks that a -trace output decodes as the Chrome JSON
// Object Format with well-formed, properly nested events — the structural
// contract chrome://tracing and Perfetto rely on.
func validateTraceFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: trace has no events", path)
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", path, len(events))
	return nil
}

// writeTraceFile dumps the recorded spans as a Chrome trace_event document.
func writeTraceFile(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sta: wrote %d trace events to %s\n", tr.Len(), path)
	return nil
}

// parseBatch splits a ';'-separated batch-vector spec into independent
// stimulus vectors. Blank segments (a trailing ';', doubled separators) are
// skipped; each non-blank segment must parse as a full event list, with
// errors reporting the vector's position. Vectors are independent, so the
// same primary-input event may appear in any number of segments — only
// duplicates within one segment are rejected (by Analyze).
func parseBatch(c *sta.Circuit, eventSpec string) ([][]sta.PIEvent, error) {
	var batch [][]sta.PIEvent
	for i, vec := range strings.Split(eventSpec, ";") {
		if strings.TrimSpace(vec) == "" {
			continue
		}
		evs, err := sta.ParseEvents(c, vec)
		if err != nil {
			return nil, fmt.Errorf("vector %d: %w", i, err)
		}
		batch = append(batch, evs)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("no stimulus vectors in %q", eventSpec)
	}
	return batch, nil
}

// printStats summarizes what the analysis did and where the time went.
func printStats(w io.Writer, s sta.Stats) {
	fmt.Fprintf(w, "evaluated %d of %d scheduled gates over %d levels (%d proximity, %d single-arc evals), %d workers\n",
		s.GatesEvaluated, s.GatesScheduled, s.Levels, s.ProximityEvals, s.SingleArcEvals, s.Workers)
	if s.PulsesFiltered > 0 || s.PulsesDegraded > 0 || s.PulsesUnjudged > 0 {
		fmt.Fprintf(w, "pulse filtering: absorbed %d runt pulses, degraded %d, unjudged %d (no glitch model)\n",
			s.PulsesFiltered, s.PulsesDegraded, s.PulsesUnjudged)
	}
	if s.Wall > 0 {
		fmt.Fprintf(w, "phases:")
		for _, p := range obs.Phases() {
			// Rounded before the filter, so a phase under half a
			// microsecond is left out rather than printed as 0s.
			if d := s.Phases[p].Round(time.Microsecond); d > 0 {
				fmt.Fprintf(w, " %s=%s", p, d)
			}
		}
		fmt.Fprintf(w, " wall=%s\n", s.Wall.Round(time.Microsecond))
	}
}

// runBatch analyzes several independent stimulus vectors against one shared
// levelization and prints a compact per-vector summary.
func runBatch(p *sta.Compiled, batch [][]sta.PIEvent, modes []sta.Mode, opt sta.Options, reqPS float64) error {
	c := p.Circuit()
	for _, m := range modes {
		results, err := p.AnalyzeBatch(context.Background(), batch, m, opt)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s analysis — %d vectors ==\n", m, len(batch))
		for i, res := range results {
			fmt.Printf("vector %d:", i)
			for _, po := range c.POs {
				if arr, ok := res.Latest(po); ok {
					fmt.Printf(" %s=%v@%.1fps", po.Name, arr.Dir, arr.Time*1e12)
				}
			}
			if reqPS > 0 {
				if slack, _, _, ok := res.WorstSlack(c.POs, reqPS*1e-12); ok {
					fmt.Printf(" slack=%.1fps", slack*1e12)
				}
			}
			fmt.Println()
		}
		if len(results) > 0 {
			printStats(os.Stdout, results[0].Stats)
		}
	}
	return nil
}

// characterize builds a calculator for a named gate type (inv, nandN, norN).
// With glitch set, multi-input gates also get Section-6 glitch tables (one
// ordered opposite-edge pair per reference pin) so -pulse-filter has
// inertial-delay data to judge runt pulses against.
func characterize(name string, full bool, loadFF float64, glitch bool) (*core.Calculator, error) {
	var kind cells.Kind
	var n int
	switch {
	case name == "inv":
		kind, n = cells.Inv, 1
	case strings.HasPrefix(name, "nand"):
		kind = cells.Nand
		fmt.Sscanf(strings.TrimPrefix(name, "nand"), "%d", &n)
	case strings.HasPrefix(name, "nor"):
		kind = cells.Nor
		fmt.Sscanf(strings.TrimPrefix(name, "nor"), "%d", &n)
	default:
		return nil, fmt.Errorf("unknown gate type (want inv, nandN, norN)")
	}
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("bad input count %d", n)
	}
	geom := cells.DefaultGeometry()
	geom.CLoad = loadFF * 1e-15
	cell, err := cells.New(kind, n, cells.DefaultProcess(), geom)
	if err != nil {
		return nil, err
	}
	fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
	if err != nil {
		return nil, err
	}
	sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
	spec := macromodel.CoarseCharSpec()
	if full {
		spec = macromodel.DefaultCharSpec()
	}
	model, err := macromodel.CharacterizeGate(sim, spec)
	if err != nil {
		return nil, err
	}
	if glitch && n >= 2 {
		gspec := macromodel.GlitchGridSpec{
			TausFall: table.LogSpace(50e-12, 2e-9, 2),
			TausRise: table.LogSpace(50e-12, 2e-9, 2),
			Seps:     table.LinSpace(-1e-9, 1.2e-9, 9),
		}
		if full {
			gspec = macromodel.DefaultGlitchGrid()
		}
		for ref := 0; ref < n; ref++ {
			gm, err := sim.CharacterizeGlitch(ref, (ref+1)%n, gspec)
			if err != nil {
				return nil, fmt.Errorf("glitch pair (fall %d, rise %d): %w", ref, (ref+1)%n, err)
			}
			model.Glitches = append(model.Glitches, gm)
		}
	}
	calc := core.NewCalculator(model)
	if n >= 2 {
		if err := core.CalibrateCorrection(calc, sim); err != nil {
			return nil, err
		}
	}
	return calc, nil
}
