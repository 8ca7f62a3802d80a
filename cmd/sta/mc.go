package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/sta"
)

// mcSpec carries the -mc-* flags once validated. samples > 0 switches the
// run into Monte-Carlo mode.
type mcSpec struct {
	samples int
	seed    uint64
	sigma   float64
	corners []string
}

// parseMCSpec validates the -mc-* flags, naming the offending flag in every
// error (the engine re-validates, but a CLI user should see the flag, not an
// internal field).
func parseMCSpec(samples int, seed uint64, sigma float64, cornerList string) (*mcSpec, error) {
	if samples == 0 {
		return nil, nil
	}
	if samples < 0 {
		return nil, fmt.Errorf("-mc-samples must be positive (got %d)", samples)
	}
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0 {
		return nil, fmt.Errorf("-mc-sigma must be finite and non-negative (got %v)", sigma)
	}
	spec := &mcSpec{samples: samples, seed: seed, sigma: sigma}
	for _, name := range strings.Split(cornerList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			spec.corners = append(spec.corners, name)
		}
	}
	return spec, nil
}

// runMC runs the Monte-Carlo analysis locally and prints per-output arrival
// distributions, the histogram of the worst output, gate criticality and any
// requested corners.
func runMC(p *sta.Compiled, evs []sta.PIEvent, modes []sta.Mode, opt sta.Options, spec *mcSpec) error {
	for _, m := range modes {
		mcOpt := sta.MCOptions{
			Samples: spec.samples, Seed: spec.seed, Sigma: spec.sigma, Corners: spec.corners,
		}
		mcOpt.Options = opt
		res, err := p.AnalyzeMC(context.Background(), evs, m, mcOpt)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s Monte-Carlo — %d samples, sigma %g, seed %d ==\n",
			m, res.Samples, res.Sigma, res.Seed)
		fmt.Printf("%-12s %-8s %5s %9s %8s %9s %9s %9s %9s\n",
			"output", "dir", "n", "mean/ps", "std/ps", "p50/ps", "p95/ps", "p99/ps", "max/ps")
		for _, od := range res.Outputs {
			d := od.Dist
			fmt.Printf("%-12s %-8v %5d %9.1f %8.2f %9.1f %9.1f %9.1f %9.1f\n",
				od.Net.Name, od.Dir, d.N, d.Mean*1e12, d.Std*1e12,
				d.P50*1e12, d.P95*1e12, d.P99*1e12, d.Max*1e12)
		}
		// Histogram of the latest-mean output — the distribution that decides
		// the yield question the run exists to answer.
		if len(res.Outputs) > 0 {
			worst := res.Outputs[0]
			for _, od := range res.Outputs[1:] {
				if od.Dist.Mean > worst.Dist.Mean {
					worst = od
				}
			}
			if h := worst.Dist.Hist; h != nil {
				ps := *h // shallow copy: rescale the axis to picoseconds for display
				ps.Lo *= 1e12
				ps.Hi *= 1e12
				fmt.Printf("\n%s", ps.Render(fmt.Sprintf("arrival distribution: %s %v (ps)", worst.Net.Name, worst.Dir)))
			}
		}
		if len(res.Criticality) > 0 {
			fmt.Printf("\ncriticality (P[gate on sample-critical path]):\n")
			for i, gc := range res.Criticality {
				if i >= 10 {
					fmt.Printf("  ... %d more gates\n", len(res.Criticality)-i)
					break
				}
				fmt.Printf("  %-12s %-8s -> %-12s %6.1f%%  (%d/%d)\n",
					gc.Gate.Name, gc.Gate.Type, gc.Gate.Out.Name, gc.Probability*100, gc.Count, res.Samples)
			}
		}
		if len(res.GlitchCriticality) > 0 {
			fmt.Printf("\nglitch criticality (P[pair absorbed] / P[pair degraded]):\n")
			for i, gc := range res.GlitchCriticality {
				if i >= 10 {
					fmt.Printf("  ... %d more gates\n", len(res.GlitchCriticality)-i)
					break
				}
				fmt.Printf("  %-12s %-8s -> %-12s %6.1f%% / %6.1f%%  (%d/%d abs, %d/%d deg)\n",
					gc.Gate.Name, gc.Gate.Type, gc.Gate.Out.Name,
					gc.PAbsorbed*100, gc.PDegraded*100,
					gc.Absorbed, res.Samples, gc.Degraded, res.Samples)
			}
		}
		if s := res.Stats; s.PulsesFiltered > 0 || s.PulsesDegraded > 0 || s.PulsesUnjudged > 0 {
			fmt.Printf("\npulse filtering: absorbed %d runt pulses, degraded %d, unjudged %d across samples\n",
				s.PulsesFiltered, s.PulsesDegraded, s.PulsesUnjudged)
		}
		for _, cr := range res.Corners {
			fmt.Printf("\ncorner %s (x%.2f):", cr.Name, cr.Multiplier)
			for _, po := range p.Circuit().POs {
				if arr, ok := cr.Result.Latest(po); ok {
					fmt.Printf(" %s=%v@%.1fps", po.Name, arr.Dir, arr.Time*1e12)
				}
			}
			fmt.Println()
		}
		fmt.Printf("\nevaluated %d gates across %d samples (%d workers), mc=%s wall=%s\n",
			res.Stats.GatesEvaluated, res.Samples, res.Stats.Workers,
			res.Stats.Phases.Sum().Round(time.Microsecond), res.Stats.Wall.Round(time.Microsecond))
	}
	return nil
}

// runRemoteMC ships the Monte-Carlo run to a stad daemon via /v1/analyze:mc
// and prints the wire distributions (already in picoseconds).
func runRemoteMC(base, netlistID string, vector []service.Event, modes []string, spec *mcSpec, pulseFilter bool) error {
	for _, m := range modes {
		req := service.MCRequest{
			Netlist: netlistID, Mode: m, Vector: vector,
			Samples: spec.samples, Seed: spec.seed, Sigma: spec.sigma, Corners: spec.corners,
			PulseFilter: pulseFilter,
		}
		var resp service.MCResponse
		if err := postJSON(base+"/v1/analyze:mc", req, &resp); err != nil {
			return fmt.Errorf("mc (%s): %w", m, err)
		}
		fmt.Printf("\n== %s Monte-Carlo @ %s — %d samples, sigma %g, seed %d ==\n",
			resp.Mode, base, resp.Samples, resp.Sigma, resp.Seed)
		fmt.Printf("%-12s %-8s %5s %9s %8s %9s %9s %9s %9s\n",
			"output", "dir", "n", "mean/ps", "std/ps", "p50/ps", "p95/ps", "p99/ps", "max/ps")
		for _, od := range resp.Outputs {
			fmt.Printf("%-12s %-8s %5d %9.1f %8.2f %9.1f %9.1f %9.1f %9.1f\n",
				od.Net, od.Dir, od.N, od.MeanPs, od.StdPs, od.P50Ps, od.P95Ps, od.P99Ps, od.MaxPs)
		}
		if len(resp.Criticality) > 0 {
			fmt.Printf("criticality:")
			for i, gc := range resp.Criticality {
				if i >= 10 {
					fmt.Printf(" ...")
					break
				}
				fmt.Printf(" %s=%.0f%%", gc.Gate, gc.Probability*100)
			}
			fmt.Println()
		}
		if len(resp.GlitchCriticality) > 0 {
			fmt.Printf("glitch criticality (P[absorbed]/P[degraded]):")
			for i, gc := range resp.GlitchCriticality {
				if i >= 10 {
					fmt.Printf(" ...")
					break
				}
				fmt.Printf(" %s=%.0f%%/%.0f%%", gc.Gate, gc.PAbsorbed*100, gc.PDegraded*100)
			}
			fmt.Println()
		}
		if resp.PulsesFiltered > 0 || resp.PulsesDegraded > 0 || resp.PulsesUnjudged > 0 {
			fmt.Printf("pulse filtering: absorbed %d runt pulses, degraded %d, unjudged %d across samples\n",
				resp.PulsesFiltered, resp.PulsesDegraded, resp.PulsesUnjudged)
		}
		for _, cr := range resp.Corners {
			fmt.Printf("corner %s (x%.2f):", cr.Name, cr.Multiplier)
			for _, a := range cr.Arrivals {
				fmt.Printf(" %s=%s@%.1fps", a.Net, a.Dir, a.TimePs)
			}
			fmt.Println()
		}
		fmt.Printf("evaluated %d gates server-side\n", resp.GatesEvaluated)
	}
	return nil
}
