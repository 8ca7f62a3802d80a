package macromodel

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/table"
	"repro/internal/waveform"
)

// Clone builds an independent GateSim over a fresh copy of the cell, for
// concurrent characterization workers.
func (g *GateSim) Clone() *GateSim {
	cell := g.Cell
	fresh, err := cellsNew(cell)
	if err != nil {
		panic(fmt.Sprintf("macromodel: clone: %v", err))
	}
	return &GateSim{Cell: fresh, Opt: g.Opt, Th: g.Th, Settle: g.Settle}
}

// SingleInputModel is the characterized D(1)/T(1) macromodel of one
// (pin, input-direction) arc: delay and output transition time versus input
// transition time, stored on a log-spaced τ axis and interpolated in ln(τ).
type SingleInputModel struct {
	Pin int                `json:"pin"`
	Dir waveform.Direction `json:"dir"`

	// TauAxis is the characterized input-transition-time grid (seconds).
	TauAxis []float64 `json:"tauAxis"`
	// Delay[i] and OutTT[i] are the measured delay and output transition
	// time at TauAxis[i].
	Delay []float64 `json:"delay"`
	OutTT []float64 `json:"outTT"`

	// NormLoad[i] is the paper's dimensionless load CL/(Kn·Vdd·τ) at each
	// grid point — exposed so the normalized forms (3.7)/(3.8) can be
	// plotted and reused across loads.
	NormLoad []float64 `json:"normLoad"`

	// ln caches ln(TauAxis[i]), built on first use; see lnBracket.
	ln atomic.Pointer[lnNodes]
}

// lnNodes is ln of every τ-axis node, with the node values the logs were
// taken of.
type lnNodes struct {
	tau, ln []float64
}

// CharacterizeSingle sweeps the τ grid for one pin/direction.
func (g *GateSim) CharacterizeSingle(pin int, dir waveform.Direction, taus []float64) (*SingleInputModel, error) {
	if len(taus) < 2 {
		return nil, fmt.Errorf("macromodel: need at least two τ points")
	}
	if !sort.Float64sAreSorted(taus) {
		return nil, fmt.Errorf("macromodel: τ grid must be sorted")
	}
	m := &SingleInputModel{Pin: pin, Dir: dir, TauAxis: append([]float64(nil), taus...)}
	// K of the driving device stack per the paper's normalization: the
	// strength of one transistor on the switching pin's opposing network
	// (n-strength for rising inputs discharging the output, p for falling).
	k := g.pinStrength(pin, dir)
	vdd := g.Th.Vdd
	cl := g.Cell.Load()
	for _, tau := range taus {
		d, tt, err := g.RunSingle(pin, dir, tau)
		if err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("macromodel: negative single-input delay %.3g at τ=%.3g (threshold policy violated?)", d, tau)
		}
		m.Delay = append(m.Delay, d)
		m.OutTT = append(m.OutTT, tt)
		m.NormLoad = append(m.NormLoad, cl/(k*vdd*tau))
	}
	return m, nil
}

// pinStrength returns the strength K = µCox/2·W/L of the transistor that the
// pin's transition turns on (the device charging or discharging the output).
func (g *GateSim) pinStrength(pin int, dir waveform.Direction) float64 {
	// For NAND/INV: rising input turns on the NMOS pull-down; falling
	// turns on the PMOS pull-up. NOR is the same pairing.
	geom := g.Cell.Geom
	if dir == waveform.Rising {
		return 0.5 * g.Cell.Proc.NMOS.KP * geom.WN / geom.L
	}
	return 0.5 * g.Cell.Proc.PMOS.KP * geom.WP / geom.L
}

// lnBracket returns ln(TauAxis[i-1]) and ln(TauAxis[i]) from the cached
// nodes. The cache never goes stale: it keeps a copy of the node values it
// took the logs of and is rebuilt when either bracketing node (or the axis
// length) differs from the live axis, so a model edited after its first
// lookup reads the logs of its current nodes.
func (m *SingleInputModel) lnBracket(i int) (llo, lhi float64) {
	ax := m.TauAxis
	c := m.ln.Load()
	if c == nil || len(c.tau) != len(ax) || c.tau[i-1] != ax[i-1] || c.tau[i] != ax[i] {
		c = &lnNodes{tau: append([]float64(nil), ax...), ln: make([]float64, len(ax))}
		for k, t := range c.tau {
			c.ln[k] = math.Log(t)
		}
		m.ln.Store(c)
	}
	return c.ln[i-1], c.ln[i]
}

// locate brackets τ on the axis for interpolation linear in ln(τ), clamped
// at the ends: f < 0 means "exactly node i" (no interpolation); otherwise
// the value is ys[i-1] + f·(ys[i] − ys[i-1]). The fraction is
// (ln τ − ln lo)/(ln hi − ln lo), with ln τ taken once and the node logs
// read from the cache.
func (m *SingleInputModel) locate(tau float64) (i int, f float64) {
	ax := m.TauAxis
	n := len(ax)
	if tau <= ax[0] {
		return 0, -1
	}
	if tau >= ax[n-1] {
		return n - 1, -1
	}
	i = sort.SearchFloat64s(ax, tau)
	if ax[i] == tau {
		return i, -1
	}
	llo, lhi := m.lnBracket(i)
	return i, (math.Log(tau) - llo) / (lhi - llo)
}

func lerp(ys []float64, i int, f float64) float64 {
	if f < 0 {
		return ys[i]
	}
	return ys[i-1] + f*(ys[i]-ys[i-1])
}

// At returns Δ(1) and τ(1)_out for an input transition time τ with one
// bracket search and one logarithm: bit-identical to DelayAt and OutTTAt.
func (m *SingleInputModel) At(tau float64) (delay, outTT float64) {
	i, f := m.locate(tau)
	return lerp(m.Delay, i, f), lerp(m.OutTT, i, f)
}

// DelayAt returns Δ(1) for an input transition time τ.
func (m *SingleInputModel) DelayAt(tau float64) float64 {
	i, f := m.locate(tau)
	return lerp(m.Delay, i, f)
}

// OutTTAt returns τ(1)_out for an input transition time τ.
func (m *SingleInputModel) OutTTAt(tau float64) float64 {
	i, f := m.locate(tau)
	return lerp(m.OutTT, i, f)
}

// NormalizedDelay returns the paper's equation-(3.7) view of the model:
// pairs (u, Δ/τ) with u = CL/(K·Vdd·τ).
func (m *SingleInputModel) NormalizedDelay() (u, dOverTau []float64) {
	u = append([]float64(nil), m.NormLoad...)
	dOverTau = make([]float64, len(m.Delay))
	for i := range m.Delay {
		dOverTau[i] = m.Delay[i] / m.TauAxis[i]
	}
	return u, dOverTau
}

// DefaultTauGrid returns the characterization grid used throughout the repo:
// log-spaced input transition times covering the paper's 50 ps – 2000 ps
// experimental range with margin.
func DefaultTauGrid() []float64 { return table.LogSpace(30e-12, 3e-9, 10) }
