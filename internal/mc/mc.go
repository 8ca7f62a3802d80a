// Package mc is the process-variation model behind Monte-Carlo statistical
// timing analysis: deterministic per-(sample, gate) Gaussian delay
// multipliers, named process-corner presets, and arrival-time distribution
// aggregation.
//
// The paper's proximity model makes gate delay a function of *which* inputs
// switch together; under process variation the per-gate delay scale itself
// becomes a random variable, which can reorder input dominance — the effect
// the probabilistic-collocation statistical gate-delay literature targets.
// This package supplies the randomness in a shape the engine can replay:
// every deviate is a pure function of (seed, sample, gate), so any single
// sample of a million-sample run is independently reproducible without
// storing per-sample state, and the sample loop can run its samples in any
// order, across any number of workers, and still draw the same numbers.
package mc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// MinMultiplier floors the sigma-scaled delay multiplier. A Gaussian tail
// can produce arbitrarily negative deviates; a non-positive delay multiplier
// would run time backwards through the netlist, so draws below the floor
// clamp. At practically useful sigmas (a few percent) the clamp never fires.
const MinMultiplier = 0.05

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche over uint64.
// Fed with a counter-style combination of (seed, sample, gate) it acts as a
// counter-based PRNG — no sequential state, perfect for parallel replay.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Normal returns the standard-normal deviate for (seed, sample, gate) — a
// pure function, identical on every call and on every platform that rounds
// IEEE float64 the same way (all of them). The uniform is taken from the top
// 53 bits of the mixed counter, centered so it lies strictly inside (0, 1),
// then mapped through the Gaussian quantile function via math.Erfinv.
func Normal(seed uint64, sample int, gate int32) float64 {
	x := splitmix64(seed)
	x = splitmix64(x ^ (uint64(sample) * 0xA24BAED4963EE407))
	x = splitmix64(x ^ (uint64(uint32(gate)) * 0x9FB21C651E98DF25))
	u := (float64(x>>11) + 0.5) / (1 << 53) // strictly inside (0,1)
	return math.Sqrt2 * math.Erfinv(2*u-1)
}

// Multiplier returns the delay/transition multiplier for one gate in one
// sample: 1 + sigma*N(seed, sample, gate), floored at MinMultiplier. At
// sigma == 0 it returns exactly 1.0 — no Gaussian arithmetic touches the
// value, so a zero-sigma Monte-Carlo sample performs bit-identical
// arithmetic to a deterministic analysis.
func Multiplier(seed uint64, sample int, sigma float64, gate int32) float64 {
	if sigma == 0 {
		return 1
	}
	m := 1 + sigma*Normal(seed, sample, gate)
	if m < MinMultiplier {
		return MinMultiplier
	}
	return m
}

// ValidateSpec checks a Monte-Carlo run specification, naming the offending
// field in the error (the boundary-contract convention: callers surface the
// message verbatim and the user knows what to fix).
func ValidateSpec(samples int, sigma float64) error {
	if samples <= 0 {
		return fmt.Errorf("mc: samples must be positive (got %d)", samples)
	}
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0 {
		return fmt.Errorf("mc: sigma must be finite and non-negative (got %v)", sigma)
	}
	return nil
}

// Corner is a named global process corner: every gate's delay and output
// transition time scale by the same multiplier. A corner run is a degenerate
// one-sample Monte-Carlo analysis with a constant perturbation.
type Corner struct {
	Name       string
	Multiplier float64
}

// corners are the built-in presets. The spread (±3σ at a ~5% per-gate sigma)
// matches the conventional slow/fast derating practice: slow derates every
// delay up 15%, fast speeds everything up 13%, typ is the unperturbed model.
var corners = map[string]float64{
	"slow": 1.15,
	"typ":  1.0,
	"fast": 0.87,
}

// CornerMultiplier resolves a preset name. Unknown names error, naming both
// the offending value and the valid set.
func CornerMultiplier(name string) (float64, error) {
	if m, ok := corners[name]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("mc: unknown corner %q (valid: %v)", name, CornerNames())
}

// CornerNames lists the preset names in sorted order.
func CornerNames() []string {
	names := make([]string, 0, len(corners))
	for n := range corners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Dist summarizes one output's arrival-time sample distribution:
// mean/std/min/max (population std, matching stats.Summarize), the
// p50/p95/p99 percentiles via the shared stats.Quantile interpolator, and a
// fixed-bucket histogram over [Min, Max]. The zero Dist (N == 0) is what an
// empty sample set aggregates to.
type Dist struct {
	N                   int
	Mean, Std, Min, Max float64
	P50, P95, P99       float64
	Hist                *stats.Histogram
}

// NewDist aggregates a sample slice (NaN entries — samples in which the
// output never transitioned — are dropped first). values is not modified;
// bins <= 0 picks a 16-bin default. Aggregation order is fixed (ascending
// sort), so the result is bit-identical regardless of how the samples were
// produced or ordered.
func NewDist(values []float64, bins int) Dist {
	xs := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return SortedDist(xs, bins)
}

// SortedDist is NewDist for a sample slice without NaNs that it may
// reorder: it sorts xs in place instead of copying it first, and returns
// what NewDist returns for the same values.
func SortedDist(xs []float64, bins int) Dist {
	if bins <= 0 {
		bins = 16
	}
	if len(xs) == 0 {
		return Dist{}
	}
	sort.Float64s(xs)
	s := stats.Summarize(xs)
	d := Dist{
		N: s.N, Mean: s.Mean, Std: s.StdDev, Min: s.Min, Max: s.Max,
		P50: stats.Quantile(xs, 0.50),
		P95: stats.Quantile(xs, 0.95),
		P99: stats.Quantile(xs, 0.99),
	}
	// A degenerate (constant) sample set still gets a histogram: widen the
	// zero-width range so the single bin holds everything.
	lo, hi := s.Min, s.Max
	if hi <= lo {
		pad := math.Abs(lo) * 1e-9
		if pad == 0 {
			pad = 1e-15
		}
		hi = lo + pad
	}
	// NewHistogram bins over [lo, hi); nudge hi so the maximum sample lands
	// in the last bin instead of the Over counter.
	hi = math.Nextafter(hi, math.Inf(1))
	if h, err := stats.NewHistogram(xs, lo, hi, bins); err == nil {
		d.Hist = h
	}
	return d
}
