// Package sta is a small gate-level static timing analyzer built on the
// proximity delay model — the downstream application that motivates the
// paper (proximity-aware delay calculation is absent from conventional
// single-switching-input timing analysis).
//
// Two analysis modes are provided:
//
//   - Conventional: each gate-output transition is timed from the causing
//     input with the latest (input arrival + single-input pin delay), the
//     classic one-input-switching assumption the paper criticizes.
//   - Proximity: all causing inputs arriving within the proximity window
//     are evaluated together with Algorithm ProximityDelay, capturing the
//     speedups (parallel conduction) and slowdowns (series stacks still in
//     transit) that the conventional mode misses.
package sta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// ErrPanic marks an analysis error recovered from a panic inside the engine:
// a defect in a model, a dual backend or the engine itself, not a bad
// request. The walk, batch and Monte-Carlo workers recover it where it
// happens and return an error wrapping a *PanicError that names the gate,
// vector or sample, so one defective request fails instead of killing the
// process that runs it (a panic on a worker goroutine is fatal otherwise).
var ErrPanic = errors.New("panic")

// PanicError is a panic the engine recovered. It unwraps to ErrPanic and
// reads "panic: <value>"; Stack is the panicking goroutine's stack, taken
// where the panic was recovered (deferred calls run on top of the frames
// that panicked, so the trace reaches the faulting line).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("%v: %v", ErrPanic, e.Value) }

func (e *PanicError) Unwrap() error { return ErrPanic }

// recovered converts a recovered panic value into a *PanicError carrying
// the current goroutine's stack. It must be called from the deferred
// function that recovered the value.
func recovered(v any) error { return &PanicError{Value: v, Stack: debug.Stack()} }

// Library maps gate type names (e.g. "nand2") to characterized calculators.
type Library struct {
	calcs map[string]*core.Calculator
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{calcs: map[string]*core.Calculator{}} }

// Add registers a calculator under a type name.
func (l *Library) Add(name string, calc *core.Calculator) { l.calcs[name] = calc }

// Get returns the calculator for a type name (nil if absent).
func (l *Library) Get(name string) *core.Calculator { return l.calcs[name] }

// Net is a wire in the gate-level circuit.
type Net struct {
	Name   string
	Driver *Gate // nil for primary inputs
	// id is the net's dense integer identity within its circuit, assigned
	// at creation in declaration order. It indexes the Result arrival store
	// and the compiled consumer table, so arrival lookup is a slice index,
	// not a map probe.
	id int32
}

// Gate is one logic-cell instance.
type Gate struct {
	Name string
	Type string
	Calc *core.Calculator
	In   []*Net
	Out  *Net
	// idx is the gate's dense position in Circuit.Gates, assigned at AddGate.
	// Levelization and the compiled tables index by it instead of carrying a
	// map[*Gate]int per build.
	idx int32
}

// Circuit is a combinational gate-level netlist.
type Circuit struct {
	lib   *Library
	nets  map[string]*Net
	Gates []*Gate
	PIs   []*Net
	POs   []*Net
	// piSet mirrors PIs for O(1) membership tests; without it, declaring n
	// inputs is O(n²) and every Analyze revalidation rescans the slice.
	piSet map[*Net]bool
	// poSet mirrors POs so repeated output declarations collapse to one —
	// a duplicated `output` line must not duplicate arrivals in reports.
	poSet map[*Net]bool
}

// NewCircuit returns an empty circuit over a library.
func NewCircuit(lib *Library) *Circuit {
	return &Circuit{lib: lib, nets: map[string]*Net{}, piSet: map[*Net]bool{}, poSet: map[*Net]bool{}}
}

// Input declares (or returns) a primary-input net.
func (c *Circuit) Input(name string) *Net {
	n := c.net(name)
	if !c.piSet[n] {
		c.piSet[n] = true
		c.PIs = append(c.PIs, n)
	}
	return n
}

// IsPI reports whether n is a declared primary input.
func (c *Circuit) IsPI(n *Net) bool { return c.piSet[n] }

// net returns the named net, creating it if needed.
func (c *Circuit) net(name string) *Net {
	if n, ok := c.nets[name]; ok {
		return n
	}
	n := &Net{Name: name, id: int32(len(c.nets))}
	c.nets[name] = n
	return n
}

// Net returns an existing net by name (nil if undeclared).
func (c *Circuit) Net(name string) *Net { return c.nets[name] }

// ForwardNet returns the named net, creating it (undriven) if needed — for
// forward references while wiring feedback or not-yet-driven nets.
func (c *Circuit) ForwardNet(name string) *Net { return c.net(name) }

// AddGate instantiates a library gate driving a fresh net named outName.
func (c *Circuit) AddGate(instName, typeName, outName string, inputs ...*Net) (*Net, error) {
	calc := c.lib.Get(typeName)
	if calc == nil {
		return nil, fmt.Errorf("sta: unknown gate type %q", typeName)
	}
	if calc.Model.NumInputs != len(inputs) {
		return nil, fmt.Errorf("sta: gate %s (%s) takes %d inputs, got %d",
			instName, typeName, calc.Model.NumInputs, len(inputs))
	}
	out := c.net(outName)
	if out.Driver != nil {
		return nil, fmt.Errorf("sta: net %s already driven by %s", outName, out.Driver.Name)
	}
	g := &Gate{Name: instName, Type: typeName, Calc: calc, In: inputs, Out: out, idx: int32(len(c.Gates))}
	out.Driver = g
	c.Gates = append(c.Gates, g)
	return out, nil
}

// MarkOutput declares a primary output. Re-declaring the same net is a
// no-op, so a duplicated `output` line cannot double its arrivals in
// responses and reports.
func (c *Circuit) MarkOutput(n *Net) {
	if c.poSet[n] {
		return
	}
	c.poSet[n] = true
	c.POs = append(c.POs, n)
}

// levelize groups the gates into topological levels with Kahn's algorithm:
// level 0 holds the gates fed only by primary inputs, and every other gate
// sits one level past the deepest gate driving any of its inputs. All gates
// within one level are therefore mutually independent — the unit of
// parallelism Analyze exploits. The traversal is iterative, so arbitrarily
// deep gate chains cannot overflow the stack (the previous recursive DFS
// died on netlists ~100k gates deep), and deterministic: levels list gates
// in netlist order.
func (c *Circuit) levelize() ([][]*Gate, error) {
	// Fanout edges in CSR form: counting pass, prefix sums, fill pass — two
	// flat arrays instead of one growing slice per gate. Gates carry their
	// dense index (Gate.idx), so no identity map is needed.
	indeg := make([]int, len(c.Gates))
	offs := make([]int32, len(c.Gates)+1)
	for _, g := range c.Gates {
		for _, in := range g.In {
			if in.Driver != nil {
				offs[in.Driver.idx+1]++
			}
		}
	}
	for i := 0; i < len(c.Gates); i++ {
		offs[i+1] += offs[i]
	}
	edges := make([]int32, offs[len(c.Gates)])
	pos := make([]int32, len(c.Gates))
	copy(pos, offs[:len(c.Gates)])
	for i, g := range c.Gates {
		for _, in := range g.In {
			if in.Driver == nil {
				continue
			}
			d := in.Driver.idx
			edges[pos[d]] = int32(i)
			pos[d]++
			indeg[i]++
		}
	}
	frontier := make([]int, 0, len(c.Gates))
	for i := range c.Gates {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	var levels [][]*Gate
	next := make([]int, 0, len(c.Gates))
	placed := 0
	for len(frontier) > 0 {
		level := make([]*Gate, len(frontier))
		for k, i := range frontier {
			level[k] = c.Gates[i]
		}
		levels = append(levels, level)
		placed += len(frontier)
		next = next[:0]
		for _, i := range frontier {
			for _, j := range edges[offs[i]:offs[i+1]] {
				indeg[j]--
				if indeg[j] == 0 {
					next = append(next, int(j))
				}
			}
		}
		sort.Ints(next)
		frontier, next = next, frontier
	}
	if placed != len(c.Gates) {
		for i, g := range c.Gates {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("sta: combinational loop through gate %s", g.Name)
			}
		}
		return nil, fmt.Errorf("sta: combinational loop detected")
	}
	return levels, nil
}

// Levels exposes the levelized schedule (for reporting and tests).
func (c *Circuit) Levels() ([][]*Gate, error) { return c.levelize() }

// Mode selects the delay-calculation policy.
type Mode int

const (
	Proximity Mode = iota
	Conventional
)

func (m Mode) String() string {
	if m == Conventional {
		return "conventional"
	}
	return "proximity"
}

// Arrival is one transition event on a net.
type Arrival struct {
	Dir  waveform.Direction
	Time float64 // measurement-level crossing time
	TT   float64 // transition time
	// FromGate and FromPin record the causing gate and its dominant input
	// pin for path tracing (FromGate nil at primary inputs).
	FromGate *Gate
	FromPin  int
	// UsedInputs counts how many switching inputs the delay calculation
	// combined (1 = single-arc; >1 = genuine proximity evaluation).
	UsedInputs int
}

// PIEvent is a primary-input stimulus.
type PIEvent struct {
	Net  *Net
	Dir  waveform.Direction
	Time float64
	TT   float64
}

// Options tunes how Analyze executes. The zero value picks defaults.
type Options struct {
	// Workers bounds evaluation concurrency within a topological level:
	// 0 derives a default from the CPU count, 1 forces the serial
	// reference path. Results are bit-identical at every setting — the
	// schedule changes, the arithmetic does not.
	Workers int
	// Trace, when non-nil, records Chrome trace_event spans for the
	// analysis: schedule construction, each evaluation level, and the
	// per-worker shares within a level. nil (the default) records nothing
	// and costs nothing beyond dead nil-checks — the hot path stays hot.
	Trace *obs.Trace
	// Perturb, when non-nil, supplies a per-gate multiplier applied to the
	// table-backed delay and output transition time of every evaluation of
	// that gate — the process-variation hook Monte-Carlo analysis injects
	// (see AnalyzeMC). The multiplier must be positive and finite; a
	// returned 1.0 performs bit-identical arithmetic to the unperturbed
	// path (the perturbation terms are guarded, not multiplied through).
	// nil means no perturbation and costs one nil-check per gate.
	Perturb func(gate int32) float64
	// PulseFiltering enables the Section-6 inertial-delay post-pass: when a
	// gate's output carries BOTH directions in one analysis (an
	// opposite-edge pair — a runt pulse), the pair's glitch macromodel is
	// consulted at commit time. Below the pair's minimum separation the
	// pulse is absorbed (neither output arrival commits,
	// Stats.PulsesFiltered counts it); above it the surviving pulse's
	// leading edge propagates with a transition time degraded by the swing
	// deficit (Stats.PulsesDegraded). Pairs without a characterized glitch
	// model, or whose leading-edge polarity does not match the
	// characterized glitch, propagate untouched. Off (the default) performs
	// bit-identical arithmetic to an engine without the feature.
	PulseFiltering bool
}

// defaultWorkers mirrors the characterization pools' policy (see
// macromodel.parallelFill3): one worker per CPU, capped.
func defaultWorkers() int {
	n := runtime.NumCPU()
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Stats counts what an analysis actually did, so benchmarks and reports
// have something to read beyond arrival times.
type Stats struct {
	Workers int
	Levels  int
	// GatesEvaluated counts gates whose evaluation produced at least one
	// output arrival — including gates whose opposite-edge pair pulse
	// filtering later absorbed (the evaluation work happened either way).
	GatesEvaluated int
	Evaluations    int // per-direction delay calculations
	ProximityEvals int // evaluations combining >1 switching input
	SingleArcEvals int // evaluations timed from a single arc
	// GatesScheduled counts the gates the walk ran: the gates with at
	// least one changed input. Every such gate of a full analysis has an
	// input arrival and so evaluates, making it equal to GatesEvaluated
	// there; for a delta it equals GatesReevaluated. The difference against
	// the gate count is what the walk skipped.
	GatesScheduled int
	// GatesReevaluated and GatesReused are delta-analysis accounting
	// (AnalyzeDelta): how many gates the dirty-propagation walk actually
	// re-ran evalGate on, and how many baseline-evaluated gates it carried
	// over untouched. Full analyses leave both zero.
	GatesReevaluated int
	GatesReused      int
	// PulsesFiltered and PulsesDegraded are Section-6 pulse-filtering
	// accounting (Options.PulseFiltering): how many opposite-edge output
	// pairs the inertial-delay model absorbed outright, and how many
	// survived with a degraded transition time. Zero when filtering is off.
	PulsesFiltered int
	PulsesDegraded int
	// PulsesUnjudged counts opposite-edge output pairs the filter saw but
	// could not judge because the library carries no glitch model for the
	// causing pin pair — notably both edges caused by the SAME input pin,
	// the shape a surviving degraded pulse takes one level downstream
	// (Glitch(p, p) is never characterized). The pair propagates untouched;
	// the counter makes the multi-level chaining blind spot observable.
	PulsesUnjudged int
	// Phases breaks the analysis wall time into the engine's accounting
	// buckets (consumer-table build, schedule, seed, eval, commit). The
	// buckets are disjoint intervals, so Phases.Sum() <= Wall. Always on:
	// the cost is a handful of clock reads per analysis.
	Phases obs.PhaseTimes
	// Wall is the total wall time of this analysis.
	Wall time.Duration
}

// dirArrivals stores a net's arrivals indexed by direction (Rising=0,
// Falling=1) — a flat struct instead of a per-net map, so large analyses
// allocate one small object per net rather than a hash table each.
type dirArrivals struct {
	a   [2]Arrival
	has [2]bool
}

// Result holds per-net arrivals after analysis. The store is indexed by net
// ID through a flat int32 table into a compact arrival slab, so Arrival is
// two bounds checks and two array reads, and an analysis that reaches 50
// of 14000 nets allocates (and the GC later scans) 50 arrival slots, not
// 14000 — only the pointer-free index scales with the netlist. A Result is
// only meaningful for nets of the circuit that produced it.
type Result struct {
	Mode  Mode
	Stats Stats
	idx   []int32       // net ID -> 1-based slot in arr (0 = no arrivals)
	arr   []dirArrivals // compact: one entry per net that carries an arrival

	// handle is the id of the compiled handle that produced this result.
	// AnalyzeDelta accepts a baseline only from the same handle: a
	// structural edit can keep the net count (AddGate driving an existing
	// forward net), so the index size alone cannot tell compiles apart.
	handle uint64

	// pulseFiltering records whether this result was produced with
	// Options.PulseFiltering on, so post-passes that re-run gate
	// evaluations (Explain) apply the same filter the commit did.
	pulseFiltering bool
	// pulses maps output net ID -> the Section-6 verdict applied there
	// (filtered, degraded or unjudged pairs; pairs the characterized model
	// passes through untouched leave no record). nil unless filtering ran
	// and recorded at least one pair.
	pulses map[int32]PulseInfo
	// pulseRaw maps output net ID -> the pre-filter arrival pair of an
	// ABSORBED opposite-edge pair: the evaluation's output before the
	// verdict cleared it. The committed store can no longer say how much
	// evaluation work the absorbed gate did (UsedInputs per direction), and
	// delta re-analysis must adjust those counters exactly when an edit
	// resurrects or re-absorbs the pair — so the raw shape is kept here.
	// nil unless filtering absorbed at least one pair.
	pulseRaw map[int32]dirArrivals
}

// slot returns (creating if needed) the net's arrival store. A full slab
// doubles, but never past one entry per net: append's 1.25x growth for
// large slices copied a full-activity slab about six times on its way to
// the net count, and those short-lived megabytes set the peak heap.
func (r *Result) slot(n *Net) *dirArrivals {
	if r.idx[n.id] == 0 {
		if len(r.arr) == cap(r.arr) {
			grown := make([]dirArrivals, len(r.arr), min(2*cap(r.arr)+1, len(r.idx)))
			copy(grown, r.arr)
			r.arr = grown
		}
		r.arr = append(r.arr, dirArrivals{})
		r.idx[n.id] = int32(len(r.arr))
	}
	return &r.arr[r.idx[n.id]-1]
}

// Arrival returns the arrival of a net in the given direction; ok=false if
// the net never transitions that way (or was created after the analysis
// compiled, and therefore cannot carry one).
func (r *Result) Arrival(n *Net, dir waveform.Direction) (Arrival, bool) {
	if n == nil || int(n.id) >= len(r.idx) || r.idx[n.id] == 0 {
		return Arrival{}, false
	}
	da := &r.arr[r.idx[n.id]-1]
	if !da.has[dir] {
		return Arrival{}, false
	}
	return da.a[dir], true
}

// bothDirs enumerates the two transition directions as an array, so hot
// per-output loops (Latest, WorstSlack — per PO per request in the service's
// response builder) range over it without allocating a slice each call.
var bothDirs = [2]waveform.Direction{waveform.Rising, waveform.Falling}

// Latest returns the latest arrival across both directions of a net.
func (r *Result) Latest(n *Net) (Arrival, bool) {
	var best Arrival
	found := false
	for _, dir := range bothDirs {
		if a, ok := r.Arrival(n, dir); ok && (!found || a.Time > best.Time) {
			best = a
			found = true
		}
	}
	return best, found
}

// Compiled is a reusable analysis handle: a circuit bound to its levelized
// schedule, and the engine's only way to analyze one. Compiling once and
// analyzing many times is the long-lived service shape — the topological
// sort is paid per netlist upload, not per stimulus vector. The handle
// snapshots the schedule: structural edits to the circuit (AddGate, Input)
// after Compile are not reflected until the circuit is compiled again.
//
// A Compiled handle is safe for concurrent use: Analyze and AnalyzeBatch
// only read the circuit and schedule (the lazily built consumer table is
// guarded by a sync.Once, the per-walk scratch by a sync.Pool).
type Compiled struct {
	c      *Circuit
	levels [][]*Gate
	gates  int
	// id identifies this handle among all handles of the process; results
	// carry it so AnalyzeDelta can reject another handle's baseline.
	id uint64

	// Snapshots taken at compile time; structural edits to the circuit
	// afterwards are not reflected (and events on nets created after the
	// compile are rejected rather than silently mis-indexed).
	numNets  int
	gateList []*Gate // gate index -> *Gate, netlist order

	maxWidth int // widest level, sizes the per-level eval buffer

	// gateLevel maps gate index -> topological level, built at compile time
	// (it is the levelized schedule in a second shape, O(gates) to fill).
	gateLevel []int32

	// Net -> consuming-gate edges in CSR form over net IDs (the "consumer
	// CSR"), built lazily by the first walk: consumers of net id n are
	// cons[consOff[n]:consOff[n+1]], gate indices ascending.
	consOnce sync.Once
	consOff  []int32
	cons     []int32

	scratch sync.Pool // *evalScratch
}

// handleSeq numbers compiled handles process-wide (see Compiled.id).
var handleSeq atomic.Uint64

// Compile levelizes the circuit into a new analysis handle, snapshotting
// the circuit and deriving the per-gate level table. It fails on a
// combinational loop. Every call builds a new handle; analyses that share
// one share its levelization, consumer table and scratch pool.
func (c *Circuit) Compile() (*Compiled, error) {
	levels, err := c.levelize()
	if err != nil {
		return nil, err
	}
	p := &Compiled{
		c:         c,
		levels:    levels,
		gates:     len(c.Gates),
		id:        handleSeq.Add(1),
		numNets:   len(c.nets),
		gateList:  append([]*Gate(nil), c.Gates...),
		gateLevel: make([]int32, len(c.Gates)),
	}
	for li, level := range levels {
		p.maxWidth = max(p.maxWidth, len(level))
		for _, g := range level {
			p.gateLevel[g.idx] = int32(li)
		}
	}
	p.scratch.New = func() any { return newEvalScratch(p) }
	return p, nil
}

// Circuit returns the underlying circuit (for net lookup and reporting).
func (p *Compiled) Circuit() *Circuit { return p.c }

// NumGates returns the gate count captured at compile time.
func (p *Compiled) NumGates() int { return p.gates }

// NumLevels returns the depth of the levelized schedule.
func (p *Compiled) NumLevels() int { return len(p.levels) }

// Analyze propagates one vector of primary-input events through the
// precompiled schedule.
//
// Each net carries at most one arrival per direction. A gate output
// transition in direction d is caused by the input arrivals in direction
// opposite(d) (all library gates are inverting). In Proximity mode every
// causing input within the dominant input's proximity window contributes via
// Algorithm ProximityDelay; in Conventional mode the latest causing input's
// single-input delay wins.
//
// Evaluation runs level by level with a bounded worker pool
// (Options.Workers). Gates within one topological level are independent, so
// the parallel schedule performs exactly the serial arithmetic and the
// results are bit-identical. The context is checked at every level
// boundary, so a canceled or expired request abandons a deep netlist
// promptly instead of walking it to the end.
func (p *Compiled) Analyze(ctx context.Context, events []PIEvent, mode Mode, opt Options) (*Result, error) {
	return p.analyze(ctx, events, mode, opt, 0)
}

// AnalyzeBatch analyzes N independent primary-input vectors against the
// handle's one levelization — the heavy-traffic shape where the netlist is
// fixed and stimuli stream through. Vectors are spread across the worker
// budget (each vector runs the serial per-gate path, so the budget is not
// oversubscribed); every result is bit-identical to Analyze on the same
// events. The first failing vector (lowest index) aborts the batch: no
// vector is started after one has failed. Cancellation aborts the batch
// between vectors and between levels.
func (p *Compiled) AnalyzeBatch(ctx context.Context, batch [][]PIEvent, mode Mode, opt Options) ([]*Result, error) {
	if len(batch) == 0 {
		// Reject like analyze rejects an empty vector: a no-op batch is a
		// caller bug, and ([], nil) upstream reads as a successful analysis.
		return nil, fmt.Errorf("sta: empty batch (no stimulus vectors)")
	}
	results := make([]*Result, len(batch))
	// Copy the caller's options wholesale and override only the concurrency:
	// each vector runs the serial per-gate path so the worker budget is
	// spent across vectors, not inside them. Rebuilding the struct
	// field-by-field here silently dropped Perturb (and before that,
	// PulseFiltering) every time Options grew a knob.
	perVector := opt
	perVector.Workers = 1
	if i, err := runEach(len(batch), workerCount(opt.Workers, len(batch)), func(_, i int) (err error) {
		results[i], err = p.analyze(ctx, batch[i], mode, perVector, int64(i))
		return err
	}); err != nil {
		return nil, fmt.Errorf("sta: batch vector %d: %w", i, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sta: batch interrupted: %w", err)
	}
	return results, nil
}

// workerCount resolves a worker budget for n independent tasks: 0 derives
// the default from the CPU count, and no more workers than tasks.
func workerCount(workers, n int) int {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return min(workers, n)
}

// runEach runs task(w, i) for every index i in [0, n) on workers
// goroutines; w in [0, workers) names the goroutine, so a task can keep
// per-goroutine state. workers <= 1 runs the loop on the caller's
// goroutine. Indices are handed out in ascending order, and none after a
// task has failed: every lower index has been handed out by then and runs
// to its end, so the index reported — the lowest that failed, with its
// error — is the one the serial loop reports. A panic in a task (outside
// the per-gate evaluation, which the walk already contains) is recovered
// as that task's error.
func runEach(n, workers int, task func(w, i int) error) (int, error) {
	run := func(w, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = recovered(r)
			}
		}()
		return task(w, i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(0, i); err != nil {
				return i, err
			}
		}
		return n, nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  = n
		ferr   error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := run(w, i); err != nil {
					mu.Lock()
					if i < first {
						first, ferr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first, ferr
}

// gateEval is one gate's computed output arrivals (or failure) within a
// level, buffered so workers never touch the shared arrival map: results
// are committed serially, in netlist order, after the level barrier. Plain
// values (indexed by direction), so a level's evaluations allocate nothing.
type gateEval struct {
	a   [2]Arrival
	has [2]bool
	err error
}

// runGate evaluates one queued gate of the walk under its process-variation
// multiplier. A panic during the evaluation (a defective model or dual
// backend) is recovered into the gate's error, naming the gate: on a worker
// goroutine nothing else would recover it, and on the serial path it would
// unwind the caller's request.
func (p *Compiled) runGate(gi int32, res *Result, perturb func(int32) float64, buf *[]core.InputEvent) (out gateEval) {
	g := p.gateList[gi]
	defer func() {
		if r := recover(); r != nil {
			out = gateEval{err: fmt.Errorf("sta: gate %s: %w", g.Name, recovered(r))}
		}
	}()
	mult := 1.0
	if perturb != nil {
		mult = perturb(gi)
	}
	return evalGate(g, res, res.Mode, buf, mult)
}

// evalGate computes both output-direction arrivals of one gate from the
// already-committed arrivals of earlier levels. It only reads res; buf is
// the caller's reusable input-event scratch (one per worker). mult is the
// process-variation multiplier for this gate (1 for the unperturbed path —
// see Options.Perturb).
func evalGate(g *Gate, res *Result, mode Mode, buf *[]core.InputEvent, mult float64) gateEval {
	var out gateEval
	for _, outDir := range [2]waveform.Direction{waveform.Rising, waveform.Falling} {
		inDir := outDir.Opposite()
		evs := (*buf)[:0]
		for pin, in := range g.In {
			if a, ok := res.Arrival(in, inDir); ok {
				evs = append(evs, core.InputEvent{Pin: pin, Dir: inDir, TT: a.TT, Cross: a.Time})
			}
		}
		*buf = evs // keep any capacity growth for the next gate
		if len(evs) == 0 {
			continue
		}
		a, err := g.eval(evs, outDir, mode, mult)
		if err != nil {
			out.err = fmt.Errorf("sta: gate %s %v output: %w", g.Name, outDir, err)
			return out
		}
		out.a[outDir] = a
		out.has[outDir] = true
	}
	return out
}

// eval computes one gate-output arrival. mult scales the gate's contribution
// (delay and output transition time) to model process variation; the scaled
// arithmetic is guarded behind mult != 1, so the unperturbed path performs
// exactly the original operations, bit for bit.
func (g *Gate) eval(evs []core.InputEvent, outDir waveform.Direction, mode Mode, mult float64) (Arrival, error) {
	if mode == Conventional {
		// Latest (arrival + single-input delay) wins; TT comes from the
		// winning arc.
		best := Arrival{Dir: outDir, Time: math.Inf(-1)}
		for _, e := range evs {
			d, tt, err := g.Calc.SingleDelay(e.Pin, e.Dir, e.TT)
			if err != nil {
				// Name the pin and its net here; the caller prefixes the
				// gate and output direction — same context the proximity
				// path's core errors carry.
				return Arrival{}, fmt.Errorf("input pin %d (net %s) %v: %w", e.Pin, g.In[e.Pin].Name, e.Dir, err)
			}
			if mult != 1 {
				d *= mult
				tt *= mult
			}
			if t := e.Cross + d; t > best.Time {
				best = Arrival{Dir: outDir, Time: t, TT: tt, FromGate: g, FromPin: e.Pin, UsedInputs: 1}
			}
		}
		if best.FromGate == nil {
			// Every arc produced a non-comparable (NaN) candidate; a
			// zero-FromGate arrival would break path tracing downstream.
			return Arrival{}, fmt.Errorf("no finite single-arc delay among %d switching inputs", len(evs))
		}
		return best, nil
	}
	r, err := g.Calc.Evaluate(evs)
	if err != nil {
		return Arrival{}, err
	}
	a := Arrival{
		Dir:        outDir,
		Time:       r.OutputCross,
		TT:         r.OutTT,
		FromGate:   g,
		FromPin:    r.Dominant,
		UsedInputs: r.UsedDelay,
	}
	if mult != 1 {
		// The crossing time decomposes as (dominant-input cross) + Delay;
		// only the gate's own Delay contribution scales with its process
		// corner, so the perturbed crossing is OutputCross + Delay*(mult-1).
		a.Time = r.OutputCross + r.Delay*(mult-1)
		a.TT = r.OutTT * mult
	}
	return a, nil
}

// WorstSlack returns the minimum slack over the given nets (both
// directions) against a common required time, with the offending net and
// arrival. ok is false when none of the nets carries an arrival.
func (r *Result) WorstSlack(nets []*Net, required float64) (slack float64, at *Net, arr Arrival, ok bool) {
	slack = math.Inf(1)
	for _, n := range nets {
		for _, dir := range bothDirs {
			if a, has := r.Arrival(n, dir); has {
				if s := required - a.Time; s < slack {
					slack, at, arr, ok = s, n, a, true
				}
			}
		}
	}
	if !ok {
		return 0, nil, Arrival{}, false
	}
	return slack, at, arr, true
}

// PathStep is one hop of a traced critical path.
type PathStep struct {
	Net     *Net
	Arrival Arrival
}

// CriticalPath traces back from a net/direction to a primary input by
// following each arrival's dominant causing pin.
func (r *Result) CriticalPath(n *Net, dir waveform.Direction) ([]PathStep, error) {
	var path []PathStep
	err := r.tracePath(n, dir, func(net *Net, a Arrival) {
		path = append(path, PathStep{Net: net, Arrival: a})
	})
	if err != nil {
		return nil, err
	}
	slices.Reverse(path) // source-to-sink order
	return path, nil
}

// tracePath walks CriticalPath's path sink first, handing each step to
// visit instead of collecting it, so a caller that only counts the path's
// gates (the Monte-Carlo criticality vote) allocates nothing.
func (r *Result) tracePath(n *Net, dir waveform.Direction, visit func(*Net, Arrival)) error {
	cur, ok := r.Arrival(n, dir)
	if !ok {
		return fmt.Errorf("sta: net %s has no %v arrival", n.Name, dir)
	}
	net := n
	for steps := 1; ; steps++ {
		visit(net, cur)
		if cur.FromGate == nil {
			return nil
		}
		inNet := cur.FromGate.In[cur.FromPin]
		prev, ok := r.Arrival(inNet, cur.Dir.Opposite())
		if !ok {
			return fmt.Errorf("sta: broken path at net %s", inNet.Name)
		}
		net, cur = inNet, prev
		// A valid trace visits each populated net at most once per
		// direction; more steps than that means the back-pointers form a
		// cycle. (Bounded by the compact store size, not the net count: a
		// result indexes every net, but only nets the walk reached carry
		// arrivals a trace can visit.)
		if steps > 2*len(r.arr)+2 {
			return fmt.Errorf("sta: path trace runaway")
		}
	}
}

// NetsByName returns all net names sorted, for deterministic reporting.
func (c *Circuit) NetsByName() []string {
	names := make([]string, 0, len(c.nets))
	for n := range c.nets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
