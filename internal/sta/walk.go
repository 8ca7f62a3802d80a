package sta

// The propagation walk — the engine's only scheduler. The paper's Algorithm
// ProximityDelay combines only the inputs that actually switch, so a gate's
// output can change only when one of its input arrivals changed. The walk
// applies exactly that rule: seed the edited primary-input arrivals into a
// result, then visit, level by level over the net -> consuming-gate CSR,
// only the gates with a changed input, committing and fanning out only the
// outputs that differ from what the result already held. A full analysis is
// the case where the result starts empty (every seeded arrival changed from
// "none"); a delta starts from a clone of its baseline and stops wherever a
// recomputed output is bit-equal to the baseline's. Within a level the
// bucket is evaluated in parallel and committed serially in netlist order,
// so arrivals are bit-identical at every worker count (enforced against a
// dense reference walker by the internal/difftest oracles).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// evalScratch is the per-walk working set, pooled on the Compiled handle
// so steady-state batch traffic allocates only the Result it returns. One
// scratch is checked out per in-flight walk; all fields are sized once
// against the compiled shape and reused, and every walk leaves them clean.
type evalScratch struct {
	outs    []gateEval        // per-bucket evaluation buffer (maxWidth wide)
	evs     []core.InputEvent // serial path's reusable input-event buffer
	queued  []bool            // per gate: already in a bucket this walk
	marked  []int32           // queued gate indices, for O(queued) reset
	buckets [][]int32         // per level: queued gate indices
	seeded  []uint8           // per net: seedSet/seedRemove bits of this seed
	touched []int32           // net IDs the seed edited, in edit order
}

func newEvalScratch(p *Compiled) *evalScratch {
	return &evalScratch{
		outs:    make([]gateEval, p.maxWidth),
		queued:  make([]bool, p.gates),
		buckets: make([][]int32, len(p.levels)),
		seeded:  make([]uint8, p.numNets),
	}
}

// ensureConsumers builds the net -> consuming-gate CSR on first use; the
// walk fans out over it from every changed net. Consumers of one net are
// listed in ascending gate index (the fill pass visits gates in netlist
// order), which keeps traversal order deterministic.
func (p *Compiled) ensureConsumers() {
	p.consOnce.Do(func() {
		consOff := make([]int32, p.numNets+1)
		for _, g := range p.gateList {
			for _, in := range g.In {
				consOff[in.id+1]++
			}
		}
		for i := 0; i < p.numNets; i++ {
			consOff[i+1] += consOff[i]
		}
		cons := make([]int32, consOff[p.numNets])
		pos := make([]int32, p.numNets)
		copy(pos, consOff[:p.numNets])
		for gi, g := range p.gateList {
			for _, in := range g.In {
				cons[pos[in.id]] = int32(gi)
				pos[in.id]++
			}
		}
		p.consOff, p.cons = consOff, cons
	})
}

// consumers returns the gate indices consuming a net (shared storage —
// callers must not mutate). ensureConsumers must have run.
func (p *Compiled) consumers(netID int32) []int32 {
	return p.cons[p.consOff[netID]:p.consOff[netID+1]]
}

// reach returns every gate an event on the given nets can reach, as gate
// indices in breadth-first order over the consumer CSR. It is computed on
// demand, O(reached gates).
func (p *Compiled) reach(from []*Net) []int32 {
	p.ensureConsumers()
	seen := make([]bool, p.gates)
	var queue []int32
	visit := func(netID int32) {
		for _, gi := range p.consumers(netID) {
			if !seen[gi] {
				seen[gi] = true
				queue = append(queue, gi)
			}
		}
	}
	for _, n := range from {
		visit(n.id)
	}
	for head := 0; head < len(queue); head++ {
		visit(p.gateList[queue[head]].Out.id)
	}
	return queue
}

// Cone returns the fanout cone of a primary input: the gates an event on it
// can reach, as gate indices into the compiled netlist order, breadth-first.
// ok is false if n is not a primary input the handle knows. The cone is
// computed on demand by a search over the consumer CSR, O(cone size); the
// handle keeps no per-input tables.
func (p *Compiled) Cone(n *Net) (gates []int32, ok bool) {
	if n == nil || int(n.id) >= p.numNets || !p.c.piSet[n] {
		return nil, false
	}
	return p.reach([]*Net{n}), true
}

// Seed-edit bits, per net in evalScratch.seeded: one bit per (edit kind,
// direction), so a repeated edit is caught in O(1).
const (
	seedSet    uint8 = 1 // << direction
	seedRemove uint8 = 4 // << direction
)

// mark claims one (edit kind, direction) bit of a net for the current seed
// and reports whether an earlier edit already held it. A net's first mark
// records it in s.touched, which is also the list seed's reset walks.
func (s *evalScratch) mark(id int32, bit uint8) (dup bool) {
	if s.seeded[id] == 0 {
		s.touched = append(s.touched, id)
	}
	dup = s.seeded[id]&bit != 0
	s.seeded[id] |= bit
	return dup
}

// checkPI validates the net of one edit: a primary input that existed when
// the handle was compiled. what names the edit in the message.
func (p *Compiled) checkPI(n *Net, what string) error {
	if n == nil || !p.c.piSet[n] {
		name := "<nil>"
		if n != nil {
			name = n.Name
		}
		return fmt.Errorf("sta: %s on non-primary-input net %s", what, name)
	}
	if int(n.id) >= p.numNets {
		return fmt.Errorf("sta: %s on net %s declared after compile (compile the circuit again)", what, n.Name)
	}
	return nil
}

// seed validates a stimulus edit and applies it to res: removes withdraw
// arrivals res holds, then sets add or replace them. A full analysis seeds
// its whole vector into an empty result with no removes; a delta seeds its
// edit into a clone of the baseline. kind prefixes the edit in messages
// ("" for a vector, "delta " for a delta). The edited net IDs are left in
// s.touched for the walk, each once.
func (p *Compiled) seed(res *Result, set []PIEvent, remove []DeltaRemove, s *evalScratch, kind string) error {
	s.touched = s.touched[:0]
	defer func() {
		for _, id := range s.touched {
			s.seeded[id] = 0
		}
	}()
	for _, rm := range remove {
		if err := p.checkPI(rm.Net, kind+"remove"); err != nil {
			return err
		}
		if s.mark(rm.Net.id, seedRemove<<rm.Dir) {
			return fmt.Errorf("sta: duplicate %sremove of %v event on %s", kind, rm.Dir, rm.Net.Name)
		}
		slot := res.idx[rm.Net.id]
		if slot == 0 || !res.arr[slot-1].has[rm.Dir] {
			return fmt.Errorf("sta: %sremove of absent %v event on primary input %s", kind, rm.Dir, rm.Net.Name)
		}
		da := &res.arr[slot-1]
		da.a[rm.Dir] = Arrival{}
		da.has[rm.Dir] = false
	}
	for _, ev := range set {
		if err := p.checkPI(ev.Net, kind+"event"); err != nil {
			return err
		}
		// !(TT > 0) rather than TT <= 0: NaN fails every ordered comparison,
		// so the naive guard waves NaN through into the interpolators.
		if !(ev.TT > 0) || math.IsInf(ev.TT, 1) {
			return fmt.Errorf("sta: %sevent on %s has non-positive or non-finite transition time %v", kind, ev.Net.Name, ev.TT)
		}
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("sta: %sevent on %s has non-finite time %v", kind, ev.Net.Name, ev.Time)
		}
		if s.mark(ev.Net.id, seedSet<<ev.Dir) {
			return fmt.Errorf("sta: duplicate %v %sevent on primary input %s", ev.Dir, kind, ev.Net.Name)
		}
		da := res.slot(ev.Net)
		da.a[ev.Dir] = Arrival{Dir: ev.Dir, Time: ev.Time, TT: ev.TT}
		da.has[ev.Dir] = true
	}
	return nil
}

// enqueue queues every consumer of a changed net into its level's bucket.
// Consumers sit at strictly higher levels than the net's driver, so the
// ascending level walk never revisits a processed bucket.
func (p *Compiled) enqueue(netID int32, s *evalScratch) {
	for _, gi := range p.consumers(netID) {
		if !s.queued[gi] {
			s.queued[gi] = true
			s.marked = append(s.marked, gi)
			lv := p.gateLevel[gi]
			s.buckets[lv] = append(s.buckets[lv], gi)
		}
	}
}

// slotValue reads a net's arrival pair without creating a slot; a nil
// result reads as empty (the "before" of a full analysis).
func slotValue(r *Result, id int32) dirArrivals {
	if r != nil {
		if s := r.idx[id]; s != 0 {
			return r.arr[s-1]
		}
	}
	return dirArrivals{}
}

// countRaw adds (sign +1) or withdraws (sign -1) one evaluation's raw output
// shape — the work it performed, before any pulse verdict cleared it — in
// the workload counters.
func (st *Stats) countRaw(raw dirArrivals, sign int) {
	for d := range raw.has {
		if !raw.has[d] {
			continue
		}
		st.Evaluations += sign
		if raw.a[d].UsedInputs > 1 {
			st.ProximityEvals += sign
		} else {
			st.SingleArcEvals += sign
		}
	}
	if raw.has[0] || raw.has[1] {
		st.GatesEvaluated += sign
	}
}

// walk propagates the arrivals seed changed (s.touched) through the
// circuit in level order. base is the result res started from: nil for a
// full analysis, whose res started empty, or the baseline a delta cloned.
// A seeded net whose arrivals differ from base queues its consumers; each
// queued gate is re-run against the committed arrivals, and its output
// commits and fans out only if it differs from what res already held —
// otherwise the wavefront dies there and everything downstream keeps its
// arrivals. Within a level every gate reads only arrivals committed by
// earlier levels and writes its private gateEval slot, so the parallel
// evaluation is race-free by construction; the commit runs serially in
// netlist order, so arrivals, verdicts and the first error reported are
// those of a serial walk. The context is polled before every non-empty
// level.
//
// A panic anywhere in the walk is returned as an error wrapping ErrPanic:
// runGate names the gate whose evaluation panicked, and a panic in the
// serial schedule or commit (pulse judging included) is recovered here.
func (p *Compiled) walk(ctx context.Context, res, base *Result, opt Options, s *evalScratch, pid int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sta: walk: %w", recovered(r))
		}
	}()
	tr := opt.Trace
	// Fine-grained spans (per phase, per level, per worker) only when the
	// trace was explicitly requested: an always-on tail-sampling recorder
	// rides along on every request, so a passive request records just its
	// top-level span — the phase breakdown lives in Stats.Phases, which the
	// wide event carries anyway.
	detail := tr.Detail()
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	res.Stats.Workers = workers
	res.Stats.Levels = len(p.levels)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sta: analysis interrupted: %w", err)
	}

	// The consumer CSR is built lazily by the first walk on a handle; what
	// this walk is charged for is the wait — the build wall on the first
	// call, ~zero ever after.
	var consSpan obs.Span
	if detail {
		consSpan = tr.Begin(pid, 0, "sta", "cones")
	}
	consStart := time.Now()
	p.ensureConsumers()
	res.Stats.Phases.Add(obs.PhaseCones, time.Since(consStart))
	consSpan.End()

	var schedSpan obs.Span
	if detail {
		schedSpan = tr.Begin(pid, 0, "sta", "schedule")
	}
	schedStart := time.Now()
	defer func() {
		// Leave the scratch clean for the next walk on every exit path.
		for _, gi := range s.marked {
			s.queued[gi] = false
		}
		s.marked = s.marked[:0]
		for i := range s.buckets {
			s.buckets[i] = s.buckets[i][:0]
		}
	}()
	for _, id := range s.touched {
		if slotValue(res, id) != slotValue(base, id) {
			p.enqueue(id, s)
		}
	}
	res.Stats.Phases.Add(obs.PhaseSchedule, time.Since(schedStart))
	schedSpan.End()

	if detail {
		for w := 1; w <= workers; w++ {
			tr.NameThread(pid, int64(w), obs.WorkerName(int64(w-1)))
		}
	}
	perturb := opt.Perturb
	ran, ranWithBase := 0, 0
	for li := range s.buckets {
		bucket := s.buckets[li]
		if len(bucket) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sta: analysis interrupted: %w", err)
		}
		// The span name is only composed for a detailed recorder — the hot
		// path must not pay a Sprintf per level.
		var levelName string
		var levelSpan obs.Span
		if detail {
			levelName = fmt.Sprintf("level %d", li)
			levelSpan = tr.Begin(pid, 0, "sta", levelName).Arg("gates", len(bucket))
		}
		start := time.Now()
		// Netlist order within the level: deterministic commits and the
		// first error a serial walk would hit. A bucket holding the whole
		// level (every gate of a full-activity vector) is the level itself,
		// which is already in netlist order.
		if level := p.levels[li]; len(bucket) == len(level) {
			for k, g := range level {
				bucket[k] = g.idx
			}
		} else {
			slices.Sort(bucket)
		}
		evalStart := time.Now()
		res.Stats.Phases.Add(obs.PhaseSchedule, evalStart.Sub(start))
		w := workers
		if w > len(bucket) {
			w = len(bucket)
		}
		if w <= 1 {
			for k, gi := range bucket {
				s.outs[k] = p.runGate(gi, res, perturb, &s.evs)
				if s.outs[k].err != nil {
					return s.outs[k].err
				}
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < w; i++ {
				wg.Add(1)
				// The name is passed, not captured: a captured levelName
				// would move to the heap on every level of every walk.
				go func(tid int64, name string) {
					defer wg.Done()
					// One span per worker per level, on the worker's own tid
					// row: the trace viewer shows the level's parallel shape —
					// who worked, who idled, who straggled. Detail-only, like
					// the level span it nests under.
					var wspan obs.Span
					if detail {
						wspan = tr.Begin(pid, tid, "sta", name)
					}
					gates := 0
					var evs []core.InputEvent
					for {
						k := int(next.Add(1) - 1)
						if k >= len(bucket) {
							if detail {
								wspan.Arg("gates", gates).End()
							}
							return
						}
						s.outs[k] = p.runGate(bucket[k], res, perturb, &evs)
						gates++
					}
				}(int64(i+1), levelName)
			}
			wg.Wait()
		}
		commitStart := time.Now()
		res.Stats.Phases.Add(obs.PhaseEval, commitStart.Sub(evalStart))
		var commitSpan obs.Span
		if detail {
			commitSpan = tr.Begin(pid, 0, "sta", "commit")
		}
		// The commit makes three passes over the bucket, each in netlist
		// order: account for the work and withdraw earlier verdicts, judge
		// the opposite-edge pairs, then commit and fan out. A gate reads and
		// writes only its own output net's entries here (its inputs were
		// committed at earlier levels), so the passes give exactly what one
		// pass per gate would, and the judging pass is timed as a whole.
		// A full analysis (base == nil) evaluates each gate once into an
		// empty result, so no gate has an earlier verdict or absorbed raw
		// shape to look up or withdraw: the pulse maps are read only when
		// the walk started from a baseline.
		rejudge := res.pulseFiltering && base != nil
		for k, gi := range bucket {
			o := &s.outs[k]
			if o.err != nil {
				return o.err
			}
			g := p.gateList[gi]
			// prevRaw is the previous evaluation's pre-filter shape. For an
			// absorbed pair the committed store is empty while the
			// evaluation work happened (and was counted), so the raw pair —
			// kept by applyPulseFilter exactly for this — stands in for the
			// committed value wherever the walk accounts for work rather
			// than committed influence.
			prevRaw := slotValue(res, g.Out.id)
			if rejudge {
				if pi, ok := res.pulses[g.Out.id]; ok && pi.Filtered {
					prevRaw = res.pulseRaw[g.Out.id]
				}
			}
			ran++
			if prevRaw.has[0] || prevRaw.has[1] {
				ranWithBase++
			}
			// The workload counters diff the RAW shapes — the work performed
			// — not the committed arrivals: a filtered pair clears the latter
			// while the evaluation still counts.
			res.Stats.countRaw(prevRaw, -1)
			res.Stats.countRaw(dirArrivals{a: o.a, has: o.has}, +1)
			if rejudge {
				// Section-6 inertial-delay judgment starts from a clean slate:
				// withdraw any earlier verdict (and its counter) so the
				// judging pass records the fresh one — an unchanged verdict
				// nets out to zero. This must happen even when the committed
				// arrivals end up bit-equal: an absorbed pair commits nothing
				// either way, yet its verdict can change, which is why
				// arrival equality alone is not a sound cutoff under
				// filtering.
				res.dropPulse(g.Out.id)
			}
		}
		var glitchWall time.Duration
		if res.pulseFiltering {
			// The pair's causing inputs were committed at earlier levels, so
			// the separation reads straight from res. Timed into its own
			// phase, carved out of commit below, so the phases stay
			// disjoint.
			gStart := time.Now()
			for k, gi := range bucket {
				if o := &s.outs[k]; o.has[0] && o.has[1] {
					applyPulseFilter(p.gateList[gi], o, res)
				}
			}
			glitchWall = time.Since(gStart)
		}
		for k, gi := range bucket {
			o := &s.outs[k]
			g := p.gateList[gi]
			next := dirArrivals{a: o.a, has: o.has}
			if next == slotValue(res, g.Out.id) {
				continue // influence died out: downstream keeps its arrivals
			}
			*res.slot(g.Out) = next
			p.enqueue(g.Out.id, s)
		}
		res.Stats.Phases.Add(obs.PhaseCommit, time.Since(commitStart)-glitchWall)
		res.Stats.Phases.Add(obs.PhaseGlitch, glitchWall)
		commitSpan.End()
		levelSpan.End()
	}
	res.Stats.GatesScheduled = ran
	if base != nil {
		res.Stats.GatesReevaluated = ran
		res.Stats.GatesReused = base.Stats.GatesEvaluated - ranWithBase
	}
	return nil
}

// newResult returns an empty result of this handle for a vector of n
// events: the index spans the netlist and the slab starts at two slots per
// event.
func (p *Compiled) newResult(mode Mode, pulseFiltering bool, n int) *Result {
	return &Result{
		Mode:           mode,
		handle:         p.id,
		pulseFiltering: pulseFiltering,
		idx:            make([]int32, p.numNets),
		arr:            make([]dirArrivals, 0, 2*n),
	}
}

// reset empties a result whose last analysis was a full one of events, in
// place, for another full analysis of the same vector. It zeroes everything
// that analysis computed and keeps the backing of the index, the slab and
// the pulse maps. Of the index it zeroes only the
// entries the analysis wrote: the vector's nets, and the output net of every
// slot's driving gate (every arrival a gate committed names it), so a reset
// costs what the analysis' cone cost, not the netlist.
func (r *Result) reset(events []PIEvent) {
	for _, ev := range events {
		if ev.Net != nil && int(ev.Net.id) < len(r.idx) {
			r.idx[ev.Net.id] = 0
		}
	}
	for k := range r.arr {
		for d := range r.arr[k].a {
			if g := r.arr[k].a[d].FromGate; g != nil {
				r.idx[g.Out.id] = 0
			}
		}
	}
	clear(r.pulses)
	clear(r.pulseRaw)
	*r = Result{
		Mode:           r.Mode,
		handle:         r.handle,
		pulseFiltering: r.pulseFiltering,
		idx:            r.idx,
		arr:            r.arr[:0],
		pulses:         r.pulses,
		pulseRaw:       r.pulseRaw,
	}
}

// errEmptyVector rejects a vector with no events: it would analyze nothing.
var errEmptyVector = errors.New("sta: empty stimulus vector (no primary-input events)")

// analyze runs one stimulus vector into a fresh result.
func (p *Compiled) analyze(ctx context.Context, events []PIEvent, mode Mode, opt Options, pid int64) (*Result, error) {
	wallStart := time.Now()
	tr := opt.Trace
	if tr.Detail() {
		tr.NameProcess(pid, obs.VectorName(pid))
		tr.NameThread(pid, 0, "schedule")
	}
	analyzeSpan := tr.Begin(pid, 0, "sta", "analyze")
	if tr.Enabled() {
		// Boxing the args allocates, so only a recording trace pays for it.
		analyzeSpan = analyzeSpan.Arg("mode", mode.String()).Arg("events", len(events))
		if id := tr.ID(); id != "" {
			// The request's W3C trace id on the top-level engine span: a
			// trace artifact pulled out of the black box remains
			// correlatable with the distributed trace it belongs to.
			analyzeSpan = analyzeSpan.Arg("traceId", id)
		}
	}
	defer analyzeSpan.End()

	if len(events) == 0 {
		return nil, errEmptyVector
	}
	res := p.newResult(mode, opt.PulseFiltering, len(events))
	if err := p.analyzeInto(ctx, res, events, opt, pid); err != nil {
		return nil, err
	}
	res.Stats.Wall = time.Since(wallStart)
	return res, nil
}

// analyzeInto runs a non-empty stimulus vector into res, an empty result of
// this handle: a full analysis is the walk from an empty result, with every
// event seeded as a change.
func (p *Compiled) analyzeInto(ctx context.Context, res *Result, events []PIEvent, opt Options, pid int64) error {
	s := p.scratch.Get().(*evalScratch)
	defer p.scratch.Put(s)
	seedStart := time.Now()
	if err := p.seed(res, events, nil, s, ""); err != nil {
		return err
	}
	res.Stats.Phases.Add(obs.PhaseSeed, time.Since(seedStart))
	return p.walk(ctx, res, nil, opt, s, pid)
}
