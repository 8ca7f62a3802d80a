package sta

// Incremental recompile. Every structural mutation appends — gates, nets
// and primary inputs only ever grow — so a stale compiled handle differs
// from the circuit by exactly the appended suffix, and the edit list needs
// no bookkeeping: it IS c.Gates[old.gates:] and c.PIs[len(old.pis):]. The
// recompile keeps everything the edit cannot have touched: old levels are
// only revisited where a new gate's output feeds back into existing logic
// (a forward net finally driven). The result is required to be
// bit-identical to a from-scratch compile — same level sets, same
// within-level order — which the difftest incremental oracle enforces
// against a discarded-handle rebuild.

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// recompile builds a new handle from a stale one, re-levelizing only the
// appended suffix and its downstream fanout. If the old handle is not a
// clean prefix of the current circuit (impossible through the public API,
// but cheap to verify), it falls back to a full compile.
func (c *Circuit) recompile(old *Compiled, tr *obs.Trace) (*Compiled, error) {
	if old.gates > len(c.Gates) || old.numNets > len(c.nets) || len(old.pis) > len(c.PIs) {
		return c.compileFull(tr)
	}
	for i, g := range old.gateList {
		if c.Gates[i] != g {
			return c.compileFull(tr)
		}
	}
	for i, n := range old.pis {
		if c.PIs[i] != n {
			return c.compileFull(tr)
		}
	}

	levelizeSpan := tr.Begin(0, 0, "sta", "relevelize").Arg("newGates", len(c.Gates)-old.gates)
	levelizeStart := time.Now()

	numGates := len(c.Gates)
	gateList := c.Gates
	newGates := gateList[old.gates:]

	// Consumer edges introduced by the edit, keyed by net ID. Merged with
	// the old handle's CSR this gives the new graph's consumer relation,
	// which the level relaxation below walks.
	old.ensureConsumers()
	newCons := make(map[int32][]int32)
	for _, g := range newGates {
		for _, in := range g.In {
			newCons[in.id] = append(newCons[in.id], g.idx)
		}
	}

	// Re-levelize: old gates keep their level until an edit-induced path
	// pushes them deeper. Each new gate lands one past its deepest assigned
	// driver, then a worklist relaxes downstream of its output — that is
	// how a forward net finally driven drags its already-levelized
	// consumers (and their fanout) down. Levels only ever increase during
	// relaxation (edges were only added), so a level exceeding the gate
	// count proves the edit closed a combinational loop.
	gateLevel := make([]int32, numGates)
	copy(gateLevel, old.gateLevel)
	assigned := make([]bool, numGates)
	for i := 0; i < old.gates; i++ {
		assigned[i] = true
	}
	desiredLevel := func(g *Gate) int32 {
		var lv int32
		for _, in := range g.In {
			if d := in.Driver; d != nil && assigned[d.idx] && gateLevel[d.idx] >= lv {
				lv = gateLevel[d.idx] + 1
			}
		}
		return lv
	}
	var work []int32
	pushConsumers := func(netID int32) {
		if int(netID) < old.numNets {
			work = append(work, old.consumers(netID)...)
		}
		work = append(work, newCons[netID]...)
	}
	for _, g := range newGates {
		gateLevel[g.idx] = desiredLevel(g)
		assigned[g.idx] = true
		pushConsumers(g.Out.id)
	}
	for len(work) > 0 {
		gi := work[len(work)-1]
		work = work[:len(work)-1]
		if !assigned[gi] {
			continue // a later new gate; it levels itself when reached above
		}
		g := gateList[gi]
		if nl := desiredLevel(g); nl > gateLevel[gi] {
			if int(nl) >= numGates {
				levelizeSpan.End()
				return nil, fmt.Errorf("sta: combinational loop through gate %s", g.Name)
			}
			gateLevel[gi] = nl
			pushConsumers(g.Out.id)
		}
	}

	// Re-bucket into the levelized schedule. Walking gate indices ascending
	// per level reproduces Kahn's output exactly: the level is the longest
	// path from a source, and Kahn emits each frontier sorted by index.
	numLevels := 0
	for _, lv := range gateLevel {
		if int(lv)+1 > numLevels {
			numLevels = int(lv) + 1
		}
	}
	levels := make([][]*Gate, numLevels)
	for gi, lv := range gateLevel {
		levels[lv] = append(levels[lv], gateList[gi])
	}
	levelizeSpan.End()
	return newCompiled(c, levels, time.Since(levelizeStart)), nil
}
