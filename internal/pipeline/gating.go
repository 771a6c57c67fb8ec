package pipeline

import (
	"fmt"

	"smtsim/internal/isa"
	"smtsim/internal/uop"
)

// FetchGate selects a fetch-gating policy layered on top of the ICOUNT
// thread selector. These are the related-work mechanisms of Section 6:
// fetch gating reacts to cache misses that ICOUNT's instruction counts
// see only indirectly.
type FetchGate uint8

const (
	// GateNone applies no gating (the paper's baseline).
	GateNone FetchGate = iota
	// GateStall (Tullsen & Brown, STALL) stops fetching for a thread
	// while it has a load outstanding to main memory.
	GateStall
	// GateFlush (FLUSH) extends STALL by also squashing the thread's
	// instructions younger than the missing load, freeing the shared
	// issue-queue entries they hold until the load returns.
	GateFlush
	// GateDataMiss (El-Moursy & Albonesi, Data Gating) stops fetching
	// for a thread while it has any L1 data-cache miss outstanding.
	GateDataMiss
)

// String names the gate.
func (g FetchGate) String() string {
	switch g {
	case GateNone:
		return "none"
	case GateStall:
		return "stall"
	case GateFlush:
		return "flush"
	case GateDataMiss:
		return "data-gate"
	}
	return fmt.Sprintf("gate(%d)", uint8(g))
}

// ParseFetchGate converts a gate name back to a FetchGate.
func ParseFetchGate(s string) (FetchGate, error) {
	for _, g := range []FetchGate{GateNone, GateStall, GateFlush, GateDataMiss} {
		if g.String() == s {
			return g, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown fetch gate %q", s)
}

// gateAllows reports whether the fetch gate permits thread t to fetch
// this cycle.
//
//smt:hotpath
func (c *Core) gateAllows(t int) bool {
	ts := &c.threads[t]
	switch c.cfg.FetchGate {
	case GateStall:
		return ts.outstandingMem == 0
	case GateFlush:
		return ts.gateLoad == nil
	case GateDataMiss:
		return ts.outstandingL1D == 0
	}
	return true
}

// noteLoadIssue records how deep a load's access went, for the gating
// policies; for GateFlush a memory miss triggers the selective squash of
// the thread's younger instructions.
//
//smt:hotpath
func (c *Core) noteLoadIssue(u *uop.UOp, extra int) {
	if extra <= 0 {
		return
	}
	ts := &c.threads[u.Thread]
	u.L1DMiss = true
	ts.outstandingL1D++
	c.inFlightMisses++
	if extra > c.hier.L2.Config().HitCycles {
		u.MemMiss = true
		ts.outstandingMem++
		if c.cfg.FetchGate == GateFlush && ts.gateLoad == nil {
			ts.gateLoad = u
			c.flushThreadAfter(u)
			c.gateFlushes++
		}
	}
}

// noteLoadDone unwinds noteLoadIssue's bookkeeping at completion.
//
//smt:hotpath
func (c *Core) noteLoadDone(u *uop.UOp) {
	if !u.L1DMiss {
		return
	}
	ts := &c.threads[u.Thread]
	ts.outstandingL1D--
	c.inFlightMisses--
	if u.MemMiss {
		ts.outstandingMem--
	}
	if ts.gateLoad == u {
		ts.gateLoad = nil
	}
}

// forgetLoad is noteLoadDone for squashed loads that will never complete
// (watchdog flush paths): the counters must not leak or the gates would
// block their thread forever.
func (c *Core) forgetLoad(u *uop.UOp) {
	if u.Issued && !u.Completed {
		c.noteLoadDone(u)
	}
}

// flushThreadAfter squashes every instruction of pivot's thread that is
// younger than pivot — renamed or merely fetched — rewinding the rename
// table by undoing mappings youngest-first, and queues the squashed
// instructions for refetch. This is the FLUSH mechanism's partial squash;
// the watchdog's flushAll is the degenerate whole-thread case.
//
//smt:coldpath — squash recovery: runs per flush event, not per cycle; the refetch list is the event's cost
func (c *Core) flushThreadAfter(pivot *uop.UOp) {
	t := pivot.Thread
	ts := &c.threads[t]

	c.disp.SquashYoungerThan(t, pivot.GSeq)
	young := c.robs[t].DrainYoungerThan(pivot.GSeq) // youngest-first
	c.lsqs[t].DrainYoungerThan(pivot.GSeq)

	releaseBranchBlock := false
	insts := make([]isa.Inst, len(young))
	for i, u := range young {
		u.Squashed = true
		c.unwatchSquashed(u)
		if u.InIQ {
			c.q.Remove(u)
		}
		if u.InDAB {
			c.disp.DAB().Remove(u)
		}
		c.rats[t].Undo(u)
		if u.Dest.Valid() {
			c.rf.Free(u.Dest)
		}
		c.forgetLoad(u)
		if u.Mispred && !u.Completed {
			// The unresolved mispredicted branch fetch was waiting on
			// is gone; the refetched copy will re-predict.
			releaseBranchBlock = true
		}
		insts[len(young)-1-i] = u.Inst
	}
	for ts.qLen > 0 {
		e := ts.fetchQPeek()
		if e.mispred {
			releaseBranchBlock = true
		}
		insts = append(insts, e.inst)
		ts.fetchQPop()
	}
	if ts.pendingValid {
		insts = append(insts, ts.pendingInst)
		ts.pendingValid = false
	}
	ts.replay = append(insts, ts.replay...)
	ts.lastBlockValid = false
	if releaseBranchBlock {
		ts.blocked = c.cycle + c.cfg.FlushRefill
	}
}
