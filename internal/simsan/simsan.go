// Package simsan is a cycle-granular invariant sanitizer for the SMT
// pipeline — the simulator's analogue of a race detector. Enabled via
// pipeline.Config.Sanitize (and always-on in the pipeline package's
// tests), it re-derives the machine's structural contracts from scratch
// every simulated cycle and reports any divergence as a structured
// Violation naming the cycle, thread, and micro-operation.
//
// The invariants protect the mechanisms the paper's claims rest on:
//
//   - ROB allocation/commit stays program-ordered per thread (the
//     in-order rename/allocation contract out-of-order dispatch relies
//     on, Section 4).
//   - Issue-queue residents' event-maintained not-ready counters match
//     the register file's ready bits, and the per-register consumer
//     bitmaps hold exactly one watch bit per non-ready source operand —
//     no stale bit on a recycled bank slot, none surviving issue or
//     squash (the wakeup-CAM model over structure-of-arrays state).
//   - Physical-register conservation: every register is reachable from
//     an architectural mapping or a live destination, exactly when it is
//     allocated — no leak, no double-free — across commit, watchdog
//     flush, fetch-gate squash, and DAB paths.
//   - The deadlock-avoidance buffer only ever holds a thread's
//     ROB-oldest instruction with all sources ready (the property that
//     makes the DAB a deadlock guard at all, Section 4).
//   - NDI/HDI classification from the event counters agrees with a
//     from-scratch register-file recomputation (the Figure 2 taxonomy).
//
// The checker is read-only: it never mutates machine state, so a clean
// run with the sanitizer enabled is bit-identical to one without.
package simsan

import (
	"fmt"

	"smtsim/internal/core"
	"smtsim/internal/iq"
	"smtsim/internal/isa"
	"smtsim/internal/lsq"
	"smtsim/internal/regfile"
	"smtsim/internal/rename"
	"smtsim/internal/rob"
	"smtsim/internal/uop"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Cycle is the simulated cycle at which the check ran.
	Cycle int64
	// Invariant names the broken contract (stable identifier).
	Invariant string
	// Thread is the implicated hardware thread, or -1 when machine-wide.
	Thread int
	// GSeq and PC identify the implicated micro-operation, when one is
	// implicated (GSeq 0 otherwise).
	GSeq uint64
	PC   uint64
	// Detail is the human-readable explanation.
	Detail string
}

// Error formats the violation as "simsan[<invariant>]: cycle N thread T
// uop gseq=G pc=0x...: detail".
func (v Violation) Error() string {
	s := fmt.Sprintf("simsan[%s]: cycle %d", v.Invariant, v.Cycle)
	if v.Thread >= 0 {
		s += fmt.Sprintf(" thread %d", v.Thread)
	}
	if v.GSeq != 0 {
		s += fmt.Sprintf(" uop gseq=%d pc=%#x", v.GSeq, v.PC)
	}
	return s + ": " + v.Detail
}

// Machine is the sanitizer's read-only view over one core's components.
// The pipeline wires it up at construction; every slice is indexed by
// hardware thread.
type Machine struct {
	Bank *uop.Bank
	RF   *regfile.File
	IQ   *iq.Queue
	Disp *core.Dispatcher
	ROBs []*rob.ROB
	RATs []*rename.Table
	LSQs []*lsq.LSQ
}

// maxViolations bounds the retained history so a systematically broken
// machine does not turn the sanitizer into a memory leak.
const maxViolations = 64

// Checker validates a Machine's invariants. It is not safe for
// concurrent use; build one per core.
type Checker struct {
	m          Machine
	violations []Violation
	dropped    int

	// Per-cycle scratch, reused across calls.
	live     map[*uop.UOp]int
	buffered map[*uop.UOp]bool
	watches  map[*uop.UOp]int
	dests    map[regfile.PhysRef]*uop.UOp
	expected map[regfile.PhysRef]bool
}

// New builds a checker over the given machine view.
func New(m Machine) *Checker {
	return &Checker{
		m:        m,
		live:     make(map[*uop.UOp]int),
		buffered: make(map[*uop.UOp]bool),
		watches:  make(map[*uop.UOp]int),
		dests:    make(map[regfile.PhysRef]*uop.UOp),
		expected: make(map[regfile.PhysRef]bool),
	}
}

// Violations returns the retained violation history (capped).
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns the first retained violation as an error, or nil.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return c.violations[0]
}

// record appends a violation, respecting the retention cap.
func (c *Checker) record(v Violation) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, v)
}

// addf records a violation implicating u (which may be nil).
func (c *Checker) addf(cycle int64, invariant string, thread int, u *uop.UOp, format string, args ...any) {
	v := Violation{Cycle: cycle, Invariant: invariant, Thread: thread, Detail: fmt.Sprintf(format, args...)}
	if u != nil {
		v.GSeq, v.PC = u.GSeq, u.Inst.PC
	}
	c.record(v)
}

// CheckCycle runs every invariant against the machine's current state
// and returns an error summarizing any violation found this call (nil on
// a clean cycle). All violations are also retained (up to a cap) and
// available via Violations.
func (c *Checker) CheckCycle(cycle int64) error {
	before := len(c.violations) + c.dropped

	c.checkComponents(cycle)
	c.collectLive(cycle)
	c.checkLocations(cycle)
	c.checkDAB(cycle)
	c.checkWakeup(cycle)
	c.checkRegisterConservation(cycle)
	c.checkLSQs(cycle)

	found := len(c.violations) + c.dropped - before
	if found == 0 {
		return nil
	}
	first := c.violations[min(before, len(c.violations)-1)]
	if found == 1 {
		return first
	}
	return fmt.Errorf("%w (+%d more violations this cycle)", first, found-1)
}

// checkComponents runs each component's self-check.
func (c *Checker) checkComponents(cycle int64) {
	if err := c.m.RF.CheckInvariants(); err != nil {
		c.addf(cycle, "regfile-integrity", -1, nil, "%v", err)
	}
	if err := c.m.IQ.CheckInvariants(c.m.RF); err != nil {
		c.addf(cycle, "iq-structure", -1, nil, "%v", err)
	}
	if err := c.m.Disp.CheckInvariants(c.m.IQ, c.m.RF); err != nil {
		c.addf(cycle, "dispatch-classification", -1, nil, "%v", err)
	}
	for t, r := range c.m.ROBs {
		if err := r.CheckInvariants(t); err != nil {
			c.addf(cycle, "rob-order", t, nil, "%v", err)
		}
	}
	for t, rat := range c.m.RATs {
		if err := rat.CheckConsistency(); err != nil {
			c.addf(cycle, "rename-consistency", t, nil, "%v", err)
		}
	}
}

// collectLive rebuilds the in-flight set: every renamed, uncommitted,
// unsquashed UOp appears in exactly one thread's ROB.
func (c *Checker) collectLive(cycle int64) {
	clear(c.live)
	for t, r := range c.m.ROBs {
		r.ForEach(func(u *uop.UOp) {
			if prev, dup := c.live[u]; dup {
				c.addf(cycle, "rob-order", t, u, "UOp also in flight for thread %d", prev)
				return
			}
			c.live[u] = t
			if u.Completed && !u.Issued {
				c.addf(cycle, "uop-lifecycle", t, u, "completed without issuing")
			}
			if u.Completed && u.Dest.Valid() && !c.m.RF.Ready(u.Dest) {
				c.addf(cycle, "uop-lifecycle", t, u, "completed but destination %s not ready", u.Dest)
			}
		})
	}
}

// checkLocations verifies each live instruction occupies exactly the
// pipeline structure its lifecycle stage implies, and that every
// structure holds only live instructions.
func (c *Checker) checkLocations(cycle int64) {
	clear(c.buffered)
	for t := range c.m.ROBs {
		buf := c.m.Disp.Buffer(t)
		for j := 0; j < buf.Len(); j++ {
			u := buf.At(j)
			c.buffered[u] = true
			if lt, ok := c.live[u]; !ok || lt != t {
				c.addf(cycle, "location", t, u, "buffered for dispatch but not in thread %d's ROB", t)
			}
		}
	}
	c.m.IQ.ForEach(func(u *uop.UOp) {
		if _, ok := c.live[u]; !ok {
			c.addf(cycle, "location", u.Thread, u, "IQ resident not in any ROB")
		}
	})
	for _, id := range c.m.Disp.DAB().Entries() {
		u := c.m.Bank.Get(id)
		if _, ok := c.live[u]; !ok {
			c.addf(cycle, "location", u.Thread, u, "DAB occupant not in any ROB")
		}
	}
	for u, t := range c.live {
		places := 0
		for _, in := range []bool{c.buffered[u], u.InIQ, u.InDAB} {
			if in {
				places++
			}
		}
		switch {
		case u.Issued && places != 0:
			c.addf(cycle, "location", t, u, "issued but still resident (buffer=%t iq=%t dab=%t)",
				c.buffered[u], u.InIQ, u.InDAB)
		case !u.Issued && places != 1:
			c.addf(cycle, "location", t, u, "in %d pipeline structures, want exactly 1 (buffer=%t iq=%t dab=%t)",
				places, c.buffered[u], u.InIQ, u.InDAB)
		}
	}
}

// checkDAB verifies the deadlock-avoidance contract: an occupant is its
// thread's ROB-oldest instruction and every source operand is ready —
// the Section 4 property that lets the DAB issue from a plain RAM with
// no wakeup CAM.
func (c *Checker) checkDAB(cycle int64) {
	for _, id := range c.m.Disp.DAB().Entries() {
		u := c.m.Bank.Get(id)
		t := u.Thread
		if !u.InDAB {
			c.addf(cycle, "dab-oldest-ready", t, u, "occupant has InDAB unset")
		}
		if t < 0 || t >= len(c.m.ROBs) {
			continue // location check already reported it
		}
		if !c.m.ROBs[t].IsHead(u) {
			c.addf(cycle, "dab-oldest-ready", t, u, "occupant is not the ROB-oldest instruction of its thread")
		}
		if n := u.NumSrcNotReady(c.m.RF); n != 0 {
			c.addf(cycle, "dab-oldest-ready", t, u, "occupant has %d non-ready sources", n)
		}
		if c.m.Bank.NotReady[u.ID] != 0 {
			c.addf(cycle, "dab-oldest-ready", t, u, "occupant's not-ready counter is %d", c.m.Bank.NotReady[u.ID])
		}
	}
}

// checkWakeup verifies the event-driven wakeup bookkeeping: every live,
// unissued instruction's not-ready counter equals both a register-file
// poll and its watch-bit registrations in the consumer bitmaps; watch
// bits never outnumber an instruction's matching source operands and
// never survive issue or squash. With bank slots recycled by later
// renames, a stale bit is not harmless — a broadcast would decrement the
// new occupant's counter — so any watch whose slot does not hold a live,
// watching incarnation is a violation in its own right.
func (c *Checker) checkWakeup(cycle int64) {
	clear(c.watches)
	c.m.RF.VisitWatchers(func(p regfile.PhysRef, id int32) {
		u := c.m.Bank.Get(id)
		t, live := c.live[u]
		if !live || u.Squashed {
			c.addf(cycle, "wakeup-counter", u.Thread, u, "watch on %s for bank slot %d, whose occupant is not in flight", p, id)
			return
		}
		if u.Issued {
			c.addf(cycle, "wakeup-counter", t, u, "watch on %s survived issue", p)
		}
		matches := 0
		for _, s := range u.Srcs {
			if s == p {
				matches++
			}
		}
		if matches == 0 {
			c.addf(cycle, "wakeup-counter", t, u, "watch on %s, which is not a source operand", p)
			return
		}
		c.watches[u]++
		if c.watches[u] > int(c.m.Bank.NotReady[id]) {
			c.addf(cycle, "wakeup-counter", t, u, "live watch bits exceed not-ready counter %d", c.m.Bank.NotReady[id])
		}
	})
	for u, t := range c.live {
		nr := c.m.Bank.NotReady[u.ID]
		if nr < 0 {
			c.addf(cycle, "wakeup-counter", t, u, "not-ready counter underflow: %d", nr)
			continue
		}
		if u.Issued {
			continue // counters are dead after issue; watches checked above
		}
		if polled := u.NumSrcNotReady(c.m.RF); int(nr) != polled {
			c.addf(cycle, "wakeup-counter", t, u, "counter says %d non-ready, register file says %d", nr, polled)
		}
		if got := c.watches[u]; got != int(nr) {
			c.addf(cycle, "wakeup-counter", t, u, "%d live watch bits for counter %d", got, nr)
		}
	}
}

// checkRegisterConservation rebuilds the set of reachable physical
// registers — the architectural mappings of every thread plus the
// destinations of every live instruction — and requires it to coincide
// exactly with the allocated set: a register allocated but unreachable
// has leaked; a reachable register on the free list was double-freed.
func (c *Checker) checkRegisterConservation(cycle int64) {
	clear(c.dests)
	clear(c.expected)
	for t, rat := range c.m.RATs {
		for cls := 0; cls < isa.NumRegClasses; cls++ {
			for i := 0; i < isa.NumArchRegs; i++ {
				r := isa.Reg{Class: isa.RegClass(cls), Index: int8(i)}
				if p := rat.ArchLookup(r); p.Valid() {
					c.expected[p] = true
				} else {
					c.addf(cycle, "register-conservation", t, nil, "architectural %v unmapped", r)
				}
			}
		}
	}
	for u, t := range c.live {
		if !u.Dest.Valid() {
			continue
		}
		if prev, dup := c.dests[u.Dest]; dup {
			c.addf(cycle, "register-conservation", t, u, "destination %s double-allocated (also gseq=%d)", u.Dest, prev.GSeq)
		}
		c.dests[u.Dest] = u
		c.expected[u.Dest] = true
		if u.PrevDest.Valid() && !c.m.RF.Allocated(u.PrevDest) {
			c.addf(cycle, "register-conservation", t, u, "previous mapping %s freed before commit", u.PrevDest)
		}
	}
	for cls := 0; cls < isa.NumRegClasses; cls++ {
		rc := isa.RegClass(cls)
		for i := 0; i < c.m.RF.Size(rc); i++ {
			p := regfile.PhysRef{Class: rc, Index: int16(i)}
			alloc, want := c.m.RF.Allocated(p), c.expected[p]
			switch {
			case alloc && !want:
				c.addf(cycle, "register-conservation", -1, nil, "%s leaked: allocated but unreachable", p)
			case !alloc && want:
				c.addf(cycle, "register-conservation", -1, c.dests[p], "%s reachable but freed", p)
			}
		}
	}
}

// checkLSQs verifies each thread's load/store queue holds live memory
// operations in program order.
func (c *Checker) checkLSQs(cycle int64) {
	for t, q := range c.m.LSQs {
		var prev uint64
		first := true
		q.ForEach(func(u *uop.UOp) {
			if lt, ok := c.live[u]; !ok || lt != t {
				c.addf(cycle, "lsq-order", t, u, "LSQ entry not in thread %d's ROB", t)
			}
			if !u.Inst.Class.IsMem() {
				c.addf(cycle, "lsq-order", t, u, "non-memory class %v in LSQ", u.Inst.Class)
			}
			if !first && u.GSeq <= prev {
				c.addf(cycle, "lsq-order", t, u, "program order broken: gseq %d after %d", u.GSeq, prev)
			}
			prev, first = u.GSeq, false
		})
	}
}
