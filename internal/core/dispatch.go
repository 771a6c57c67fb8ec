package core

import (
	"fmt"

	"smtsim/internal/iq"
	"smtsim/internal/isa"
	"smtsim/internal/regfile"
	"smtsim/internal/rob"
	"smtsim/internal/uop"
)

// Stats aggregates the dispatch-stage statistics the paper reports.
type Stats struct {
	// Dispatched counts instructions sent to the IQ or DAB.
	Dispatched uint64
	// Cycles counts dispatch-stage invocations (one per machine cycle),
	// the denominator for the stall fractions.
	Cycles uint64
	// StallAllNDI counts cycles in which nothing dispatched and every
	// thread simultaneously held buffered instructions blocked by the
	// 2OP condition (an NDI at the head under in-order dispatch; only
	// NDIs buffered under OOOD) — the paper's "dispatch of all threads
	// stalls" statistic (43%/17%/7% for 2/3/4 threads at 64 entries
	// under 2OP_BLOCK; 0.2% under OOOD for 2 threads).
	StallAllNDI uint64
	// StallNDIWeak counts zero-dispatch cycles in which at least one
	// thread was NDI-blocked and no thread was blocked for any other
	// reason (threads with empty buffers — starved upstream — are
	// ignored). This looser reading of the paper's statistic bounds the
	// strict StallAllNDI from above.
	StallNDIWeak uint64
	// StallAllAny counts cycles with buffered work somewhere and zero
	// dispatches for any reason (NDI or IQ-full).
	StallAllAny uint64
	// WorkCycles counts cycles in which at least one thread had buffered
	// instructions.
	WorkCycles uint64
	// NDIBlockCycles counts, per thread, cycles the thread's oldest
	// undispatched instruction was an NDI.
	NDIBlockCycles []uint64
	// PiledSampled and PiledHDI sample, once per NDI-blocked thread
	// cycle, the instructions queued behind the blocking NDI and how
	// many of them are themselves dispatchable — the paper's "almost
	// 90% of instructions piled up behind the NDIs are HDIs".
	PiledSampled uint64
	PiledHDI     uint64
	// HDIDispatched counts instructions dispatched out of program order
	// (ahead of an older NDI); HDIDepOnNDI counts those that directly or
	// transitively depended on a blocked NDI (the paper's ~10%).
	HDIDispatched uint64
	HDIDepOnNDI   uint64
	// NDIDispatchDelayed counts instructions that spent at least one
	// cycle classified as NDI before eventually dispatching.
	NDIDispatchDelayed uint64
}

// taintSet tracks one thread's tainted physical registers — destinations
// of currently blocked NDIs and of dispatched instructions transitively
// dependent on them — as per-class bitmaps over register indices. The
// set is consulted on every buffered instruction during the OOOD scan,
// so membership must be a couple of shifts, not a map probe.
type taintSet struct {
	w [isa.NumRegClasses][]uint64
}

func (s *taintSet) init(rf *regfile.File) {
	for c := range s.w {
		s.w[c] = make([]uint64, (rf.Size(isa.RegClass(c))+63)/64)
	}
}

//smt:hotpath
func (s *taintSet) set(p regfile.PhysRef) {
	s.w[p.Class][p.Index>>6] |= 1 << (uint(p.Index) & 63)
}

//smt:hotpath
func (s *taintSet) clear(p regfile.PhysRef) {
	if s.w[p.Class] == nil {
		return
	}
	s.w[p.Class][p.Index>>6] &^= 1 << (uint(p.Index) & 63)
}

//smt:hotpath
func (s *taintSet) has(p regfile.PhysRef) bool {
	return s.w[p.Class][p.Index>>6]>>(uint(p.Index)&63)&1 != 0
}

func (s *taintSet) reset() {
	for c := range s.w {
		words := s.w[c]
		for i := range words {
			words[i] = 0
		}
	}
}

// Dispatcher implements one dispatch policy over the per-thread buffers.
// It owns the buffers and the DAB; the pipeline pushes renamed
// instructions in and calls Run once per cycle.
type Dispatcher struct {
	bank    *uop.Bank
	policy  Policy
	width   int
	bufs    []Buffer
	dab     *DAB
	useDAB  bool
	threads int
	rr      int

	// filtered caches policy.filtered(): the policy is fixed at
	// construction and the flag is consulted per buffered instruction in
	// the OOOD scan.
	filtered bool

	// perThreadCap, when positive, statically partitions the shared
	// queue: no thread may hold more than this many IQ entries (Raasch &
	// Reinhardt-style resource partitioning, [9] in the paper).
	perThreadCap int

	// taint feeds the DepOnNDI statistic and the idealized filter; sized
	// lazily on the first Run (the register file arrives there).
	taint      []taintSet
	taintReady bool

	// reasons is per-cycle scratch for the stall accounting.
	reasons []blockReason

	// Idle-replay capture for the pipeline's dispatch freeze and
	// quiescent-cycle fast-forward: Run records which flat stall
	// counters it bumped and by how much the per-thread/pile counters
	// moved, so ReplayIdle can re-apply one zero-dispatch cycle's
	// accounting k times (idempotently — the deltas are captured, not
	// recomputed from the live stats).
	idleWork, idleStallAny, idleStallWeak, idleStallStrict bool
	idleNDI                                                []uint64
	idlePiled, idlePiledHDI                                uint64

	stats Stats
}

// NewDispatcher builds a dispatcher over the core's uop bank for the
// given policy, total dispatch width (machine width, shared by all
// threads), per-thread buffer capacity, and thread count. The DAB is
// sized one entry per thread, which Section 4 argues is sufficient to
// prevent deadlock.
func NewDispatcher(bank *uop.Bank, policy Policy, width, bufCap, threads int) *Dispatcher {
	d := &Dispatcher{
		bank:     bank,
		policy:   policy,
		filtered: policy.filtered(),
		width:    width,
		threads:  threads,
		dab:      NewDAB(bank, threads),
		useDAB:   true,
		taint:    make([]taintSet, threads),
	}
	d.bufs = make([]Buffer, threads)
	for t := range d.bufs {
		d.bufs[t] = *NewBuffer(bank, bufCap)
	}
	d.stats.NDIBlockCycles = make([]uint64, threads)
	d.reasons = make([]blockReason, threads)
	d.idleNDI = make([]uint64, threads)
	return d
}

// Policy returns the configured policy.
func (d *Dispatcher) Policy() Policy { return d.policy }

// DAB exposes the deadlock-avoidance buffer to the issue stage.
func (d *Dispatcher) DAB() *DAB { return d.dab }

// SetDABEnabled turns the deadlock-avoidance path on or off (it is on by
// default). The watchdog-timer configuration and the deadlock
// demonstration tests disable it.
func (d *Dispatcher) SetDABEnabled(on bool) { d.useDAB = on }

// SetPerThreadCap statically partitions the queue: each thread may hold
// at most cap entries (0 restores full sharing). Dispatch for a thread
// at its cap blocks as if the queue were full for it.
func (d *Dispatcher) SetPerThreadCap(cap int) { d.perThreadCap = cap }

// atCap reports whether thread t has exhausted its queue share.
//
//smt:hotpath
func (d *Dispatcher) atCap(t int, q *iq.Queue) bool {
	return d.perThreadCap > 0 && q.ThreadCount(t) >= d.perThreadCap
}

// Buffer returns thread t's dispatch buffer.
func (d *Dispatcher) Buffer(t int) *Buffer { return &d.bufs[t] }

// Stats returns a copy of the accumulated statistics.
func (d *Dispatcher) Stats() Stats { return d.stats }

// ResetStats clears the accumulated statistics (taint and buffer state
// are untouched), for measurement after a warmup period.
func (d *Dispatcher) ResetStats() {
	d.stats = Stats{NDIBlockCycles: make([]uint64, d.threads)}
	d.dab.Inserts = 0
}

// blockReason records why a thread dispatched nothing this cycle.
type blockReason uint8

const (
	blockNone   blockReason = iota // dispatched something or no work
	blockNDI                       // 2OP condition: oldest undispatched is an NDI (or, under OOOD, all candidates are)
	blockIQFull                    // no free IQ entry (and DAB not applicable)
)

// Run performs one cycle of dispatch: up to width instructions move from
// the thread buffers into the IQ (or the DAB). The scan order across
// threads rotates every cycle for fairness. Returns the number
// dispatched.
//
//smt:hotpath
func (d *Dispatcher) Run(cycle int64, q *iq.Queue, rf *regfile.File, robs []*rob.ROB) int {
	if !d.taintReady {
		for t := range d.taint {
			//smt:allow-alloc — one-time lazy sizing against the regfile on the first Run; steady state never re-enters
			d.taint[t].init(rf)
		}
		d.taintReady = true
	}
	// Fast path: with every buffer empty the cycle's only effects are the
	// cycle count, the scan-origin rotation, and an all-idle replay
	// capture — skip the per-thread scan and stall accounting entirely.
	empty := true
	for t := range d.bufs {
		if d.bufs[t].size != 0 {
			empty = false
			break
		}
	}
	if empty {
		d.tickEmpty()
		return 0
	}

	budget := d.width
	dispatched := 0
	anyWork := false
	reasons := d.reasons
	for i := range reasons {
		reasons[i] = blockNone
	}
	entryPiled, entryPiledHDI := d.stats.PiledSampled, d.stats.PiledHDI
	copy(d.idleNDI, d.stats.NDIBlockCycles)
	d.idleWork, d.idleStallAny, d.idleStallWeak, d.idleStallStrict = false, false, false, false

	t := d.rr
	d.rr++
	if d.rr == d.threads {
		d.rr = 0
	}
	for i := 0; i < d.threads; i, t = i+1, t+1 {
		if t >= d.threads {
			t = 0
		}
		if d.bufs[t].Len() == 0 {
			continue
		}
		anyWork = true
		n, reason := d.runThread(cycle, t, q, robs[t], budget)
		budget -= n
		dispatched += n
		if n == 0 {
			reasons[t] = reason
		}
		if budget == 0 {
			break
		}
	}

	// Stall accounting. A cycle counts against the 2OP condition only if
	// every thread simultaneously held work and was NDI-blocked; a
	// thread with an empty buffer is starved upstream, not stalled by
	// the scheduler.
	d.stats.Cycles++
	d.idleWork = anyWork
	if anyWork {
		d.stats.WorkCycles++
		if dispatched == 0 {
			d.stats.StallAllAny++
			d.idleStallAny = true
			strict := true
			weak := false
			for t := 0; t < d.threads; t++ {
				switch {
				case d.bufs[t].Len() == 0:
					strict = false
				case reasons[t] == blockNDI:
					weak = true
				default:
					strict = false
					weak = false
					t = d.threads // a non-NDI block disqualifies both
				}
			}
			if weak {
				d.stats.StallNDIWeak++
				d.idleStallWeak = true
			}
			if strict && weak {
				d.stats.StallAllNDI++
				d.idleStallStrict = true
			}
		}
	}
	d.stats.Dispatched += uint64(dispatched)
	// Finish the idle-replay capture: turn the entry snapshots into
	// per-cycle deltas.
	for t := range d.idleNDI {
		d.idleNDI[t] = d.stats.NDIBlockCycles[t] - d.idleNDI[t]
	}
	d.idlePiled = d.stats.PiledSampled - entryPiled
	d.idlePiledHDI = d.stats.PiledHDI - entryPiledHDI
	return dispatched
}

// tickEmpty is Run's all-buffers-empty cycle: identical observable
// effect to a full scan over empty buffers — the cycle count, the
// rotating scan origin, and an idle-replay capture of "no work, zero
// deltas" so a following ReplayIdle replays this cycle, not a stale one.
//
//smt:hotpath
func (d *Dispatcher) tickEmpty() {
	d.stats.Cycles++
	d.rr++
	if d.rr == d.threads {
		d.rr = 0
	}
	d.idleWork, d.idleStallAny, d.idleStallWeak, d.idleStallStrict = false, false, false, false
	for t := range d.idleNDI {
		d.idleNDI[t] = 0
	}
	d.idlePiled, d.idlePiledHDI = 0, 0
}

// ReplayIdle applies k further cycles' worth of the accounting the last
// Run recorded: the rotating scan origin and every per-cycle statistic
// advance exactly as k more Run calls would have. Valid only while the
// machine state feeding dispatch is unchanged since a zero-dispatch Run
// — the pipeline's dispatch freeze and quiescent-cycle fast-forward
// both guarantee it — under which every replayed cycle classifies and
// counts identically. Safe to call repeatedly (the deltas were captured
// at Run exit). (NDIDispatchDelayed and the taint marks are
// deliberately untouched: the executed cycle already applied them, and
// re-running would be idempotent.)
//
//smt:hotpath
func (d *Dispatcher) ReplayIdle(k int64) {
	ku := uint64(k)
	d.stats.Cycles += ku
	if d.idleWork {
		d.stats.WorkCycles += ku
	}
	if d.idleStallAny {
		d.stats.StallAllAny += ku
	}
	if d.idleStallWeak {
		d.stats.StallNDIWeak += ku
	}
	if d.idleStallStrict {
		d.stats.StallAllNDI += ku
	}
	for t := range d.stats.NDIBlockCycles {
		d.stats.NDIBlockCycles[t] += ku * d.idleNDI[t]
	}
	d.stats.PiledSampled += ku * d.idlePiled
	d.stats.PiledHDI += ku * d.idlePiledHDI
	d.rr = (d.rr + int(k%int64(d.threads))) % d.threads
}

// runThread dispatches from one thread's buffer within the remaining
// budget, returning how many instructions moved and, when zero, why.
//
//smt:hotpath
func (d *Dispatcher) runThread(cycle int64, t int, q *iq.Queue, r *rob.ROB, budget int) (int, blockReason) {
	if d.policy.OutOfOrder() {
		return d.runThreadOOO(cycle, t, q, r, budget)
	}
	return d.runThreadInOrder(cycle, t, q, r, budget)
}

//smt:hotpath
func (d *Dispatcher) runThreadInOrder(cycle int64, t int, q *iq.Queue, r *rob.ROB, budget int) (int, blockReason) {
	buf := &d.bufs[t]
	moved := 0
	reason := blockNone
	for moved < budget && buf.Len() > 0 {
		u := buf.At(0)
		nr := int(d.bank.NotReady[u.ID])
		if !q.ClassSupported(nr) {
			// Static NDI: no entry type in this queue has enough tag
			// comparators (the 2OP condition). The whole thread stalls
			// at dispatch until an operand becomes ready.
			d.markNDI(t, u)
			d.stats.NDIBlockCycles[t]++
			d.samplePiled(t)
			reason = blockNDI
			break
		}
		if d.atCap(t, q) {
			reason = blockIQFull
			break
		}
		if !q.CanAccept(nr) {
			if q.Free() == 0 {
				reason = blockIQFull
			} else {
				// Dynamic NDI: suitable entry types exist but all are
				// occupied (tag-elimination partitions hit this; the
				// paper's DI definition requires an *available*
				// appropriate entry).
				d.markNDI(t, u)
				d.stats.NDIBlockCycles[t]++
				reason = blockNDI
			}
			break
		}
		d.commitDispatch(cycle, t, u, nr, q, false)
		buf.RemoveAt(0)
		moved++
	}
	return moved, reason
}

//smt:hotpath
func (d *Dispatcher) runThreadOOO(cycle int64, t int, q *iq.Queue, r *rob.ROB, budget int) (int, blockReason) {
	buf := &d.bufs[t]
	moved := 0
	reason := blockNone

	// Per-cycle statistics: if the oldest undispatched instruction is an
	// NDI this cycle, record the block and sample the pile behind it.
	if int(d.bank.NotReady[buf.At(0).ID]) > 1 {
		d.stats.NDIBlockCycles[t]++
		d.samplePiled(t)
	}

	if d.atCap(t, q) {
		return 0, blockIQFull
	}

scan:
	for moved < budget && buf.Len() > 0 {
		idx := -1
		sawNDI := false
		var pick *uop.UOp
		pickNR := 0
		for j := 0; j < buf.Len(); j++ {
			u := buf.At(j)
			nr := int(d.bank.NotReady[u.ID])
			if !q.ClassSupported(nr) {
				// Static NDI (the 2OP condition): skip it; younger
				// dispatchable instructions may proceed out of order.
				d.markNDI(t, u)
				sawNDI = true
				continue
			}
			if d.filtered && d.dependsOnNDI(t, u) {
				// Idealized filter: withhold NDI-dependent HDIs. Their
				// destinations are tainted so transitive dependents are
				// withheld too.
				u.DepOnNDI = true
				if u.Dest.Valid() {
					d.taint[t].set(u.Dest)
				}
				continue
			}
			if !q.CanAccept(nr) {
				if q.Free() == 0 {
					// Queue completely full. Deadlock-avoidance path:
					// the ROB-oldest instruction may proceed to the DAB
					// (its sources are ready by definition).
					if d.useDAB && r.IsHead(u) && d.dab.CanInsert() {
						buf.RemoveAt(j)
						d.dispatchToDAB(cycle, t, u, sawNDI && j > 0)
						moved++
						continue scan
					}
					reason = blockIQFull
					break scan
				}
				// Dynamic NDI: u's entry class is exhausted but other
				// classes have room; a younger instruction with fewer
				// non-ready operands may still fit.
				d.markNDI(t, u)
				sawNDI = true
				continue
			}
			idx = j
			pick = u
			pickNR = nr
			break
		}
		if idx < 0 {
			// Everything buffered is an NDI (or filtered): the 2OP
			// condition blocks the thread even under OOOD.
			reason = blockNDI
			break
		}
		buf.RemoveAt(idx)
		d.commitDispatch(cycle, t, pick, pickNR, q, sawNDI && idx > 0)
		moved++
		if d.atCap(t, q) {
			reason = blockIQFull
			break
		}
	}
	return moved, reason
}

// markNDI records that u is blocked as an NDI this cycle and taints its
// destination so dependents can be recognized.
//
//smt:hotpath
func (d *Dispatcher) markNDI(t int, u *uop.UOp) {
	if !u.WasNDI {
		u.WasNDI = true
		d.stats.NDIDispatchDelayed++
	}
	if u.Dest.Valid() {
		d.taint[t].set(u.Dest)
	}
}

// samplePiled samples the instructions queued behind the thread's oldest
// NDI for the HDI-fraction statistic. Callers invoke it at most once per
// thread per cycle, when the buffer head is an NDI.
//
//smt:hotpath
func (d *Dispatcher) samplePiled(t int) {
	buf := &d.bufs[t]
	for j := 1; j < buf.Len(); j++ {
		d.stats.PiledSampled++
		if int(d.bank.NotReady[buf.At(j).ID]) <= 1 {
			d.stats.PiledHDI++
		}
	}
}

// dependsOnNDI reports whether any of u's sources is currently tainted —
// produced by a blocked NDI or by an instruction transitively dependent
// on one.
//
//smt:hotpath
func (d *Dispatcher) dependsOnNDI(t int, u *uop.UOp) bool {
	for _, s := range u.Srcs {
		if s.Valid() && d.taint[t].has(s) {
			return true
		}
	}
	return false
}

// commitDispatch finalizes a dispatch into the IQ.
//
//smt:hotpath
func (d *Dispatcher) commitDispatch(cycle int64, t int, u *uop.UOp, nonReady int, q *iq.Queue, outOfOrder bool) {
	u.DispatchedAt = cycle
	u.NonReadyAtDispatch = nonReady
	if u.Dest.Valid() {
		d.taint[t].clear(u.Dest) // no longer a blocked producer
	}
	if outOfOrder {
		u.WasHDI = true
		d.stats.HDIDispatched++
		if d.dependsOnNDI(t, u) {
			u.DepOnNDI = true
			d.stats.HDIDepOnNDI++
			if u.Dest.Valid() {
				d.taint[t].set(u.Dest)
			}
		}
	}
	q.Insert(u)
}

// dispatchToDAB finalizes a capture into the deadlock-avoidance buffer.
//
//smt:hotpath
func (d *Dispatcher) dispatchToDAB(cycle int64, t int, u *uop.UOp, outOfOrder bool) {
	u.DispatchedAt = cycle
	u.NonReadyAtDispatch = 0
	if u.Dest.Valid() {
		d.taint[t].clear(u.Dest)
	}
	if outOfOrder {
		u.WasHDI = true
		d.stats.HDIDispatched++
	}
	d.dab.Insert(u)
}

// OnComplete clears dependence taint for a finished producer: once the
// value exists, younger readers no longer "depend on an NDI" in the sense
// of the paper's statistic.
//
//smt:hotpath
func (d *Dispatcher) OnComplete(u *uop.UOp) {
	if u.Dest.Valid() {
		d.taint[u.Thread].clear(u.Dest)
	}
}

// DrainThread empties thread t's buffer and DAB slots, returning the
// drained instructions (watchdog flush path). Taint state is reset.
func (d *Dispatcher) DrainThread(t int) (buffered, dab []*uop.UOp) {
	buffered = d.bufs[t].DrainAll()
	dab = d.dab.DrainThread(t)
	d.taint[t].reset()
	return buffered, dab
}

// CheckInvariants verifies the dispatch stage's structural contracts:
// each thread's buffer holds renamed, undispatched instructions in
// strict program order, and the NDI/DI classification every buffered
// instruction would receive from its event-maintained not-ready counter
// agrees with a from-scratch recomputation against the register file
// (the Figure 2 taxonomy redone with fresh eyes each cycle). It returns
// an error describing the first violation.
func (d *Dispatcher) CheckInvariants(q *iq.Queue, rf *regfile.File) error {
	for t := range d.bufs {
		buf := &d.bufs[t]
		var prev uint64
		for j := 0; j < buf.Len(); j++ {
			u := buf.At(j)
			switch {
			case u.InIQ || u.InDAB:
				return fmt.Errorf("core: thread %d buffered gseq=%d already in IQ/DAB", t, u.GSeq)
			case u.Issued:
				return fmt.Errorf("core: thread %d buffered gseq=%d already issued", t, u.GSeq)
			case u.DispatchedAt != uop.NoCycle:
				return fmt.Errorf("core: thread %d buffered gseq=%d carries dispatch stamp %d", t, u.GSeq, u.DispatchedAt)
			case j > 0 && u.GSeq <= prev:
				return fmt.Errorf("core: thread %d buffer order broken at %d: gseq %d after %d", t, j, u.GSeq, prev)
			}
			prev = u.GSeq
			counter := int(d.bank.NotReady[u.ID])
			polled := u.NumSrcNotReady(rf)
			if counter != polled {
				return fmt.Errorf("core: thread %d buffered gseq=%d pc=%#x counter says %d non-ready, register file says %d",
					t, u.GSeq, u.Inst.PC, counter, polled)
			}
			if q.ClassSupported(counter) != q.ClassSupported(polled) {
				return fmt.Errorf("core: thread %d gseq=%d NDI classification diverges (counter %d, polled %d)",
					t, u.GSeq, counter, polled)
			}
		}
	}
	if got := d.dab.Len(); got > d.dab.Cap() {
		return fmt.Errorf("core: DAB holds %d entries over capacity %d", got, d.dab.Cap())
	}
	return nil
}

// SquashYoungerThan removes thread t's undispatched instructions younger
// than gseq from the dispatch buffer (selective-squash path) and clears
// their dependence taint. DAB occupants are never younger squash victims
// in practice — only the ROB-oldest instruction enters the DAB — but the
// caller still owns removing squashed instructions from the IQ/DAB by
// identity.
func (d *Dispatcher) SquashYoungerThan(t int, gseq uint64) []*uop.UOp {
	out := d.bufs[t].DrainYoungerThan(gseq)
	for _, u := range out {
		if u.Dest.Valid() {
			d.taint[t].clear(u.Dest)
		}
	}
	return out
}
