// Package iq implements the shared issue queue (scheduler) of the SMT
// machine: a bounded pool of entries holding dispatched instructions
// until their source operands are ready and a functional unit accepts
// them, with oldest-first selection up to the issue width.
//
// Entries are typed by their tag-comparator count. The paper's designs
// are uniform queues — two comparators per entry (traditional) or one
// (the 2OP designs) — but the queue also supports mixed partitions in
// the style of Ernst & Austin's tag elimination ([5] in the paper):
// some entries with two comparators, some with one, some with none. An
// instruction with n non-ready sources needs an entry with at least n
// comparators; Insert allocates the smallest sufficient class so scarce
// big entries stay available.
//
// Behaviour inside the queue is identical across entry types; the
// designs differ in what the dispatch stage may send (package core).
//
// The queue stores dense uop ids, not pointers: entry and ready-list
// state is a few flat int32/struct arrays over the core's uop bank, so
// the steady-state select loop walks contiguous memory.
package iq

import (
	"fmt"

	"smtsim/internal/regfile"
	"smtsim/internal/uop"
)

// NumClasses is the number of comparator classes (0, 1, and 2).
const NumClasses = 3

// Partition sets the number of entries per comparator class:
// Partition[k] entries can hold instructions with up to k non-ready
// source operands.
type Partition [NumClasses]int

// Total returns the queue capacity the partition implies.
func (p Partition) Total() int { return p[0] + p[1] + p[2] }

// Uniform returns a partition with all capacity in one class.
func Uniform(capacity, comparators int) Partition {
	var p Partition
	p[comparators] = capacity
	return p
}

// readyEnt is one ready-list element: the uop's age, id, and thread,
// denormalized so selection and the thread-rotate pass never touch the
// bank.
type readyEnt struct {
	seq    uint64
	id     int32
	thread int32
}

// Queue is the shared issue queue.
//
// Wakeup mirrors a hardware tag-broadcast CAM: each entry's not-ready
// operand counter lives in the uop bank and is maintained by the
// register file's consumer bitmaps, and entries whose counter hits zero
// move onto an age-ordered ready list at broadcast time, so selection
// pops from an already-sorted list and never rescans the queue. Callers
// must set the bank's NotReady counter before Insert (the pipeline does
// this at rename via regfile.Watch) and route zero-crossing broadcasts
// to UOpReady.
type Queue struct {
	bank      *uop.Bank
	part      Partition
	used      [NumClasses]int
	entries   []int32 // uop ids, slot order mirrored in UOp.IQSlot
	perThread []int

	// maxClass is the largest comparator count any entry has (precomputed
	// from the partition so the per-uop NDI classification is a single
	// compare, not a class scan).
	maxClass int

	// ready is the incrementally maintained ready list, ascending by seq
	// (oldest first).
	ready []readyEnt

	// Statistics. Once occNow is bound to the caller's cycle counter
	// (BindCycleCounter), the occupancy statistic is integrated in O(1)
	// per mutation: occupancy is piecewise constant between queue
	// mutations, so every mutation first settles the elapsed span at the
	// old occupancy (settle), and nothing at all runs on cycles that
	// leave the queue untouched. The integral equals a per-cycle sum of
	// end-of-cycle occupancies.
	Inserts      uint64
	occupancySum uint64
	samples      uint64
	occNow       *int64
	occSettled   int64
}

// New builds a uniform queue over the core's uop bank with the given
// number of entries, each with maxNonReady tag comparators: 2 for the
// traditional scheduler, 1 for the 2OP designs.
func New(bank *uop.Bank, capacity, maxNonReady, threads int) *Queue {
	if capacity <= 0 {
		panic("iq: capacity must be positive")
	}
	if maxNonReady < 0 || maxNonReady >= NumClasses {
		panic("iq: maxNonReady must be 0..2")
	}
	return NewPartitioned(bank, Uniform(capacity, maxNonReady), threads)
}

// NewPartitioned builds a queue with typed entries.
func NewPartitioned(bank *uop.Bank, part Partition, threads int) *Queue {
	if part.Total() <= 0 {
		panic("iq: empty partition")
	}
	for _, n := range part {
		if n < 0 {
			panic("iq: negative partition class")
		}
	}
	maxClass := 0
	for k := NumClasses - 1; k >= 0; k-- {
		if part[k] > 0 {
			maxClass = k
			break
		}
	}
	return &Queue{
		bank:      bank,
		part:      part,
		entries:   make([]int32, 0, part.Total()),
		perThread: make([]int, threads),
		maxClass:  maxClass,
	}
}

// Cap returns the total number of entries.
func (q *Queue) Cap() int { return q.part.Total() }

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.entries) }

// Free returns the total number of unoccupied entries of any class.
func (q *Queue) Free() int { return q.Cap() - len(q.entries) }

// Partition returns the entry-type configuration.
func (q *Queue) Partition() Partition { return q.part }

// MaxNonReady returns the largest comparator count any entry has.
func (q *Queue) MaxNonReady() int { return q.maxClass }

// ClassSupported reports whether the queue has any entries (occupied or
// not) with at least n comparators: an instruction with n non-ready
// sources can never dispatch into a queue that does not support its
// class — the static NDI condition of the 2OP designs.
//
//smt:hotpath
func (q *Queue) ClassSupported(n int) bool { return n <= q.maxClass }

// CanAccept reports whether a free entry with at least n comparators
// exists right now — the paper's Dispatchable Instruction condition
// ("an appropriate IQ entry is also available").
//
//smt:hotpath
func (q *Queue) CanAccept(n int) bool {
	if n < 0 {
		n = 0
	}
	for k := n; k < NumClasses; k++ {
		if q.used[k] < q.part[k] {
			return true
		}
	}
	return false
}

// ClassUsed returns the occupancy of one comparator class (for tests).
func (q *Queue) ClassUsed(k int) int { return q.used[k] }

// ThreadCount returns the occupancy attributed to thread t (feeds the
// ICOUNT fetch policy).
//
//smt:hotpath
func (q *Queue) ThreadCount(t int) int { return q.perThread[t] }

// Insert places a dispatched instruction into the smallest free entry
// class that fits its current non-ready source count (its bank NotReady
// counter); an instruction with none joins the ready list at once. It
// panics if no suitable entry is available — the dispatch policies gate
// on CanAccept, so a violation is a policy bug (hunted by the property
// tests).
//
//smt:hotpath
func (q *Queue) Insert(u *uop.UOp) {
	q.settle()
	n := int(q.bank.NotReady[u.ID])
	for k := n; k < NumClasses; k++ {
		if q.used[k] < q.part[k] {
			q.used[k]++
			u.IQClass = int8(k)
			u.InIQ = true
			u.IQSlot = int32(len(q.entries))
			q.entries = append(q.entries, u.ID)
			q.perThread[u.Thread]++
			q.Inserts++
			if n == 0 {
				q.wake(u)
			}
			return
		}
	}
	panic(fmt.Sprintf("iq: thread %d inst %#x has %d non-ready sources and no suitable free entry",
		u.Thread, u.Inst.PC, n))
}

// Remove extracts u from the queue (at issue or squash) in O(1) via the
// back-index stored on the UOp at Insert.
//
//smt:hotpath
//smt:trusted-id — q.entries holds only resident ids: Insert adds, Remove/DrainThread delete, so the moved entry is live
func (q *Queue) Remove(u *uop.UOp) {
	q.settle()
	i := int(u.IQSlot)
	if !u.InIQ || i >= len(q.entries) || q.entries[i] != u.ID {
		panic("iq: remove of absent entry")
	}
	last := len(q.entries) - 1
	moved := q.entries[last]
	q.entries[i] = moved
	q.bank.Get(moved).IQSlot = int32(i)
	q.entries = q.entries[:last]
	q.perThread[u.Thread]--
	q.used[u.IQClass]--
	q.detach(u)
}

// detach clears u's queue-membership state, dropping it from the ready
// list if present.
//
//smt:hotpath
func (q *Queue) detach(u *uop.UOp) {
	u.InIQ = false
	if u.InReady {
		q.dropReady(u)
	}
}

// UOpReady is the wakeup sink: u's last outstanding source operand was
// just produced (tag broadcast). If u occupies a queue entry, it joins
// the ready list at its age-ordered position; broadcasts for uops still
// in dispatch buffers are ignored here (the dispatch stage reads the
// bank counter directly).
//
//smt:hotpath
func (q *Queue) UOpReady(u *uop.UOp) {
	if !u.InIQ || u.InReady {
		return
	}
	q.wake(u)
}

// wake inserts u into the ready list, keeping it ascending by GSeq — the
// incremental equivalent of sorting the ready entries by age. The list
// is small (bounded by the issue-ready set, not the queue), so a binary
// search plus a memmove beats re-sorting every cycle.
//
//smt:hotpath
func (q *Queue) wake(u *uop.UOp) {
	lo, hi := 0, len(q.ready)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.ready[mid].seq < u.GSeq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.ready = append(q.ready, readyEnt{})
	copy(q.ready[lo+1:], q.ready[lo:])
	q.ready[lo] = readyEnt{seq: u.GSeq, id: u.ID, thread: int32(u.Thread)}
	u.InReady = true
}

// dropReady removes u from the ready list (issue or squash).
//
//smt:hotpath
func (q *Queue) dropReady(u *uop.UOp) {
	lo, hi := 0, len(q.ready)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.ready[mid].seq < u.GSeq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(q.ready) || q.ready[lo].id != u.ID {
		panic("iq: ready-list entry missing")
	}
	copy(q.ready[lo:], q.ready[lo+1:])
	q.ready = q.ready[:len(q.ready)-1]
	u.InReady = false
}

// SelectPolicy orders the ready instructions competing for issue slots.
type SelectPolicy uint8

const (
	// OldestFirst issues by global age, the conventional heuristic and
	// the paper's select policy.
	OldestFirst SelectPolicy = iota
	// ThreadRotate rotates which thread's instructions get priority each
	// cycle (age-ordered within a thread) — a cheap position-style
	// arbiter in the spirit of the partitioned issue of related work.
	ThreadRotate
)

// String names the policy.
func (p SelectPolicy) String() string {
	if p == ThreadRotate {
		return "thread-rotate"
	}
	return "oldest-first"
}

// ReadyOldestFirst returns the ids of instructions whose sources are all
// ready, sorted oldest-first by global rename order — the default select
// policy. The returned slice is valid until the next call.
//
//smt:hotpath
func (q *Queue) ReadyOldestFirst(scratch []int32) []int32 {
	return q.ReadyOrdered(scratch, OldestFirst, 0)
}

// ReadyOrdered returns the ready instructions' ids in the order the
// given select policy would grant them issue slots; tick (typically the
// cycle number) seeds rotating policies. The ids are written into
// scratch so the caller may issue (and Remove) while iterating.
//
//smt:hotpath
func (q *Queue) ReadyOrdered(scratch []int32, pol SelectPolicy, tick int64) []int32 {
	out := scratch[:0]
	if pol == ThreadRotate && len(q.perThread) > 1 {
		// Threads visited in rotating sequence from this tick's first
		// thread, age order within each — a stable bucket pass over the
		// (small) age-sorted ready list, equivalent to sorting by
		// (rotated thread index, GSeq).
		n := len(q.perThread)
		first := int(tick % int64(n))
		for k := 0; k < n; k++ {
			t := int32((first + k) % n)
			for _, e := range q.ready {
				if e.thread == t {
					out = append(out, e.id)
				}
			}
		}
		return out
	}
	for _, e := range q.ready {
		out = append(out, e.id)
	}
	return out
}

// DrainThread removes and returns every entry belonging to thread t
// (watchdog flush path).
//
//smt:trusted-id — scans q.entries, which holds only resident ids
func (q *Queue) DrainThread(t int) []*uop.UOp {
	q.settle()
	var out []*uop.UOp
	kept := q.entries[:0]
	for _, id := range q.entries {
		u := q.bank.Get(id)
		if u.Thread == t {
			q.used[u.IQClass]--
			q.detach(u)
			out = append(out, u)
		} else {
			u.IQSlot = int32(len(kept))
			kept = append(kept, id)
		}
	}
	q.entries = kept
	q.perThread[t] = 0
	return out
}

// BindCycleCounter turns on the occupancy statistic, integrated
// incrementally against the caller's cycle counter: every queue mutation
// settles the span since the last one at the then-current occupancy, so
// no per-cycle sampling call is needed. now must outlive the queue and
// advance monotonically. Call before the first cycle; an unbound queue
// records no occupancy.
func (q *Queue) BindCycleCounter(now *int64) {
	if len(q.entries) > 0 {
		panic("iq: cannot bind a cycle counter with entries in flight")
	}
	q.occNow = now
	q.occSettled = *now
}

// settle integrates the occupancy statistic through the end of the cycle
// before the current one; callers invoke it before any mutation of the
// entry set, while the occupancy still reflects every fully elapsed
// cycle. No-op for an unbound queue.
//
//smt:hotpath
func (q *Queue) settle() {
	if q.occNow != nil {
		q.settleTo(*q.occNow - 1)
	}
}

// settleTo integrates the occupancy statistic through the end of cycle c
// at the current occupancy.
//
//smt:hotpath
func (q *Queue) settleTo(c int64) {
	if c > q.occSettled {
		q.occupancySum += uint64(c-q.occSettled) * uint64(len(q.entries))
		q.samples += uint64(c - q.occSettled)
		q.occSettled = c
	}
}

// ResetStats clears the statistics without touching queue contents, for
// measurement after a warmup period. A bound queue's integration
// restarts at the current cycle — the caller resets at the
// end of a cycle, whose observation belongs to the warmup period.
func (q *Queue) ResetStats() {
	q.Inserts, q.occupancySum, q.samples = 0, 0, 0
	if q.occNow != nil {
		q.occSettled = *q.occNow
	}
}

// MeanOccupancy returns the average per-cycle end-of-cycle occupancy
// since binding (or the last ResetStats), settled through the current
// cycle first — callers read results at cycle boundaries. An unbound
// queue reports 0.
func (q *Queue) MeanOccupancy() float64 {
	if q.occNow != nil {
		q.settleTo(*q.occNow)
	}
	if q.samples == 0 {
		return 0
	}
	return float64(q.occupancySum) / float64(q.samples)
}

// ForEach visits all entries in arbitrary order.
//
//smt:trusted-id — scans q.entries, which holds only resident ids
func (q *Queue) ForEach(fn func(*uop.UOp)) {
	for _, id := range q.entries {
		fn(q.bank.Get(id))
	}
}

// ReadyLen returns the current ready-list length.
func (q *Queue) ReadyLen() int { return len(q.ready) }

// CheckInvariants verifies the queue's structural contracts against the
// register file: occupancy accounting (per-class and per-thread counts
// match the entries), back-index integrity, entry-class sufficiency
// (every resident sits in an entry with enough tag comparators for its
// current non-ready source count), that every entry's bank not-ready
// counter matches a from-scratch register-file poll, and that the
// incremental ready list is exactly the age-sorted set of entries whose
// counters reached zero. Returns an error describing the first
// violation.
//
//smt:trusted-id — invariant sweep over q.entries and q.ready; residency itself is what it verifies
func (q *Queue) CheckInvariants(rf *regfile.File) error {
	var used [NumClasses]int
	perThread := make([]int, len(q.perThread))
	for i, id := range q.entries {
		u := q.bank.Get(id)
		if !u.InIQ {
			return fmt.Errorf("iq: entry gseq=%d pc=%#x at slot %d has InIQ unset", u.GSeq, u.Inst.PC, i)
		}
		if int(u.IQSlot) != i {
			return fmt.Errorf("iq: entry gseq=%d back-index %d, actual slot %d", u.GSeq, u.IQSlot, i)
		}
		if u.IQClass < 0 || int(u.IQClass) >= NumClasses {
			return fmt.Errorf("iq: entry gseq=%d has comparator class %d", u.GSeq, u.IQClass)
		}
		used[u.IQClass]++
		if u.Thread < 0 || u.Thread >= len(perThread) {
			return fmt.Errorf("iq: entry gseq=%d names thread %d of %d", u.GSeq, u.Thread, len(perThread))
		}
		perThread[u.Thread]++
		polled := u.NumSrcNotReady(rf)
		if polled > int(u.IQClass) {
			return fmt.Errorf("iq: entry gseq=%d has %d non-ready sources in a %d-comparator entry",
				u.GSeq, polled, u.IQClass)
		}
		counter := q.bank.NotReady[u.ID]
		if int(counter) != polled {
			return fmt.Errorf("iq: entry gseq=%d pc=%#x counter says %d non-ready, register file says %d",
				u.GSeq, u.Inst.PC, counter, polled)
		}
		if counter == 0 && !u.InReady {
			return fmt.Errorf("iq: entry gseq=%d is ready but missing from the ready list", u.GSeq)
		}
		if counter > 0 && u.InReady {
			return fmt.Errorf("iq: entry gseq=%d on the ready list with %d pending sources", u.GSeq, counter)
		}
	}
	for k := 0; k < NumClasses; k++ {
		if used[k] != q.used[k] {
			return fmt.Errorf("iq: class-%d occupancy count %d, actual %d", k, q.used[k], used[k])
		}
		if used[k] > q.part[k] {
			return fmt.Errorf("iq: class-%d occupancy %d exceeds partition %d", k, used[k], q.part[k])
		}
	}
	for t := range perThread {
		if perThread[t] != q.perThread[t] {
			return fmt.Errorf("iq: thread %d occupancy count %d, actual %d", t, q.perThread[t], perThread[t])
		}
	}
	for i, e := range q.ready {
		u := q.bank.Get(e.id)
		if !u.InIQ || !u.InReady {
			return fmt.Errorf("iq: ready list holds gseq=%d with InIQ=%t InReady=%t", e.seq, u.InIQ, u.InReady)
		}
		if u.GSeq != e.seq || int32(u.Thread) != e.thread {
			return fmt.Errorf("iq: ready list entry %d denormalized as (seq=%d thread=%d), uop says (seq=%d thread=%d)",
				i, e.seq, e.thread, u.GSeq, u.Thread)
		}
		if i > 0 && q.ready[i-1].seq >= e.seq {
			return fmt.Errorf("iq: ready list out of age order at %d (gseq %d >= %d)",
				i, q.ready[i-1].seq, e.seq)
		}
	}
	return nil
}
