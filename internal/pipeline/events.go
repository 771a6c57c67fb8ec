package pipeline

import "math/bits"

// completion is a scheduled writeback event: at cycle `at`, the uop in
// bank slot `id` produces its result (destination becomes ready, the
// instruction commit-eligible). seq snapshots the uop's GSeq at schedule
// time; the pipeline recycles bank slots, so a completion whose seq no
// longer matches its slot's occupant belongs to a dead incarnation and
// is dropped by the writeback stage.
type completion struct {
	at  int64
	seq uint64
	id  int32
}

// eventWheel is a timing wheel of completions: slot `at & mask` holds
// the events due at cycle `at`. Execution latencies are bounded (the
// longest is a memory-miss load), so with the wheel sized past that
// bound each slot only ever holds events for one cycle at a time —
// schedule and popDue are O(1) appends and pops with no heap sifting.
// An out-of-bound latency (exotic hierarchy configuration) grows the
// wheel instead of corrupting it.
type eventWheel struct {
	slots [][]completion
	// occ is a slot-occupancy bitmap (bit s set iff slots[s] is
	// non-empty); nextDue scans it so the quiescent-cycle fast-forward
	// can find the next stimulus without walking empty slots.
	occ     []uint64
	mask    int64
	pending int
}

// defaultEventHorizon covers the default latency bound: the longest ISA
// op latency plus a full L2-miss memory access, with margin. Larger
// configured latencies are handled by growth on first use.
const defaultEventHorizon = 256

// slotCap is each wheel slot's pre-sized capacity: enough for the
// completions an 8-wide machine typically lands on one cycle, with
// headroom so steady-state bursts stay within the carve.
const slotCap = 8

// newEventWheel builds a wheel of at least `horizon` slots (rounded up
// to a power of two).
func newEventWheel(horizon int) eventWheel {
	n := 1
	for n < horizon {
		n <<= 1
	}
	slots := make([][]completion, n)
	// Pre-size each slot for a typical cycle's completions so the steady
	// state rarely grows a slot's backing array, carving all slots from
	// one flat allocation. A slot that does outgrow its carve appends
	// into a fresh array (the three-index cap prevents aliasing).
	backing := make([]completion, n*slotCap)
	for i := range slots {
		j := i * slotCap
		slots[i] = backing[j : j : j+slotCap]
	}
	return eventWheel{
		slots: slots,
		occ:   make([]uint64, (n+63)/64),
		mask:  int64(n - 1),
	}
}

// schedule enqueues a completion due at cycle `at` (now is the current
// cycle, needed to detect an out-of-horizon latency).
//
//smt:hotpath
func (w *eventWheel) schedule(now, at int64, seq uint64, id int32) {
	if at-now >= int64(len(w.slots)) {
		w.grow(at - now + 1) //smt:allow-alloc — one-time horizon growth for exotic latency configs
	}
	s := at & w.mask
	w.slots[s] = append(w.slots[s], completion{at: at, seq: seq, id: id})
	w.occ[s>>6] |= 1 << (uint(s) & 63)
	w.pending++
}

// grow re-buckets every pending completion into a wheel of at least
// `need` slots. Cold: it runs at most a handful of times per simulation,
// only when a configured latency exceeds the current horizon.
func (w *eventWheel) grow(need int64) {
	n := len(w.slots)
	for int64(n) <= need {
		n <<= 1
	}
	slots := make([][]completion, n)
	occ := make([]uint64, (n+63)/64)
	mask := int64(n - 1)
	backing := make([]completion, n*slotCap)
	for i := range slots {
		j := i * slotCap
		slots[i] = backing[j : j : j+slotCap]
	}
	for _, b := range w.slots {
		for _, c := range b {
			s := c.at & mask
			slots[s] = append(slots[s], c)
			occ[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	w.slots = slots
	w.occ = occ
	w.mask = mask
}

// popDue removes and returns one completion due at `cycle`, or ok=false
// when that cycle's slot is empty. Events within a cycle pop in reverse
// schedule order; end-of-writeback machine state does not depend on it
// (see DESIGN.md §8). Staleness (squash/recycle) is the caller's check —
// it owns the bank.
//
//smt:hotpath
func (w *eventWheel) popDue(cycle int64) (id int32, seq uint64, ok bool) {
	s := cycle & w.mask
	b := w.slots[s]
	n := len(b)
	if n == 0 {
		return 0, 0, false
	}
	c := b[n-1]
	w.slots[s] = b[:n-1]
	if n == 1 {
		w.occ[s>>6] &^= 1 << (uint(s) & 63)
	}
	w.pending--
	if c.at != cycle {
		panic("pipeline: event wheel slot collision (latency exceeds horizon)")
	}
	return c.id, c.seq, true
}

// hasDue reports in O(1) whether any completion is due at exactly
// `cycle` — the writeback stage's gating predicate: pending completions
// are never in the past (writeback drains each cycle's slot when that
// cycle executes), so the slot's occupancy bit is the answer.
//
//smt:hotpath
func (w *eventWheel) hasDue(cycle int64) bool {
	s := cycle & w.mask
	return w.occ[s>>6]>>(uint(s)&63)&1 != 0
}

// nextDue returns the due cycle of the earliest pending completion
// strictly after `cycle`, scanning the occupancy bitmap circularly from
// the next slot. Every pending completion is due within (cycle,
// cycle+len(slots)] — slots strictly in the past are impossible because
// the writeback stage drains each cycle's slot when that cycle executes
// (the fast-forward never skips past a due event for the same reason) —
// so the slot distance is the cycle distance.
//
//smt:hotpath
func (w *eventWheel) nextDue(cycle int64) (int64, bool) {
	if w.pending == 0 {
		return 0, false
	}
	start := (cycle + 1) & w.mask
	wi := int(start >> 6)
	off := uint(start) & 63
	if m := w.occ[wi] &^ ((1 << off) - 1); m != 0 {
		s := int64(wi<<6 + bits.TrailingZeros64(m))
		return cycle + 1 + ((s - start) & w.mask), true
	}
	nw := len(w.occ)
	for j := 1; j <= nw; j++ {
		i := wi + j
		if i >= nw {
			i -= nw
		}
		m := w.occ[i]
		if i == wi {
			m &= (1 << off) - 1 // wrapped: only slots before start remain
		}
		if m != 0 {
			s := int64(i<<6 + bits.TrailingZeros64(m))
			return cycle + 1 + ((s - start) & w.mask), true
		}
	}
	return 0, false // unreachable: pending > 0 implies an occupied slot
}

// Len returns the number of pending completions.
func (w *eventWheel) Len() int { return w.pending }
