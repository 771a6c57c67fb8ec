// Package regfile models the shared physical register files of the SMT
// machine: 256 integer and 256 floating-point registers (Table 1), each
// with a free list and a per-register ready bit. All threads allocate from
// the same pools, which is one of the SMT resource-sharing points the
// paper's dispatch policies interact with.
//
// The wakeup CAM is a per-register consumer *bitmap* over dense uop ids
// (ROB-slot identities): Watch sets a bit, SetReady walks the set bits
// with bits.TrailingZeros64 and decrements the bank's not-ready counters
// directly. Compared to the per-register []watcher lists this replaces,
// a broadcast touches a handful of words, allocates nothing, and carries
// no interface dispatch or GC write barriers.
package regfile

import (
	"fmt"
	"math/bits"

	"smtsim/internal/isa"
)

// PhysRef names one physical register: a class and an index within that
// class's file. The zero value is not valid; use NoPhys for "absent".
type PhysRef struct {
	Class isa.RegClass
	Index int16
}

// NoPhys is the absent-register sentinel.
var NoPhys = PhysRef{Index: -1}

// Valid reports whether the reference names a real physical register.
func (p PhysRef) Valid() bool { return p.Index >= 0 }

// String formats as "p17i" or "p3f", or "-" if absent.
func (p PhysRef) String() string {
	if !p.Valid() {
		return "-"
	}
	suffix := "i"
	if p.Class == isa.FpReg {
		suffix = "f"
	}
	return fmt.Sprintf("p%d%s", p.Index, suffix)
}

// file is one class's physical register file.
type file struct {
	ready     []bool
	free      []int16 // stack of free indices
	allocated []bool
	// cons and dup are the wakeup CAM: per register, `words` uint64s of
	// consumer-id bits, stored flat (register r owns cons[r*words :
	// (r+1)*words]). A set cons bit means that uop id has one pending
	// source on this register; the matching dup bit means it has two
	// (both renamed sources mapped to the same physical register), so a
	// broadcast owes it two decrements. Nil until AttachWakeup.
	cons []uint64
	dup  []uint64
	// watchLo/watchHi bound, per register, the word range of cons that can
	// hold set bits: Watch widens the range, SetReady and Free walk only
	// [lo, hi] and reset it to empty (lo = words, hi = -1). Unwatch leaves
	// the range stale-wide, which is safe — the walk just revisits zero
	// words. A register's watchers are the still-renamed consumers of one
	// thread, whose dense ids live in a contiguous ROB-slot window, so the
	// bounded walk touches a few words where the full walk touches words
	// (bankCap/64) of mostly zeroes.
	watchLo []int16
	watchHi []int16
}

// File is the pair of physical register files with free lists and ready
// bits. It is not safe for concurrent use; the simulator is single-
// threaded per core by design (cycle-accurate state machines do not shard).
type File struct {
	files [isa.NumRegClasses]file

	// Wakeup sink, installed by AttachWakeup: SetReady decrements
	// notReady[id] per pending watch and calls onZero when the counter
	// hits zero. words is the per-register bitmap width in uint64s.
	notReady []int8
	onZero   func(id int32)
	words    int
}

// New builds register files with the given number of registers per class.
func New(intRegs, fpRegs int) *File {
	f := &File{}
	sizes := [isa.NumRegClasses]int{intRegs, fpRegs}
	for c := range f.files {
		n := sizes[c]
		f.files[c] = file{
			ready:     make([]bool, n),
			free:      make([]int16, 0, n),
			allocated: make([]bool, n),
		}
		// Free list as a stack, highest index first so low indices serve
		// the initial architectural mappings.
		for i := n - 1; i >= 0; i-- {
			f.files[c].free = append(f.files[c].free, int16(i))
		}
	}
	return f
}

// AttachWakeup sizes the consumer bitmaps for uop ids 0..bankCap-1 and
// installs the broadcast sink: notReady is the uop bank's not-ready
// counter column, and onZero fires (from inside SetReady) for each
// watched id whose counter reaches zero. Must be called before Watch;
// the pipeline calls it once at construction.
func (f *File) AttachWakeup(bankCap int, notReady []int8, onZero func(id int32)) {
	if bankCap <= 0 {
		panic("regfile: wakeup bank size must be positive")
	}
	f.words = (bankCap + 63) / 64
	f.notReady = notReady
	f.onZero = onZero
	for c := range f.files {
		fl := &f.files[c]
		fl.cons = make([]uint64, len(fl.ready)*f.words)
		fl.dup = make([]uint64, len(fl.ready)*f.words)
		fl.watchLo = make([]int16, len(fl.ready))
		fl.watchHi = make([]int16, len(fl.ready))
		for i := range fl.watchLo {
			fl.watchLo[i] = int16(f.words)
			fl.watchHi[i] = -1
		}
	}
}

// Size returns the number of physical registers in a class.
func (f *File) Size(c isa.RegClass) int { return len(f.files[c].ready) }

// FreeCount returns the number of unallocated registers in a class.
func (f *File) FreeCount(c isa.RegClass) int { return len(f.files[c].free) }

// CanAlloc reports whether at least n registers of class c are free.
//
//smt:hotpath
func (f *File) CanAlloc(c isa.RegClass, n int) bool { return len(f.files[c].free) >= n }

// Alloc takes a register from the free list. The register starts
// not-ready. It panics if the pool is exhausted — callers must gate
// renaming on CanAlloc, so exhaustion here is a simulator bug.
//
//smt:hotpath
func (f *File) Alloc(c isa.RegClass) PhysRef {
	fl := &f.files[c]
	if len(fl.free) == 0 {
		panic(fmt.Sprintf("regfile: %s pool exhausted", c))
	}
	idx := fl.free[len(fl.free)-1]
	fl.free = fl.free[:len(fl.free)-1]
	fl.ready[idx] = false
	fl.allocated[idx] = true
	return PhysRef{Class: c, Index: idx}
}

// AllocReady allocates a register already in the ready state, used for
// the initial architectural mappings.
func (f *File) AllocReady(c isa.RegClass) PhysRef {
	p := f.Alloc(c)
	f.files[c].ready[p.Index] = true
	return p
}

// Free returns a register to its pool. Double frees panic: free-list
// conservation is a core simulator invariant (tested by property tests).
//
//smt:hotpath
func (f *File) Free(p PhysRef) {
	if !p.Valid() {
		return
	}
	fl := &f.files[p.Class]
	if !fl.allocated[p.Index] {
		panic(fmt.Sprintf("regfile: double free of %s", p))
	}
	fl.allocated[p.Index] = false
	fl.ready[p.Index] = false
	fl.free = append(fl.free, p.Index)
	// Drop pending watches without notifying: a freed register's value
	// will never be produced, and its watchers have been squashed along
	// with the in-flight instructions that registered them.
	if f.words != 0 {
		base := int(p.Index) * f.words
		if lo, hi := int(fl.watchLo[p.Index]), int(fl.watchHi[p.Index]); hi >= lo {
			cons := fl.cons[base+lo : base+hi+1]
			dup := fl.dup[base+lo : base+hi+1]
			dup = dup[:len(cons)]
			for w := range cons {
				cons[w] = 0
				dup[w] = 0
			}
			fl.watchLo[p.Index] = int16(f.words)
			fl.watchHi[p.Index] = -1
		}
	}
}

// Watch registers uop id for a wakeup decrement when p becomes ready,
// and reports whether a registration was made: an absent or already-
// ready register registers nothing (the caller observes its readiness
// directly). A second Watch of the same (p, id) pair — a uop whose two
// sources renamed to the same physical register — records a duplicate
// bit, so the broadcast still owes that uop two decrements, matching
// what per-source polling counts.
//
//smt:hotpath
func (f *File) Watch(p PhysRef, id int32) bool {
	if !p.Valid() {
		return false
	}
	fl := &f.files[p.Class]
	if fl.ready[p.Index] {
		return false
	}
	wo := int16(id >> 6)
	w := int(p.Index)*f.words + int(wo)
	bit := uint64(1) << (uint(id) & 63)
	if fl.cons[w]&bit != 0 {
		fl.dup[w] |= bit
	} else {
		fl.cons[w] |= bit
	}
	if wo < fl.watchLo[p.Index] {
		fl.watchLo[p.Index] = wo
	}
	if wo > fl.watchHi[p.Index] {
		fl.watchHi[p.Index] = wo
	}
	return true
}

// Unwatch drops any pending registrations of id on p (both the primary
// and the duplicate bit). Squash paths call it for each still-pending
// source of an annulled uop so the id's bank slot can be recycled
// without a later broadcast decrementing the new occupant.
func (f *File) Unwatch(p PhysRef, id int32) {
	if !p.Valid() || f.words == 0 {
		return
	}
	fl := &f.files[p.Class]
	w := int(p.Index)*f.words + int(id>>6)
	bit := uint64(1) << (uint(id) & 63)
	fl.cons[w] &^= bit
	fl.dup[w] &^= bit
}

// Watchers returns the number of pending wakeup registrations on p (for
// tests and invariant checks). Duplicate registrations count twice,
// matching the decrements a broadcast will perform.
func (f *File) Watchers(p PhysRef) int {
	if !p.Valid() || f.words == 0 {
		return 0
	}
	fl := &f.files[p.Class]
	base := int(p.Index) * f.words
	n := 0
	for w := base; w < base+f.words; w++ {
		n += bits.OnesCount64(fl.cons[w]) + bits.OnesCount64(fl.dup[w])
	}
	return n
}

// Ready reports whether the register's value has been produced.
//
//smt:hotpath
func (f *File) Ready(p PhysRef) bool {
	if !p.Valid() {
		return true // absent operands are trivially ready
	}
	return f.files[p.Class].ready[p.Index]
}

// SetReady marks the register's value as produced (writeback/wakeup) and
// broadcasts to the register's consumer bitmap: every watched uop id has
// its not-ready counter decremented (twice for duplicate registrations),
// onZero fires for each id whose counter reaches zero, and the bitmap is
// cleared. This is the event-driven tag broadcast — consumers are told
// the operand exists instead of polling Ready every cycle. Wakeup order
// within a broadcast is ascending id; end-of-broadcast state does not
// depend on it (counters are sums and the issue queue's ready list is
// kept age-sorted on insert).
//
//smt:hotpath
func (f *File) SetReady(p PhysRef) {
	if !p.Valid() {
		return
	}
	fl := &f.files[p.Class]
	fl.ready[p.Index] = true
	if f.words == 0 {
		return
	}
	base := int(p.Index) * f.words
	lo, hi := int(fl.watchLo[p.Index]), int(fl.watchHi[p.Index])
	if hi < lo {
		return // empty watch range; lo/hi are already the reset state
	}
	fl.watchLo[p.Index] = int16(f.words)
	fl.watchHi[p.Index] = -1
	// One subslice per bitmap bounds the walk so the word loop indexes
	// check-free (dup re-sliced to cons's length for the same reason).
	cons := fl.cons[base+lo : base+hi+1]
	dup := fl.dup[base+lo : base+hi+1]
	dup = dup[:len(cons)]
	nr := f.notReady
	for w, m := range cons {
		if m == 0 {
			continue
		}
		d := dup[w]
		cons[w] = 0
		dup[w] = 0
		idBase := int32(lo+w) << 6
		for m != 0 {
			b := uint(bits.TrailingZeros64(m))
			m &^= 1 << b
			id := idBase + int32(b)
			dec := int8(1) + int8((d>>b)&1)
			nr[id] -= dec
			if nr[id] == 0 {
				f.onZero(id)
			}
		}
	}
}

// ClearReady marks the register not-ready again (used only by rollback
// paths in tests; normal execution sets ready exactly once per
// allocation). The consumer bitmap is empty at this point — SetReady
// cleared it — so consumers that still need the value must re-register
// with Watch, which is how a rollback re-arms the wakeup.
func (f *File) ClearReady(p PhysRef) {
	if !p.Valid() {
		return
	}
	f.files[p.Class].ready[p.Index] = false
}

// Allocated reports whether the register is currently allocated.
//
//smt:hotpath
func (f *File) Allocated(p PhysRef) bool {
	if !p.Valid() {
		return false
	}
	return f.files[p.Class].allocated[p.Index]
}

// VisitWatchers calls fn for every pending wakeup registration across
// both register classes, once per registration (so a duplicate-bit id is
// visited twice). Invariant checkers use it to cross-check the consumer
// bitmaps against the bank's not-ready counters; fn must not call Watch,
// Free, or SetReady.
func (f *File) VisitWatchers(fn func(p PhysRef, id int32)) {
	if f.words == 0 {
		return
	}
	for cls := range f.files {
		fl := &f.files[cls]
		for idx := 0; idx < len(fl.ready); idx++ {
			p := PhysRef{Class: isa.RegClass(cls), Index: int16(idx)}
			base := idx * f.words
			for w := 0; w < f.words; w++ {
				m := fl.cons[base+w]
				d := fl.dup[base+w]
				idBase := int32(w) << 6
				for m != 0 {
					b := uint(bits.TrailingZeros64(m))
					m &^= 1 << b
					id := idBase + int32(b)
					fn(p, id)
					if (d>>b)&1 != 0 {
						fn(p, id)
					}
				}
			}
		}
	}
}

// CheckInvariants verifies the register file's internal contracts: the
// free list holds each unallocated register exactly once and no
// allocated one; free registers are not marked ready; no consumer bit
// survives on a register whose value already exists (SetReady clears the
// bitmap, Watch declines ready registers, Free clears); and every
// duplicate bit shadows a primary bit. It returns an error describing
// the first violation.
func (f *File) CheckInvariants() error {
	for cls := range f.files {
		fl := &f.files[cls]
		onFree := make([]bool, len(fl.ready))
		for _, idx := range fl.free {
			if int(idx) < 0 || int(idx) >= len(fl.ready) {
				return fmt.Errorf("regfile: free list holds out-of-range index %d (%s)", idx, isa.RegClass(cls))
			}
			if onFree[idx] {
				return fmt.Errorf("regfile: p%d%s appears twice on the free list", idx, isa.RegClass(cls))
			}
			onFree[idx] = true
			if fl.allocated[idx] {
				return fmt.Errorf("regfile: p%d%s is on the free list while allocated", idx, isa.RegClass(cls))
			}
		}
		for idx := range fl.ready {
			if !fl.allocated[idx] && !onFree[idx] {
				return fmt.Errorf("regfile: p%d%s leaked: neither allocated nor free", idx, isa.RegClass(cls))
			}
			if !fl.allocated[idx] && fl.ready[idx] {
				return fmt.Errorf("regfile: free register p%d%s marked ready", idx, isa.RegClass(cls))
			}
			p := PhysRef{Class: isa.RegClass(cls), Index: int16(idx)}
			if fl.ready[idx] && f.Watchers(p) > 0 {
				return fmt.Errorf("regfile: ready register p%d%s still has %d watchers", idx, isa.RegClass(cls), f.Watchers(p))
			}
			if f.words != 0 {
				base := idx * f.words
				for w := 0; w < f.words; w++ {
					if orphan := fl.dup[base+w] &^ fl.cons[base+w]; orphan != 0 {
						return fmt.Errorf("regfile: p%d%s has duplicate watch bit without primary (word %d, bits %#x)",
							idx, isa.RegClass(cls), w, orphan)
					}
				}
			}
		}
	}
	return nil
}
