// Package uop defines the in-flight micro-operation record shared by the
// rename, dispatch, issue-queue, ROB, and LSQ models, and the Bank — the
// structure-of-arrays slab that owns every record. A UOp wraps one
// dynamic instruction from the trace with its renamed operands and the
// timestamps the metrics package aggregates.
package uop

import (
	"smtsim/internal/isa"
	"smtsim/internal/regfile"
)

// NoCycle marks a timestamp that has not happened yet.
const NoCycle int64 = -1

// ID is a dense in-flight micro-operation identity: the UOp's slot in
// its core's Bank. The pipeline derives it from the ROB slot (thread
// base + reorder-buffer ring index), so an ID is stable from rename to
// commit and is recycled the moment the slot drains — exactly the
// lifetime discipline a hardware ROB entry has. Structures on the cycle
// path (IQ, LSQ, DAB, dispatch buffers, register-file wakeup bitmaps)
// store IDs instead of pointers: 4 bytes, no GC write barriers, and a
// natural index into the Bank's arrays.
type ID = int32

// NoID is the absent-identity sentinel.
const NoID ID = -1

// Bank owns every in-flight micro-operation record of one core as a
// single contiguous slab, indexed by ID. Hot per-uop state the wakeup
// broadcast touches is split structure-of-arrays style (NotReady) so the
// register file can update it without chasing the full record; the rest
// of the fields live in the slab struct, which is still one cache-
// friendly array rather than a pool of scattered heap objects.
type Bank struct {
	// NotReady counts, per ID, the source operands whose values have not
	// yet been produced. It is maintained event-driven: the pipeline
	// initializes it at rename and registers the ID in each pending
	// source's consumer bitmap (regfile.Watch); every tag broadcast
	// (SetReady) decrements it directly. The issue queue and the dispatch
	// stage read it instead of polling the register file; the sanitizer's
	// reference poll is NumSrcNotReady.
	NotReady []int8

	slab []UOp
}

// NewBank builds a bank of n records, all reset, with IDs 0..n-1.
func NewBank(n int) *Bank {
	if n <= 0 {
		panic("uop: bank size must be positive")
	}
	b := &Bank{
		NotReady: make([]int8, n),
		slab:     make([]UOp, n),
	}
	for i := range b.slab {
		b.slab[i].ID = ID(i)
		b.slab[i].Reset()
	}
	return b
}

// Cap returns the number of slots.
func (b *Bank) Cap() int { return len(b.slab) }

// Get returns the record at id. The pointer is stable for the bank's
// lifetime (records never move); identity is only meaningful while the
// owning ROB slot is live.
//
//smt:hotpath
func (b *Bank) Get(id ID) *UOp { return &b.slab[id] }

// Waker is notified the moment a UOp's last outstanding source operand
// becomes ready (its bank NotReady counter reaches zero). The issue
// queue installs itself here so wakeup moves instructions onto its ready
// list instead of the queue re-scanning every entry each cycle.
type Waker interface {
	UOpReady(u *UOp)
}

// UOp is one in-flight instruction. The Bank owns the record; the
// pipeline refers to it by ID (or by the stable *UOp into the slab). A
// UOp lives from rename until commit (or squash); its slot is then
// recycled by the ROB ring.
type UOp struct {
	// Inst is the immutable trace record.
	Inst isa.Inst

	// ID is the record's bank slot (ROB slot identity). Set once at bank
	// construction; Reset preserves it.
	ID ID

	// Thread is the hardware thread context id.
	Thread int

	// GSeq is a global, monotonically increasing rename order across all
	// threads, used for age-based (oldest-first) selection.
	GSeq uint64

	// Renamed operands. Srcs[i] corresponds to Inst.Src[i]; absent
	// operands are regfile.NoPhys.
	Srcs [isa.MaxSources]regfile.PhysRef
	// Dest is the allocated destination register, or NoPhys.
	Dest regfile.PhysRef
	// PrevDest is the destination architectural register's previous
	// mapping, reclaimed when this UOp commits.
	PrevDest regfile.PhysRef

	// Timestamps (cycle numbers), NoCycle until the event occurs.
	RenamedAt    int64
	DispatchedAt int64
	IssuedAt     int64
	CompletedAt  int64

	// InIQ reports the UOp currently occupies an issue-queue entry;
	// IQClass records the comparator class of that entry (0, 1, or 2),
	// so the queue can release the right pool.
	InIQ    bool
	IQClass int8
	// IQSlot is the UOp's index in the queue's entry array — a back-index
	// making removal O(1). Maintained by the queue; meaningless otherwise.
	IQSlot int32
	// InReady tracks membership in the queue's incremental ready list.
	InReady bool
	// LSQSlot is the UOp's ring slot in its thread's load/store queue
	// (memory operations only). Maintained by the LSQ; it lets the
	// disambiguation check scan only the strictly older entries.
	LSQSlot int32

	// InDAB reports the UOp sits in the deadlock-avoidance buffer.
	InDAB bool
	// Issued reports the UOp has left the scheduler.
	Issued bool
	// Completed reports the result has been produced (dest ready).
	Completed bool
	// Squashed reports the UOp was annulled by a watchdog or fetch-gate
	// flush; pending completion events for it must be ignored.
	Squashed bool

	// L1DMiss and MemMiss record, for issued loads, how deep in the
	// hierarchy the access went (set at issue, consumed by the
	// fetch-gating policies and their statistics).
	L1DMiss bool
	MemMiss bool

	// Branch prediction state (Class == Branch).
	PredTaken  bool
	PredTarget uint64
	Mispred    bool

	// NonReadyAtDispatch records how many source operands were not ready
	// when the UOp entered the scheduler (or DAB) — the quantity the
	// 2OP_BLOCK policy keys on.
	NonReadyAtDispatch int

	// WasNDI reports the UOp spent at least one cycle blocked as a
	// non-dispatchable instruction (two non-ready sources under a
	// one-comparator scheduler).
	WasNDI bool
	// WasHDI reports the UOp was dispatched out of program order, ahead
	// of an older NDI from its thread (a hidden dispatchable instruction).
	WasHDI bool
	// DepOnNDI reports the UOp directly or transitively depends on an
	// older instruction that was an NDI at the time this UOp dispatched
	// (used by the idealized-filter ablation and the HDI statistics).
	DepOnNDI bool
}

// Reset clears the UOp for reuse of its slot, preserving the identity.
// GSeq resets to zero, which never matches a live rename sequence number
// (the pipeline numbers from one), so stale references to a recycled
// slot — pending completion events — identify themselves by sequence
// mismatch.
//
//smt:hotpath
func (u *UOp) Reset() {
	id := u.ID
	// Zero the record wholesale, then restore the identity and the
	// non-zero sentinels. The pointer-free struct makes the first
	// assignment a plain memory clear, which the compiler emits far
	// tighter code for than copying a mostly-zero temporary.
	*u = UOp{}
	u.ID = id
	u.RenamedAt = NoCycle
	u.DispatchedAt = NoCycle
	u.IssuedAt = NoCycle
	u.CompletedAt = NoCycle
	u.Srcs = [isa.MaxSources]regfile.PhysRef{regfile.NoPhys, regfile.NoPhys}
	u.Dest = regfile.NoPhys
	u.PrevDest = regfile.NoPhys
	u.LSQSlot = -1
}

// NumSrcNotReady counts source operands whose physical registers are not
// ready in rf.
func (u *UOp) NumSrcNotReady(rf *regfile.File) int {
	n := 0
	for _, s := range u.Srcs {
		if s.Valid() && !rf.Ready(s) {
			n++
		}
	}
	return n
}

// IsBranch reports whether the UOp is a control transfer.
func (u *UOp) IsBranch() bool { return u.Inst.Class == isa.Branch }

// IsLoad reports whether the UOp reads data memory.
func (u *UOp) IsLoad() bool { return u.Inst.Class == isa.Load }

// IsStore reports whether the UOp writes data memory.
func (u *UOp) IsStore() bool { return u.Inst.Class == isa.Store }

// Older reports whether u precedes v in global rename order. Within a
// thread, rename order equals program order, so Older is also the
// program-order test the dispatch policies use.
func (u *UOp) Older(v *UOp) bool { return u.GSeq < v.GSeq }
