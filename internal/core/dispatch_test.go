package core

import (
	"testing"

	"smtsim/internal/iq"
	"smtsim/internal/isa"
	"smtsim/internal/regfile"
	"smtsim/internal/rob"
	"smtsim/internal/uop"
)

// rig is a dispatch-stage test rig: a dispatcher over real IQ, register
// file, ROBs, and a shared uop bank, with helpers to fabricate renamed
// instructions whose operand readiness is controlled directly. The
// register file's tag broadcasts reach the bank counters and the queue
// as in the pipeline.
type rig struct {
	t    *testing.T
	bank *uop.Bank
	d    *Dispatcher
	q    *iq.Queue
	rf   *regfile.File
	robs []*rob.ROB
	seq  uint64
}

const rigROBCap = 96

// newRig builds a rig over a uniform queue of iqSize entries with the
// policy's comparator count.
func newRig(t *testing.T, policy Policy, iqSize, bufCap, threads int) *rig {
	return newPartRig(t, policy, iq.Uniform(iqSize, policy.MaxNonReady()), bufCap, threads)
}

// newPartRig builds a rig over a mixed-comparator queue.
func newPartRig(t *testing.T, policy Policy, part iq.Partition, bufCap, threads int) *rig {
	bank := uop.NewBank(threads * rigROBCap)
	r := &rig{
		t:    t,
		bank: bank,
		d:    NewDispatcher(bank, policy, 8, bufCap, threads),
		q:    iq.NewPartitioned(bank, part, threads),
		rf:   regfile.New(256, 256),
	}
	r.rf.AttachWakeup(bank.Cap(), bank.NotReady, func(id int32) {
		r.q.UOpReady(bank.Get(id))
	})
	for i := 0; i < threads; i++ {
		r.robs = append(r.robs, rob.New(bank, int32(i*rigROBCap), rigROBCap))
	}
	return r
}

// watch subscribes u to its pending sources and sets its not-ready
// counter, as rename does.
func (r *rig) watch(u *uop.UOp) {
	nr := int8(0)
	for _, s := range u.Srcs {
		if r.rf.Watch(s, u.ID) {
			nr++
		}
	}
	r.bank.NotReady[u.ID] = nr
}

// add fabricates a renamed instruction for thread t with the given
// number of non-ready source operands, allocates its ROB entry, and
// buffers it for dispatch.
func (r *rig) add(t int, nonReady int) *uop.UOp {
	r.seq++
	u := r.robs[t].Alloc()
	u.Thread = t
	u.GSeq = r.seq
	u.Inst = isa.Inst{Class: isa.IntAlu, Dest: isa.Int(5)}
	for i := 0; i < isa.MaxSources; i++ {
		p := r.rf.Alloc(isa.IntReg)
		if i >= nonReady {
			r.rf.SetReady(p)
		}
		u.Srcs[i] = p
	}
	u.Dest = r.rf.Alloc(isa.IntReg)
	r.watch(u)
	r.d.Buffer(t).Push(u)
	return u
}

// addDep fabricates an instruction whose first source is the destination
// of producer (and therefore not ready until the producer completes).
func (r *rig) addDep(t int, producer *uop.UOp) *uop.UOp {
	r.seq++
	u := r.robs[t].Alloc()
	u.Thread = t
	u.GSeq = r.seq
	u.Inst = isa.Inst{Class: isa.IntAlu, Dest: isa.Int(6)}
	u.Srcs[0] = producer.Dest
	p := r.rf.Alloc(isa.IntReg)
	r.rf.SetReady(p)
	u.Srcs[1] = p
	u.Dest = r.rf.Alloc(isa.IntReg)
	r.watch(u)
	r.d.Buffer(t).Push(u)
	return u
}

func (r *rig) run(cycle int64) int {
	return r.d.Run(cycle, r.q, r.rf, r.robs)
}

func TestInOrderDispatchesTwoNonReady(t *testing.T) {
	r := newRig(t, InOrder, 16, 8, 1)
	u := r.add(0, 2)
	if n := r.run(1); n != 1 {
		t.Fatalf("dispatched %d, want 1", n)
	}
	if !u.InIQ || u.NonReadyAtDispatch != 2 {
		t.Errorf("traditional scheduler mishandled 2-non-ready: inIQ=%v nr=%d", u.InIQ, u.NonReadyAtDispatch)
	}
}

func TestInOrderStallsOnFullIQ(t *testing.T) {
	r := newRig(t, InOrder, 8, 8, 1)
	for i := 0; i < 8; i++ {
		r.add(0, 2)
	}
	if n := r.run(1); n != 8 {
		t.Fatalf("dispatched %d, want 8", n)
	}
	u := r.add(0, 0)
	if n := r.run(2); n != 0 {
		t.Fatalf("dispatched %d into a full queue", n)
	}
	if u.InIQ {
		t.Error("instruction entered a full queue")
	}
}

func TestTwoOpBlocksThreadAtNDI(t *testing.T) {
	r := newRig(t, TwoOpBlock, 16, 8, 1)
	ndi := r.add(0, 2)
	younger := r.add(0, 0)
	if n := r.run(1); n != 0 {
		t.Fatalf("dispatched %d past an NDI", n)
	}
	if !ndi.WasNDI {
		t.Error("NDI not marked")
	}
	if younger.InIQ {
		t.Error("in-order 2OP dispatched past the NDI")
	}
	// First source becomes ready: the thread unblocks; both dispatch.
	r.rf.SetReady(ndi.Srcs[0])
	if n := r.run(2); n != 2 {
		t.Fatalf("dispatched %d after wakeup, want 2", n)
	}
	if ndi.NonReadyAtDispatch != 1 {
		t.Errorf("NDI dispatched with %d non-ready recorded", ndi.NonReadyAtDispatch)
	}
}

func TestTwoOpOtherThreadProceeds(t *testing.T) {
	r := newRig(t, TwoOpBlock, 16, 8, 2)
	r.add(0, 2) // thread 0 blocked
	b := r.add(1, 0)
	if n := r.run(1); n != 1 {
		t.Fatalf("dispatched %d, want 1", n)
	}
	if !b.InIQ {
		t.Error("unblocked thread did not dispatch")
	}
}

func TestOOODHopsOverNDI(t *testing.T) {
	r := newRig(t, TwoOpOOOD, 16, 8, 1)
	ndi := r.add(0, 2)
	h1 := r.add(0, 1)
	h2 := r.add(0, 0)
	if n := r.run(1); n != 2 {
		t.Fatalf("dispatched %d, want 2 HDIs", n)
	}
	if ndi.InIQ {
		t.Error("NDI entered the IQ")
	}
	if !h1.InIQ || !h2.InIQ {
		t.Error("HDIs not dispatched")
	}
	if !h1.WasHDI || !h2.WasHDI {
		t.Error("HDIs not marked")
	}
	st := r.d.Stats()
	if st.HDIDispatched != 2 {
		t.Errorf("HDIDispatched = %d, want 2", st.HDIDispatched)
	}
	// The NDI stays buffered in program order and dispatches on wakeup.
	r.rf.SetReady(ndi.Srcs[0])
	if n := r.run(2); n != 1 {
		t.Fatalf("NDI did not dispatch after wakeup: %d", n)
	}
	if !ndi.InIQ {
		t.Error("NDI missing from IQ")
	}
}

func TestOOODRespectsAgeOrderAmongDIs(t *testing.T) {
	r := newRig(t, TwoOpOOOD, 1, 8, 1) // room for exactly one
	r.add(0, 2)
	first := r.add(0, 0)
	second := r.add(0, 0)
	if n := r.run(1); n != 1 {
		t.Fatalf("dispatched %d, want 1", n)
	}
	if !first.InIQ || second.InIQ {
		t.Error("OOOD picked a younger DI over an older one")
	}
}

func TestOOODDepOnNDITracking(t *testing.T) {
	r := newRig(t, TwoOpOOOD, 16, 8, 1)
	ndi := r.add(0, 2)
	dep := r.addDep(0, ndi) // reads the NDI's destination
	indep := r.add(0, 0)    // independent of the NDI
	if n := r.run(1); n != 2 {
		t.Fatalf("dispatched %d, want 2", n)
	}
	// dep has one non-ready source (the NDI's dest) -> dispatchable, and
	// it must be flagged as NDI-dependent.
	if !dep.InIQ || !dep.DepOnNDI {
		t.Errorf("dependent HDI: inIQ=%v depOnNDI=%v", dep.InIQ, dep.DepOnNDI)
	}
	if indep.DepOnNDI {
		t.Error("independent HDI flagged as NDI-dependent")
	}
	st := r.d.Stats()
	if st.HDIDepOnNDI != 1 {
		t.Errorf("HDIDepOnNDI = %d, want 1", st.HDIDepOnNDI)
	}
}

func TestFilteredWithholdsNDIDependents(t *testing.T) {
	r := newRig(t, TwoOpOOODFiltered, 16, 8, 1)
	ndi := r.add(0, 2)
	dep := r.addDep(0, ndi)
	indep := r.add(0, 0)
	if n := r.run(1); n != 1 {
		t.Fatalf("dispatched %d, want only the independent HDI", n)
	}
	if dep.InIQ {
		t.Error("filtered policy dispatched an NDI-dependent HDI")
	}
	if !indep.InIQ {
		t.Error("independent HDI withheld")
	}
	// Once the NDI unblocks and dispatches, the dependent follows.
	r.rf.SetReady(ndi.Srcs[0])
	if n := r.run(2); n != 2 {
		t.Fatalf("post-wakeup dispatched %d, want NDI + dependent", n)
	}
}

func TestDABCapturesROBHeadWhenIQFull(t *testing.T) {
	r := newRig(t, TwoOpOOOD, 1, 8, 1)
	blocker := r.add(0, 0)
	if r.run(1) != 1 || !blocker.InIQ {
		t.Fatal("setup dispatch failed")
	}
	// blocker still occupies the single IQ entry; the ROB head is the
	// next buffered instruction, which is all-ready.
	r.robs[0].PopHead() // pretend blocker committed; head advances
	head := r.add(0, 0)
	// Manually make head the ROB head: it already is (blocker popped).
	if !r.robs[0].IsHead(head) {
		t.Fatal("test setup: head not ROB-oldest")
	}
	if n := r.run(2); n != 1 {
		t.Fatalf("dispatched %d, want 1 via DAB", n)
	}
	if !head.InDAB {
		t.Error("ROB-oldest not captured by DAB")
	}
	if r.d.DAB().Inserts != 1 {
		t.Error("DAB insert not counted")
	}
}

func TestNonHeadDoesNotUseDAB(t *testing.T) {
	r := newRig(t, TwoOpOOOD, 1, 8, 1)
	blocker := r.add(0, 0)
	r.run(1)
	if !blocker.InIQ {
		t.Fatal("setup failed")
	}
	// blocker is still ROB head (not committed); the younger all-ready
	// instruction must NOT enter the DAB.
	young := r.add(0, 0)
	if n := r.run(2); n != 0 {
		t.Fatalf("dispatched %d, want 0", n)
	}
	if young.InDAB {
		t.Error("non-ROB-head instruction captured by DAB")
	}
}

func TestStallAccounting(t *testing.T) {
	r := newRig(t, TwoOpBlock, 16, 8, 2)
	r.add(0, 2)
	r.add(1, 2)
	r.run(1)
	st := r.d.Stats()
	if st.StallAllNDI != 1 || st.StallNDIWeak != 1 || st.StallAllAny != 1 {
		t.Errorf("stall counters = %+v", st)
	}
	// One thread empty, the other NDI-blocked: weak counts, strict not.
	r2 := newRig(t, TwoOpBlock, 16, 8, 2)
	r2.add(0, 2)
	r2.run(1)
	st2 := r2.d.Stats()
	if st2.StallAllNDI != 0 || st2.StallNDIWeak != 1 {
		t.Errorf("weak/strict distinction broken: %+v", st2)
	}
}

func TestPiledHDISampling(t *testing.T) {
	r := newRig(t, TwoOpBlock, 16, 8, 1)
	r.add(0, 2) // NDI at head
	r.add(0, 0) // HDI behind it
	r.add(0, 2) // another NDI
	r.run(1)
	st := r.d.Stats()
	if st.PiledSampled != 2 || st.PiledHDI != 1 {
		t.Errorf("piled sampling = %d/%d, want 1/2", st.PiledHDI, st.PiledSampled)
	}
}

func TestRoundRobinFairnessAcrossThreads(t *testing.T) {
	// With width 8 and two threads each holding 8 ready instructions,
	// repeated cycles must serve both threads (the rotating scan origin).
	r := newRig(t, InOrder, 64, 8, 2)
	for i := 0; i < 8; i++ {
		r.add(0, 0)
		r.add(1, 0)
	}
	r.run(1)
	r.run(2)
	if got := r.q.ThreadCount(0); got != 8 {
		t.Errorf("thread 0 dispatched %d, want 8", got)
	}
	if got := r.q.ThreadCount(1); got != 8 {
		t.Errorf("thread 1 dispatched %d, want 8", got)
	}
}

func TestDrainThreadResetsTaint(t *testing.T) {
	r := newRig(t, TwoOpOOOD, 16, 8, 1)
	ndi := r.add(0, 2)
	r.addDep(0, ndi)
	r.run(1)
	buffered, dab := r.d.DrainThread(0)
	if len(buffered) != 1 { // the NDI stays buffered; the dep dispatched
		t.Errorf("drained %d buffered, want 1", len(buffered))
	}
	if len(dab) != 0 {
		t.Errorf("drained %d DAB entries, want 0", len(dab))
	}
	if r.d.Buffer(0).Len() != 0 {
		t.Error("buffer not empty after drain")
	}
}
