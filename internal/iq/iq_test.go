package iq

import (
	"testing"

	"smtsim/internal/isa"
	"smtsim/internal/regfile"
	"smtsim/internal/uop"
)

// env bundles a uop bank, a register file and the queue under test,
// wired for wakeup the way the pipeline wires them: the register file's
// tag broadcasts decrement the bank's not-ready counters and hand
// zero-crossings to the queue.
type env struct {
	bank *uop.Bank
	rf   *regfile.File
	q    *Queue
	next int32
	seq  uint64
}

func newEnv() *env {
	e := &env{bank: uop.NewBank(64), rf: regfile.New(64, 64)}
	e.rf.AttachWakeup(e.bank.Cap(), e.bank.NotReady, func(id int32) {
		e.q.UOpReady(e.bank.Get(id))
	})
	return e
}

// queue builds the env's queue (see New).
func (e *env) queue(capacity, maxNonReady, threads int) *Queue {
	e.q = New(e.bank, capacity, maxNonReady, threads)
	return e.q
}

// mkUOp builds a bank-backed UOp with n non-ready sources (0..2) for
// thread t, subscribed to its pending sources the way rename does.
func (e *env) mkUOp(t, nonReady int) *uop.UOp {
	u := e.bank.Get(e.next)
	e.next++
	e.seq++
	u.Thread = t
	u.GSeq = e.seq
	u.Srcs[0], u.Srcs[1] = regfile.NoPhys, regfile.NoPhys
	for i := 0; i < nonReady; i++ {
		u.Srcs[i] = e.rf.Alloc(isa.IntReg) // allocated, not ready
	}
	for i := nonReady; i < 2; i++ {
		p := e.rf.Alloc(isa.IntReg)
		e.rf.SetReady(p)
		u.Srcs[i] = p
	}
	watchSrcs(e.bank, e.rf, u)
	return u
}

// uops resolves a ready-id slice back to records for assertions.
func (e *env) uops(ids []int32) []*uop.UOp {
	us := make([]*uop.UOp, len(ids))
	for i, id := range ids {
		us[i] = e.bank.Get(id)
	}
	return us
}

func TestInsertRemoveOccupancy(t *testing.T) {
	e := newEnv()
	q := e.queue(4, 2, 2)
	u := e.mkUOp(1, 1)
	q.Insert(u)
	if q.Len() != 1 || q.Free() != 3 || !u.InIQ {
		t.Fatalf("occupancy wrong after insert: len=%d free=%d", q.Len(), q.Free())
	}
	if q.ThreadCount(1) != 1 || q.ThreadCount(0) != 0 {
		t.Error("per-thread accounting wrong")
	}
	q.Remove(u)
	if q.Len() != 0 || u.InIQ {
		t.Error("remove did not clear state")
	}
}

func TestInsertFullPanics(t *testing.T) {
	e := newEnv()
	q := e.queue(1, 2, 1)
	q.Insert(e.mkUOp(0, 0))
	defer func() {
		if recover() == nil {
			t.Error("insert into full queue did not panic")
		}
	}()
	q.Insert(e.mkUOp(0, 0))
}

func TestComparatorInvariantEnforced(t *testing.T) {
	e := newEnv()
	q := e.queue(4, 1, 1) // one comparator per entry (2OP queue)
	q.Insert(e.mkUOp(0, 1))
	defer func() {
		if recover() == nil {
			t.Error("two-non-ready insert into 1-comparator queue did not panic")
		}
	}()
	q.Insert(e.mkUOp(0, 2))
}

func TestReadyOldestFirst(t *testing.T) {
	e := newEnv()
	q := e.queue(8, 2, 1)
	ready1 := e.mkUOp(0, 0)
	waiting := e.mkUOp(0, 1)
	ready2 := e.mkUOp(0, 0)
	// Insert out of age order to exercise the age-ordered ready list.
	q.Insert(ready2)
	q.Insert(waiting)
	q.Insert(ready1)

	got := e.uops(q.ReadyOldestFirst(nil))
	if len(got) != 2 || got[0] != ready1 || got[1] != ready2 {
		t.Fatalf("ready set wrong: %v", got)
	}

	// Wake the waiter: it must appear, ordered by age.
	e.rf.SetReady(waiting.Srcs[0])
	got = e.uops(q.ReadyOldestFirst(nil))
	if len(got) != 3 || got[1] != waiting {
		t.Fatalf("woken instruction misplaced: %v", got)
	}
}

func TestDrainThread(t *testing.T) {
	e := newEnv()
	q := e.queue(8, 2, 2)
	a0 := e.mkUOp(0, 0)
	b0 := e.mkUOp(1, 0)
	a1 := e.mkUOp(0, 1)
	for _, u := range []*uop.UOp{a0, b0, a1} {
		q.Insert(u)
	}
	drained := q.DrainThread(0)
	if len(drained) != 2 {
		t.Fatalf("drained %d entries, want 2", len(drained))
	}
	for _, u := range drained {
		if u.Thread != 0 || u.InIQ {
			t.Errorf("drained entry %+v in bad state", u)
		}
	}
	if q.Len() != 1 || q.ThreadCount(0) != 0 || q.ThreadCount(1) != 1 {
		t.Error("thread-1 entry disturbed by drain")
	}
}

func TestRemoveAbsentPanics(t *testing.T) {
	e := newEnv()
	q := e.queue(4, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("remove of absent entry did not panic")
		}
	}()
	q.Remove(e.mkUOp(0, 0))
}

// TestOccupancySampling drives a queue bound to a cycle counter through
// three cycles ending at occupancies 0, 1 and 2.
func TestOccupancySampling(t *testing.T) {
	e := newEnv()
	q := e.queue(4, 2, 1)
	var now int64
	q.BindCycleCounter(&now)
	for cycle, insert := range []bool{false, true, true} {
		now = int64(cycle + 1)
		if insert {
			q.Insert(e.mkUOp(0, 0))
		}
	}
	if got := q.MeanOccupancy(); got != 1.0 {
		t.Errorf("mean occupancy = %v, want 1.0", got)
	}
	if q.Inserts != 2 {
		t.Errorf("inserts = %d, want 2", q.Inserts)
	}
}

func TestForEach(t *testing.T) {
	e := newEnv()
	q := e.queue(4, 2, 1)
	q.Insert(e.mkUOp(0, 0))
	q.Insert(e.mkUOp(0, 1))
	n := 0
	q.ForEach(func(u *uop.UOp) { n++ })
	if n != 2 {
		t.Errorf("ForEach visited %d, want 2", n)
	}
}

func TestThreadRotateSelect(t *testing.T) {
	e := newEnv()
	q := e.queue(8, 2, 2)
	a0 := e.mkUOp(0, 0) // oldest overall
	b0 := e.mkUOp(1, 0)
	a1 := e.mkUOp(0, 0)
	for _, u := range []*uop.UOp{a0, b0, a1} {
		q.Insert(u)
	}
	// tick 0: thread 0 first (age order within), then thread 1.
	got := e.uops(q.ReadyOrdered(nil, ThreadRotate, 0))
	if got[0] != a0 || got[1] != a1 || got[2] != b0 {
		t.Errorf("tick 0 order wrong: %v", got)
	}
	// tick 1: thread 1 first.
	got = e.uops(q.ReadyOrdered(nil, ThreadRotate, 1))
	if got[0] != b0 || got[1] != a0 {
		t.Errorf("tick 1 order wrong: %v", got)
	}
}

func TestSelectPolicyNames(t *testing.T) {
	if OldestFirst.String() != "oldest-first" || ThreadRotate.String() != "thread-rotate" {
		t.Error("select policy names wrong")
	}
}
