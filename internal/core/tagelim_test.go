package core

import (
	"testing"

	"smtsim/internal/iq"
)

func TestTagElimUsesSmallestSufficientEntry(t *testing.T) {
	// 2 zero-cmp, 2 one-cmp, 2 two-cmp entries.
	r := newPartRig(t, TagElim, iq.Partition{2, 2, 2}, 8, 1)
	ready := r.add(0, 0)
	one := r.add(0, 1)
	two := r.add(0, 2)
	if n := r.run(1); n != 3 {
		t.Fatalf("dispatched %d, want 3", n)
	}
	if ready.IQClass != 0 || one.IQClass != 1 || two.IQClass != 2 {
		t.Errorf("entry classes %d/%d/%d, want 0/1/2", ready.IQClass, one.IQClass, two.IQClass)
	}
}

func TestTagElimOverflowsToLargerEntries(t *testing.T) {
	r := newPartRig(t, TagElim, iq.Partition{1, 1, 1}, 8, 1)
	a := r.add(0, 0)
	b := r.add(0, 0)
	c := r.add(0, 0)
	if n := r.run(1); n != 3 {
		t.Fatalf("dispatched %d, want 3", n)
	}
	if a.IQClass != 0 || b.IQClass != 1 || c.IQClass != 2 {
		t.Errorf("overflow classes %d/%d/%d, want 0/1/2", a.IQClass, b.IQClass, c.IQClass)
	}
}

func TestTagElimDynamicNDIBlocksInOrder(t *testing.T) {
	// Only one 2-comparator entry: the second 2-non-ready instruction is
	// a dynamic NDI (appropriate class exists but is occupied) and, with
	// in-order dispatch, blocks its thread even though smaller entries
	// are free.
	r := newPartRig(t, TagElim, iq.Partition{4, 4, 1}, 8, 1)
	first := r.add(0, 2)
	second := r.add(0, 2)
	younger := r.add(0, 0)
	if n := r.run(1); n != 1 {
		t.Fatalf("dispatched %d, want 1", n)
	}
	if !first.InIQ || second.InIQ || younger.InIQ {
		t.Error("dynamic NDI did not block in-order dispatch")
	}
	if !second.WasNDI {
		t.Error("dynamic NDI not marked")
	}
	st := r.d.Stats()
	if st.NDIBlockCycles[0] == 0 {
		t.Error("dynamic NDI block not counted")
	}
}

func TestTagElimOOODHopsOverDynamicNDI(t *testing.T) {
	r := newPartRig(t, TagElimOOOD, iq.Partition{4, 4, 1}, 8, 1)
	r.add(0, 2)            // takes the only 2-cmp entry
	blocked := r.add(0, 2) // dynamic NDI
	younger := r.add(0, 0)
	if n := r.run(1); n != 2 {
		t.Fatalf("dispatched %d, want 2", n)
	}
	if blocked.InIQ {
		t.Error("dynamic NDI entered the queue")
	}
	if !younger.InIQ || !younger.WasHDI {
		t.Error("OOOD did not hop over the dynamic NDI")
	}
	// Free the 2-cmp entry: the blocked instruction follows.
	r.q.Remove(r.robs[0].Head())
	if n := r.run(2); n != 1 || !blocked.InIQ {
		t.Fatalf("dynamic NDI did not dispatch after its class freed (n=%d)", n)
	}
}

func TestUniformQueueUnchangedByGeneralization(t *testing.T) {
	// The generalized dispatch logic must reproduce the original 2OP
	// semantics on uniform one-comparator queues: static NDIs block
	// in-order threads, and a full queue reports IQ-full (not NDI).
	r := newRig(t, TwoOpBlock, 2, 8, 1)
	r.add(0, 0)
	r.add(0, 0)
	r.run(1)
	r.add(0, 0)
	if n := r.run(2); n != 0 {
		t.Fatal("dispatched into a full queue")
	}
	st := r.d.Stats()
	if st.StallAllNDI != 0 {
		t.Error("full-queue stall misclassified as the 2OP condition")
	}
}

func TestPerThreadCapPartitionsQueue(t *testing.T) {
	r := newRig(t, InOrder, 16, 8, 2)
	r.d.SetPerThreadCap(3)
	for i := 0; i < 5; i++ {
		r.add(0, 0)
		r.add(1, 0)
	}
	r.run(1)
	r.run(2)
	if got := r.q.ThreadCount(0); got != 3 {
		t.Errorf("thread 0 holds %d entries, cap 3", got)
	}
	if got := r.q.ThreadCount(1); got != 3 {
		t.Errorf("thread 1 holds %d entries, cap 3", got)
	}
	// Issuing one of thread 0's entries frees its share.
	r.q.Remove(r.robs[0].Head())
	if n := r.run(3); n != 1 {
		t.Errorf("dispatched %d after share freed, want 1", n)
	}
}

func TestPerThreadCapWithOOOD(t *testing.T) {
	r := newRig(t, TwoOpOOOD, 16, 8, 1)
	r.d.SetPerThreadCap(2)
	r.add(0, 0)
	r.add(0, 0)
	r.add(0, 0)
	if n := r.run(1); n != 2 {
		t.Errorf("dispatched %d, want cap of 2", n)
	}
}
