package uop

import (
	"testing"

	"smtsim/internal/isa"
	"smtsim/internal/regfile"
)

func TestResetRestoresSentinels(t *testing.T) {
	u := &UOp{Thread: 3, GSeq: 99, InIQ: true, Completed: true}
	u.Reset()
	if u.Thread != 0 || u.GSeq != 0 || u.InIQ || u.Completed {
		t.Error("Reset left state behind")
	}
	for _, ts := range []int64{u.RenamedAt, u.DispatchedAt, u.IssuedAt, u.CompletedAt} {
		if ts != NoCycle {
			t.Error("timestamps not reset to NoCycle")
		}
	}
}

func TestReadinessCounting(t *testing.T) {
	rf := regfile.New(8, 8)
	a := rf.Alloc(isa.IntReg)
	b := rf.Alloc(isa.IntReg)
	rf.SetReady(b)
	u := &UOp{Srcs: [isa.MaxSources]regfile.PhysRef{a, b}}
	if got := u.NumSrcNotReady(rf); got != 1 {
		t.Errorf("NumSrcNotReady = %d, want 1", got)
	}
	rf.SetReady(a)
	if got := u.NumSrcNotReady(rf); got != 0 {
		t.Errorf("NumSrcNotReady = %d with all sources ready, want 0", got)
	}
	// Absent operands are trivially ready.
	v := &UOp{Srcs: [isa.MaxSources]regfile.PhysRef{regfile.NoPhys, regfile.NoPhys}}
	if v.NumSrcNotReady(rf) != 0 {
		t.Error("absent operands counted as non-ready")
	}
}

func TestClassPredicates(t *testing.T) {
	br := &UOp{Inst: isa.Inst{Class: isa.Branch}}
	ld := &UOp{Inst: isa.Inst{Class: isa.Load}}
	st := &UOp{Inst: isa.Inst{Class: isa.Store}}
	if !br.IsBranch() || br.IsLoad() || br.IsStore() {
		t.Error("branch predicates wrong")
	}
	if !ld.IsLoad() || ld.IsBranch() {
		t.Error("load predicates wrong")
	}
	if !st.IsStore() || st.IsLoad() {
		t.Error("store predicates wrong")
	}
}

func TestOlder(t *testing.T) {
	a := &UOp{GSeq: 1}
	b := &UOp{GSeq: 2}
	if !a.Older(b) || b.Older(a) || a.Older(a) {
		t.Error("Older comparison wrong")
	}
}
