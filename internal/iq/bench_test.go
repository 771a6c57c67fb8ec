package iq

import (
	"testing"

	"smtsim/internal/isa"
	"smtsim/internal/regfile"
	"smtsim/internal/uop"
)

// BenchmarkInsertRemove measures the queue's entry management, the
// per-dispatch cost of the simulator's hottest structure.
func BenchmarkInsertRemove(b *testing.B) {
	bank := uop.NewBank(64)
	rf := regfile.New(256, 256)
	q := New(bank, 64, 2, 4)
	us := make([]*uop.UOp, 64)
	for i := range us {
		p := rf.Alloc(isa.IntReg)
		rf.SetReady(p)
		u := bank.Get(int32(i))
		u.Thread = i % 4
		u.GSeq = uint64(i + 1)
		u.Srcs = [2]regfile.PhysRef{p, regfile.NoPhys}
		us[i] = u
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range us {
			q.Insert(u)
		}
		for _, u := range us {
			q.Remove(u)
		}
	}
}

// wiredQueue builds a 64-entry, 4-thread queue over a 64-record bank
// and a register file wired for wakeup the way the pipeline wires them:
// tag broadcasts decrement the bank's not-ready counters and hand
// zero-crossings to the queue.
func wiredQueue() (*Queue, *uop.Bank, *regfile.File) {
	bank := uop.NewBank(64)
	rf := regfile.New(256, 256)
	q := New(bank, 64, 2, 4)
	rf.AttachWakeup(bank.Cap(), bank.NotReady, func(id int32) {
		q.UOpReady(bank.Get(id))
	})
	return q, bank, rf
}

// watchSrcs subscribes u to its pending sources and sets its not-ready
// counter, as rename does.
func watchSrcs(bank *uop.Bank, rf *regfile.File, u *uop.UOp) {
	nr := int8(0)
	for _, s := range u.Srcs {
		if rf.Watch(s, u.ID) {
			nr++
		}
	}
	bank.NotReady[u.ID] = nr
}

// BenchmarkReadySelect measures oldest-first selection over a full
// 64-entry queue with half the entries ready — the per-cycle issue cost.
func BenchmarkReadySelect(b *testing.B) {
	q, bank, rf := wiredQueue()
	for i := 0; i < 64; i++ {
		p := rf.Alloc(isa.IntReg)
		if i%2 == 0 {
			rf.SetReady(p)
		}
		u := bank.Get(int32(i))
		u.Thread = i % 4
		u.GSeq = uint64(i + 1)
		u.Srcs = [2]regfile.PhysRef{p, regfile.NoPhys}
		watchSrcs(bank, rf, u)
		q.Insert(u)
	}
	var scratch []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = q.ReadyOldestFirst(scratch)
	}
}

// BenchmarkIQWakeup measures the full wakeup chain for one batch of 64
// dependent instructions — dispatch, tag broadcast, selection, issue.
// The broadcast walks the register's consumer bitmap, decrements each
// watcher's bank counter, and moves zero-counter entries onto the ready
// list.
func BenchmarkIQWakeup(b *testing.B) {
	q, bank, rf := wiredQueue()
	us := make([]*uop.UOp, 64)
	regs := make([]regfile.PhysRef, 64)
	for i := range us {
		us[i] = bank.Get(int32(i))
	}
	var scratch []int32
	gseq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, u := range us {
			p := rf.Alloc(isa.IntReg)
			regs[j] = p
			u.Thread = j % 4
			u.GSeq = gseq
			gseq++
			u.Srcs[0] = p
			watchSrcs(bank, rf, u)
			q.Insert(u)
		}
		for _, p := range regs {
			rf.SetReady(p) // the tag broadcast
		}
		scratch = q.ReadyOrdered(scratch, OldestFirst, 0)
		if len(scratch) != len(us) {
			b.Fatalf("ready %d, want %d", len(scratch), len(us))
		}
		for _, id := range scratch {
			q.Remove(bank.Get(id))
		}
		for _, p := range regs {
			rf.Free(p)
		}
	}
}

// BenchmarkIQRemove measures entry removal via the back-index. Removal
// proceeds in insertion order, so every Remove targets the logical front
// — the old linear scan's best case was the back, its worst case this.
func BenchmarkIQRemove(b *testing.B) {
	bank := uop.NewBank(64)
	rf := regfile.New(256, 256)
	q := New(bank, 64, 2, 4)
	us := make([]*uop.UOp, 64)
	for i := range us {
		p := rf.Alloc(isa.IntReg)
		rf.SetReady(p)
		u := bank.Get(int32(i))
		u.Thread = i % 4
		u.GSeq = uint64(i + 1)
		u.Srcs = [2]regfile.PhysRef{p, regfile.NoPhys}
		us[i] = u
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range us {
			q.Insert(u)
		}
		for _, u := range us {
			q.Remove(u)
		}
	}
}
