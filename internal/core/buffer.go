package core

import "smtsim/internal/uop"

// Buffer is one thread's dispatch buffer: the renamed instructions that
// have not yet entered the issue queue, in program order. Under in-order
// policies only the head is a dispatch candidate; under out-of-order
// dispatch the whole buffer is scanned, so its capacity bounds how much
// hidden ILP the OOOD mechanism can expose.
//
// Storage is a ring of uop ids over the core's bank, rounded up to a
// power of two so the scan indexes with a mask instead of a modulo.
type Buffer struct {
	bank *uop.Bank
	buf  []int32
	mask int
	capn int // logical capacity (CanPush gate), <= len(buf)
	head int
	size int
}

// NewBuffer builds a buffer with the given capacity over the bank.
func NewBuffer(bank *uop.Bank, capacity int) *Buffer {
	if capacity <= 0 {
		panic("core: buffer capacity must be positive")
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Buffer{bank: bank, buf: make([]int32, n), mask: n - 1, capn: capacity}
}

// Cap returns the capacity.
func (b *Buffer) Cap() int { return b.capn }

// Len returns the number of buffered instructions.
//
//smt:hotpath
func (b *Buffer) Len() int { return b.size }

// CanPush reports whether one more instruction fits.
//
//smt:hotpath
func (b *Buffer) CanPush() bool { return b.size < b.capn }

// Push appends a renamed instruction in program order.
//
//smt:hotpath
func (b *Buffer) Push(u *uop.UOp) {
	if b.size == b.capn {
		panic("core: dispatch buffer overflow")
	}
	b.buf[(b.head+b.size)&b.mask] = u.ID
	b.size++
}

// At returns the i-th oldest buffered instruction (0 = oldest).
//
//smt:hotpath
//smt:trusted-id — b.buf[head..head+size) holds only resident ids; Push adds, RemoveAt deletes
func (b *Buffer) At(i int) *uop.UOp {
	if i < 0 || i >= b.size {
		panic("core: buffer index out of range")
	}
	return b.bank.Get(b.buf[(b.head+i)&b.mask])
}

// RemoveAt extracts the i-th oldest instruction, preserving the order of
// the rest. i==0 is the common in-order case and is O(1); out-of-order
// removal shifts at most Cap-1 ids, which is trivial at the buffer
// sizes involved (tens of entries).
//
//smt:hotpath
func (b *Buffer) RemoveAt(i int) *uop.UOp {
	u := b.At(i)
	if i == 0 {
		b.head = (b.head + 1) & b.mask
		b.size--
		return u
	}
	for j := i; j < b.size-1; j++ {
		b.buf[(b.head+j)&b.mask] = b.buf[(b.head+j+1)&b.mask]
	}
	b.size--
	return u
}

// DrainYoungerThan removes every buffered instruction younger than gseq
// from the tail, returning them in program order (selective-squash path).
func (b *Buffer) DrainYoungerThan(gseq uint64) []*uop.UOp {
	cut := b.size
	for cut > 0 && b.At(cut-1).GSeq > gseq {
		cut--
	}
	n := b.size - cut
	out := make([]*uop.UOp, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = b.RemoveAt(b.size - 1)
	}
	return out
}

// DrainAll empties the buffer, returning its contents in program order
// (watchdog flush path).
func (b *Buffer) DrainAll() []*uop.UOp {
	out := make([]*uop.UOp, 0, b.size)
	for b.size > 0 {
		out = append(out, b.RemoveAt(0))
	}
	return out
}
