// Package uop is the fixture module's stand-in for the real slab: its
// import path makes Bank.Get the accessor idsafe guards.
package uop

// ID indexes a Bank slot.
type ID = int32

// UOp is one record.
type UOp struct {
	ID       ID
	GSeq     uint64
	Thread   int
	Squashed bool
}

// Bank is the slab.
type Bank struct {
	slab []UOp
}

// Get materializes the record for id.
func (b *Bank) Get(id ID) *UOp {
	return &b.slab[id]
}
