// Package wb carries the seeded location-exclusivity violation: it
// writes a field of a reorder-buffer type from outside package rob,
// with no //smt:stage grant.
package wb

import "smtsim/internal/rob"

// Rewind is the seeded violation: it resets the window's count behind
// the owner's back.
func Rewind(w *rob.Window) {
	w.Retired = 0
}
