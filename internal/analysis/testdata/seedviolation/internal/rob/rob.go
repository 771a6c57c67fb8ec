// Package rob is the fixture module's clean cycle-path package: the
// vettool must pass it without diagnostics. Its exported Retired field
// is the protected state internal/wb writes from outside.
package rob

// Window is a deterministic ring over a slice.
type Window struct {
	buf  []int
	head int
	// Retired counts the elements Push has overwritten.
	Retired int
}

// Push overwrites the oldest element.
func (w *Window) Push(v int) {
	w.buf[w.head] = v
	w.head = (w.head + 1) % len(w.buf)
	w.Retired++
}
