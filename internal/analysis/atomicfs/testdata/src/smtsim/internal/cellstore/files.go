// Package cellstore is a miniature stand-in exercising atomicfs: the
// two blessed crash-consistency helpers may touch the raw os write
// surface; everything else is rejected, and the read-only/whole-file
// os calls are never checked.
package cellstore

import "os"

// Store anchors a method-receiver violation.
type Store struct {
	dir string
}

// AtomicWrite is blessed (policy.AtomicFSAllowed).
func AtomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(".", ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// appendShard is blessed.
func appendShard(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(line)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Sloppy bypasses the protocol with a raw whole-file write.
func Sloppy(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `atomicfs: raw os\.WriteFile outside the blessed crash-consistency helpers`
}

// Dump bypasses it through a method.
func (s *Store) Dump(path string) error {
	f, err := os.Create(path) // want `atomicfs: raw os\.Create outside the blessed crash-consistency helpers`
	if err != nil {
		return err
	}
	return f.Close()
}

// Move renames outside the helpers.
func Move(a, b string) error {
	return os.Rename(a, b) // want `atomicfs: raw os\.Rename outside the blessed crash-consistency helpers`
}

// Clean uses only the unchecked os surface: removes are whole-file
// atomic, reads cannot tear on-disk state.
func Clean(path string) ([]byte, error) {
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}
