// Package fetch carries the seeded I/O-purity violation: the import
// path matches a cycle-path package, and Trace writes to stdout.
package fetch

import "fmt"

// Trace prints a fetched PC from inside the cycle path.
func Trace(pc uint64) {
	fmt.Println(pc)
}
