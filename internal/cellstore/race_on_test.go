//go:build race

package cellstore

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random, so allocation counts of pooled code are not fixed.
const raceEnabled = true
