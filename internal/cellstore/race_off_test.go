//go:build !race

package cellstore

const raceEnabled = false
