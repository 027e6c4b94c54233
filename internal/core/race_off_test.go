//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build. The
// allocation bounds are meaningless under -race, whose instrumentation adds
// allocations of its own.
const raceEnabled = false
