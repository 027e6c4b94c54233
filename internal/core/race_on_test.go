//go:build race

package core

// raceEnabled reports whether the race detector instruments this build; see
// race_off_test.go.
const raceEnabled = true
