//go:build race

package shard

// raceEnabled reports whether the race detector instruments this build; see
// race_off_test.go.
const raceEnabled = true
