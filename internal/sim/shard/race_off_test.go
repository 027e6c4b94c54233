//go:build !race

package shard

// raceEnabled reports whether the race detector instruments this build. The
// allocation guards are meaningless under -race: the race runtime makes
// sync.Pool drop puts at random, so pooled queue chunks re-allocate.
const raceEnabled = false
