package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestShardTreeAllocsPerDelivery is the two-shard twin of core's
// TestTreeProtocolAllocsPerDelivery: a whole power-of-2 tree broadcast,
// metering included, on one engine value (so the partition is memoized, as
// it is for a repeated run). The tree nodes come from one batch and fill
// windows of one outs backing, and the per-edge records are built once per
// run, so what remains is a fixed per-run and per-superstep cost. The bound
// is the measured 0.038 plus headroom; one allocation per vertex alone would
// cost about 0.6 per delivery.
func TestShardTreeAllocsPerDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	const maxPerDelivery = 0.1
	g := graph.RandomGroundedTree(5000, 0.2, 7)
	p := core.NewTreeBroadcast([]byte("m"), core.RulePow2)
	eng := Engine(2)
	opts := sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 3, TrackAlphabet: true}
	var deliveries int
	allocs := testing.AllocsPerRun(5, func() {
		r, err := eng.Run(g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("verdict %v, want terminated", r.Verdict)
		}
		deliveries = r.Steps
	})
	per := allocs / float64(deliveries)
	t.Logf("%.0f allocations over %d deliveries: %.3f per delivery", allocs, deliveries, per)
	if per > maxPerDelivery {
		t.Fatalf("%.3f allocations per delivery, want <= %g", per, maxPerDelivery)
	}
}
