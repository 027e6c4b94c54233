package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netrun"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// faultEngines enumerates every engine in the repository. The tcp engine is
// excluded in -short mode (it opens real sockets), everywhere else the full
// set runs: the point of this file is that NO engine may silently ignore a
// non-empty fault plan.
func faultEngines(t *testing.T) []sim.Engine {
	engines := []sim.Engine{
		sim.Sequential(),
		sim.Concurrent(),
		sim.Synchronous(),
		shard.Engine(3),
	}
	if !testing.Short() {
		engines = append(engines,
			netrun.Engine(core.Codec{}, netrun.Options{}),
			// The same tier over a three-shard partition: the fault plan
			// must survive in-shard edges and shard-pair channels too.
			netrun.Engine(core.Codec{}, netrun.Options{Shards: 3}),
		)
	}
	return engines
}

// TestCrossEngineFaultConformance: every engine must apply a non-empty
// fault plan — and apply it identically, because the plan's semantics
// (the fate of the k-th message on an edge, the crash of a vertex after
// its k-th processed delivery) are schedule- and engine-independent on a
// line graph. An engine that ignored the plan would terminate with the
// full network visited and Dropped == 0, and fail every assertion here.
// This is the regression gate for the bug this PR fixes: DropFirst used to
// be honored by the sequential and sharded engines only, while the
// concurrent, synchronous and tcp engines silently ran fault-free.
func TestCrossEngineFaultConformance(t *testing.T) {
	g := graph.Line(5) // s=0 -> 1 -> 2 -> 3 -> 4 -> 5 -> t=6
	rootEdge := g.OutEdge(g.Root(), 0)

	plans := []struct {
		name    string
		faults  *sim.Faults
		dropped int // exact expected drop count (0 = only require nonzero)
		visited int // exact number of visited non-root vertices
	}{
		// Drop sigma0: nothing is ever deliverable, so the run goes
		// quiescent with zero steps and only the root visited.
		{"drop-sigma0", &sim.Faults{DropFirst: map[graph.EdgeID]int{rootEdge.ID: 1}}, 1, 0},
		// Crash vertex 3 from the start: it consumes (but never processes)
		// its one delivery, cutting the line — vertices 1, 2 are reached,
		// 3 and beyond are not.
		{"crash-mid", &sim.Faults{CrashAfter: map[graph.VertexID]int{3: 0}}, 1, 2},
		// Total loss: every send is dropped, including sigma0.
		{"loss-total", &sim.Faults{LossRate: 1}, 0, 0},
	}

	for _, plan := range plans {
		for _, eng := range faultEngines(t) {
			t.Run(plan.name+"/"+eng.Name(), func(t *testing.T) {
				r, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{Faults: plan.faults})
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict != sim.Quiescent {
					t.Errorf("verdict %s, want quiescent — plan cuts the terminal off", r.Verdict)
				}
				if r.Dropped == 0 {
					t.Error("Dropped == 0: engine silently ignored a non-empty fault plan")
				}
				if plan.dropped != 0 && r.Dropped != plan.dropped {
					t.Errorf("Dropped = %d, want %d", r.Dropped, plan.dropped)
				}
				if r.AllVisited() {
					t.Error("all vertices visited despite the fault plan")
				}
				visited := 0
				for v, ok := range r.Visited {
					if graph.VertexID(v) != g.Root() && ok {
						visited++
					}
				}
				if visited != plan.visited {
					t.Errorf("%d non-root vertices visited, want %d (visited: %v)",
						visited, plan.visited, r.Visited)
				}
			})
		}
	}

	// Sanity: the same graph and protocol with no plan terminates fully on
	// every engine with Dropped == 0 — the assertions above measure the
	// plan, not some unrelated breakage.
	for _, eng := range faultEngines(t) {
		t.Run("fault-free/"+eng.Name(), func(t *testing.T) {
			r, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != sim.Terminated || !r.AllVisited() || r.Dropped != 0 {
				t.Errorf("fault-free run: verdict %s allVisited %v dropped %d",
					r.Verdict, r.AllVisited(), r.Dropped)
			}
		})
	}
}

// TestPeakInFlightReportedOnEveryEngine: wherever the sequential engine
// reports a nonzero Metrics.PeakInFlight, every other engine must too. This
// is the regression gate for the tcp tier, which used to leave the field
// silently zero (the runner counted in-flight messages for its quiescence
// detector but never surfaced the high-water mark).
func TestPeakInFlightReportedOnEveryEngine(t *testing.T) {
	g := graph.Line(5)
	seq, err := sim.Sequential().Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Metrics.PeakInFlight == 0 {
		t.Fatal("sequential PeakInFlight == 0 on a line graph — the cross-engine assertion below is vacuous")
	}
	for _, eng := range faultEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			r, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Metrics.PeakInFlight == 0 {
				t.Errorf("%s: PeakInFlight == 0 where sequential reports %d", eng.Name(), seq.Metrics.PeakInFlight)
			}
		})
	}
}

// TestFaultPlanRejectedUniformly: an invalid plan (edge out of range) must
// be rejected by every engine up front, not half-applied.
func TestFaultPlanRejectedUniformly(t *testing.T) {
	g := graph.Line(3)
	bad := &sim.Faults{DropFirst: map[graph.EdgeID]int{graph.EdgeID(99): 1}}
	for _, eng := range faultEngines(t) {
		if _, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{Faults: bad}); err == nil {
			t.Errorf("%s: plan naming a nonexistent edge accepted", eng.Name())
		}
	}
}
