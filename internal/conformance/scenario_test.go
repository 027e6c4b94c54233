package conformance

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// scenarioSizes shrinks each family to matrix-friendly dimensions; nil means
// the family's defaults are already small enough.
var scenarioSizes = map[string]map[string]int{
	"scalefree":  {"n": 10},
	"smallworld": {"n": 10},
	"regular":    {"n": 10},
	"torus":      {"w": 3, "h": 3},
	"layereddag": {"layers": 3, "width": 3},
	"line":       {"n": 3},
	"chain":      {"n": 3},
	"ring":       {"n": 3},
	"karytree":   {"h": 2, "d": 2},
	"randtree":   {"n": 5},
	"randdag":    {"n": 5, "extra": 3},
	"randnet":    {"n": 5, "extra": 3},
	"layered":    {"layers": 2, "width": 2},
}

// TestScenarioConformanceMatrix wires every scenario family through the
// cross-engine matrix: for each family (two seeds each), the sequential
// engine under every scheduler, the concurrent, synchronous and sharded
// engines must reproduce the seq/fifo reference's schedule-independent
// outcome. This is the acceptance gate for a new generator: a family whose
// graphs break an engine or a scheduler fails here, not in a benchmark.
func TestScenarioConformanceMatrix(t *testing.T) {
	proto := func() protocol.Protocol { return core.NewGeneralBroadcast([]byte("m")) }
	for _, fam := range scenario.Families() {
		for _, seed := range []int64{1, 2} {
			g, err := scenario.Build(fam.Name, scenarioSizes[fam.Name], seed)
			if err != nil {
				t.Fatalf("build %s seed %d: %v", fam.Name, seed, err)
			}
			t.Run(fmt.Sprintf("%s/seed%d", fam.Name, seed), func(t *testing.T) {
				ref, err := sim.Sequential().Run(g, proto(), sim.Options{})
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				want := outcomeOf(t, g, ref)
				if want.Verdict != sim.Terminated || !want.AllVisited {
					t.Fatalf("reference on %s: verdict %s allVisited %v — generator built a graph broadcast cannot cover",
						g, want.Verdict, want.AllVisited)
				}

				check := func(name string, r *sim.Result, err error) {
					t.Helper()
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					got := outcomeOf(t, g, r)
					if got.Verdict != want.Verdict || got.AllVisited != want.AllVisited {
						t.Errorf("%s: verdict %s allVisited %v, reference %s %v",
							name, got.Verdict, got.AllVisited, want.Verdict, want.AllVisited)
					}
				}

				for _, schedName := range sim.SchedulerNames() {
					sched, err := sim.NewScheduler(schedName)
					if err != nil {
						t.Fatal(err)
					}
					r, err := sim.Sequential().Run(g, proto(), sim.Options{Scheduler: sched, Seed: seed * 31})
					check("seq/"+schedName, r, err)
				}
				r, err := sim.Concurrent().Run(g, proto(), sim.Options{})
				check("concurrent", r, err)
				r, err = sim.Synchronous().Run(g, proto(), sim.Options{})
				check("sync", r, err)
				r, err = shard.Engine(3).Run(g, proto(), sim.Options{})
				check("shard3", r, err)
			})
		}
	}
}

// TestScenarioFaultComposition closes the tentpole loop: a scenario graph
// plus a compiled fault plan, run through seq, concurrent and shard, must
// agree that the fault bit (Dropped > 0) and the safety half of the
// theorems hold — a run under loss either terminates with the broadcast
// complete or does not terminate at all; it never lies.
func TestScenarioFaultComposition(t *testing.T) {
	for _, fam := range scenario.Families() {
		g, err := scenario.Build(fam.Name, scenarioSizes[fam.Name], 1)
		if err != nil {
			t.Fatal(err)
		}
		rootOut := g.OutEdgeIDs(g.Root())[0]
		plan := &scenario.FaultPlan{DropFirst: map[graph.EdgeID]int{rootOut: 1}}
		faults, err := plan.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		engines := []sim.Engine{sim.Sequential(), sim.Concurrent(), shard.Engine(3)}
		for _, eng := range engines {
			t.Run(fam.Name+"/"+eng.Name(), func(t *testing.T) {
				r, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				if r.Dropped == 0 {
					t.Error("engine ignored the scenario fault plan")
				}
				if r.Verdict == sim.Terminated && !r.AllVisited() {
					t.Error("terminated without full broadcast under loss — safety violated")
				}
				if r.Verdict != sim.Quiescent {
					t.Errorf("verdict %s: dropping sigma0 must leave the run quiescent", r.Verdict)
				}
			})
		}
	}
}
