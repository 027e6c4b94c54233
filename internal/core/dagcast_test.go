package core

import (
	"testing"

	"repro/internal/dyadic"
	"repro/internal/graph"
	"repro/internal/sim"
)

func dagFamilies() []*graph.G {
	gs := []*graph.G{
		graph.Line(4),
		graph.Chain(5),
		graph.KaryGroundedTree(2, 3),
		graph.Skeleton(3, []bool{true, false, true}),
		graph.Skeleton(4, []bool{false, false, false, false}),
		graph.PrunedTree(5, 3, 1),
	}
	for seed := int64(0); seed < 6; seed++ {
		gs = append(gs, graph.RandomDAG(30, 25, seed))
	}
	return gs
}

func TestDAGBroadcastTerminatesOnDAGs(t *testing.T) {
	p := NewDAGBroadcast([]byte("dag"))
	for _, g := range dagFamilies() {
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: verdict %s", g, r.Verdict)
		}
		if !r.AllVisited() {
			t.Fatalf("%s: terminated without visiting all vertices", g)
		}
		// Each vertex fires once after hearing all in-edges: one message per
		// edge, exactly.
		if r.Metrics.Messages != g.NumEdges() {
			t.Fatalf("%s: %d messages, want %d", g, r.Metrics.Messages, g.NumEdges())
		}
		sum, ok := r.Output.(dyadic.D)
		if !ok || !sum.IsOne() {
			t.Fatalf("%s: terminal sum = %v, want 1", g, r.Output)
		}
	}
}

func TestDAGBroadcastDoesNotTerminateWithOrphan(t *testing.T) {
	// DAG with a dead-end vertex: reachable from s, no path to t.
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(1, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := runAllSchedules(t, g, NewDAGBroadcast(nil), sim.Options{})
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s, want quiescent", r.Verdict)
	}
}

func TestDAGBroadcastStallsOnCycles(t *testing.T) {
	// On a cyclic graph the wait-for-all-in-edges discipline deadlocks: the
	// protocol must not terminate (and must not livelock either).
	for _, g := range []*graph.G{graph.Ring(4), graph.LayeredDigraph(4, 3, 2)} {
		r := runAllSchedules(t, g, NewDAGBroadcast(nil), sim.Options{})
		if r.Verdict != sim.Quiescent {
			t.Fatalf("%s: verdict %s, want quiescent", g, r.Verdict)
		}
	}
}

func TestDAGCommodityConservationAtCuts(t *testing.T) {
	// The terminal's accumulated commodity after the run equals exactly the
	// unit that entered, for every DAG: nothing is created or destroyed.
	for seed := int64(10); seed < 16; seed++ {
		g := graph.RandomDAG(50, 60, seed)
		r, err := sim.Run(g, NewDAGBroadcast(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, r.Verdict)
		}
		if sum := r.Output.(dyadic.D); !sum.IsOne() {
			t.Fatalf("%s: conservation violated, terminal sum = %s", g, sum)
		}
	}
}

func TestDAGBandwidthGrowsWithGraph(t *testing.T) {
	// Section 3.3 / Theorem 3.8: commodity-preserving DAG broadcast needs
	// bandwidth that grows linearly-ish with the graph, unlike the tree
	// case's O(log |E|). The skeleton family exhibits the growth directly:
	// the quantity reaching w is a sum of exponentially decreasing shares.
	prev := int64(0)
	for _, n := range []int{2, 4, 8, 16} {
		sel := make([]bool, n)
		for i := range sel {
			sel[i] = true
		}
		g := graph.Skeleton(n, sel)
		r, err := sim.Run(g, NewDAGBroadcast(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("skeleton(%d): %s", n, r.Verdict)
		}
		bw := r.Metrics.MaxEdgeBits()
		if bw <= prev {
			t.Fatalf("skeleton(%d): bandwidth %d did not grow (prev %d)", n, bw, prev)
		}
		prev = bw
	}
}
