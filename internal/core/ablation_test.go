package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// ablationGraph builds the witness for the E12 ablation: the root's child v
// has out-degree 2; its second out-edge is the ONLY way to reach vertex w.
// Under the paper's literal canonical-partition rule, v receives the single
// interval [0,1), splits it into d-1 = 1 part for edge 0, and sends nothing
// on edge 1 — yet all commodity still reaches t, so t terminates while w
// never hears the broadcast.
func ablationGraph(t *testing.T) *graph.G {
	t.Helper()
	// s=0 -> v=1; v -> a=2 (port 0), v -> w=3 (port 1); a -> t=4; w -> t.
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2).AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAblationLiteralPartitionViolatesTheorem42 shows the literal rule is
// broken exactly as docs/ARCHITECTURE.md's faithfulness notes claim: the protocol terminates
// although a vertex never received the message.
func TestAblationLiteralPartitionViolatesTheorem42(t *testing.T) {
	g := ablationGraph(t)
	r, err := sim.Run(g, NewGeneralBroadcastLiteral([]byte("m")), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("literal rule: verdict %s (expected termination — all commodity reaches t)", r.Verdict)
	}
	if r.AllVisited() {
		t.Fatal("literal rule unexpectedly visited every vertex; the ablation witness is wrong")
	}
	if r.Visited[3] {
		t.Fatal("vertex behind the starved edge was visited")
	}
}

// TestAblationRepairedPartitionUpholdsTheorem42 is the control: the repaired
// rule visits everyone before terminating, on the same graph and schedule.
func TestAblationRepairedPartitionUpholdsTheorem42(t *testing.T) {
	g := ablationGraph(t)
	r, err := sim.Run(g, NewGeneralBroadcast([]byte("m")), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("repaired rule: verdict %s", r.Verdict)
	}
	if !r.AllVisited() {
		t.Fatal("repaired rule terminated without visiting all vertices")
	}
}

// TestAblationAcrossRandomGraphs quantifies the failure rate of the literal
// rule on random cyclic digraphs: it must never be WORSE than the repaired
// rule at termination (commodity always reaches t), but it frequently
// terminates with unvisited vertices, while the repaired rule never does.
func TestAblationAcrossRandomGraphs(t *testing.T) {
	violations := 0
	for seed := int64(0); seed < 30; seed++ {
		g := graph.RandomDigraph(20, seed, graph.RandomDigraphOpts{ExtraEdges: 10, TerminalFrac: 0.3})
		rl, err := sim.Run(g, NewGeneralBroadcastLiteral(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rl.Verdict == sim.Terminated && !rl.AllVisited() {
			violations++
		}
		rr, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rr.Verdict != sim.Terminated || !rr.AllVisited() {
			t.Fatalf("seed %d: repaired rule failed: %s allVisited=%v", seed, rr.Verdict, rr.AllVisited())
		}
	}
	if violations == 0 {
		t.Fatal("literal rule never violated Theorem 4.2 on 30 random graphs; ablation not discriminating")
	}
	t.Logf("literal rule violated broadcast-before-termination on %d/30 random graphs", violations)
}
