package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// wideRootDigraph builds a cyclic network whose root has out-degree k.
func wideRootDigraph(t *testing.T, k int) *graph.G {
	t.Helper()
	// s fans out to k chains that interlink and all reach t; a back edge
	// makes it cyclic.
	b := graph.NewBuilder(2 + 2*k).SetRoot(0).SetTerminal(1).AllowWideRoot()
	for i := 0; i < k; i++ {
		a := graph.VertexID(2 + 2*i)
		c := graph.VertexID(3 + 2*i)
		b.AddEdge(0, a)
		b.AddEdge(a, c)
		b.AddEdge(c, 1)
		if i > 0 {
			b.AddEdge(c, graph.VertexID(2+2*(i-1))) // cross links (cycles)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wideRootTree builds a grounded tree whose root has out-degree k.
func wideRootTree(t *testing.T, k int) *graph.G {
	t.Helper()
	b := graph.NewBuilder(2 + k).SetRoot(0).SetTerminal(1).AllowWideRoot()
	for i := 0; i < k; i++ {
		v := graph.VertexID(2 + i)
		b.AddEdge(0, v)
		b.AddEdge(v, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsGroundedTree() {
		t.Fatal("wide-root tree malformed")
	}
	return g
}

func TestWideRootRejectedWithoutOption(t *testing.T) {
	b := graph.NewBuilder(3).SetRoot(0).SetTerminal(2)
	b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("wide root accepted without AllowWideRoot")
	}
}

func TestWideRootTreeBroadcast(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		g := wideRootTree(t, k)
		for _, rule := range []TreeRule{RulePow2, RuleNaive} {
			r := runAllSchedules(t, g, NewTreeBroadcast([]byte("m"), rule), sim.Options{})
			if r.Verdict != sim.Terminated {
				t.Fatalf("k=%d rule=%s: %s", k, rule, r.Verdict)
			}
			if !r.AllVisited() {
				t.Fatalf("k=%d: not all visited", k)
			}
		}
	}
}

func TestWideRootGeneralAndLabels(t *testing.T) {
	for _, k := range []int{2, 4} {
		g := wideRootDigraph(t, k)
		r := runAllSchedules(t, g, NewGeneralBroadcast(nil), sim.Options{})
		if r.Verdict != sim.Terminated || !r.AllVisited() {
			t.Fatalf("k=%d broadcast: %s", k, r.Verdict)
		}
		rl, err := sim.Run(g, NewLabelAssign(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rl.Verdict != sim.Terminated {
			t.Fatalf("k=%d labeling: %s", k, rl.Verdict)
		}
		var labs []interval.Union
		for _, n := range rl.Nodes {
			if ln, ok := n.(Labeled); ok {
				if u, has := ln.Label(); has {
					labs = append(labs, u)
				}
			}
		}
		if len(labs) != g.NumVertices()-2 {
			t.Fatalf("k=%d: labeled %d, want %d", k, len(labs), g.NumVertices()-2)
		}
		for i := range labs {
			for j := i + 1; j < len(labs); j++ {
				if !labs[i].Intersect(labs[j]).IsEmpty() {
					t.Fatalf("k=%d: labels overlap", k)
				}
			}
		}
	}
}

func TestWideRootMapping(t *testing.T) {
	g := wideRootDigraph(t, 3)
	r, err := sim.Run(g, NewMapExtract(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	verifyTopology(t, g, r)
}

func TestWideRootDAG(t *testing.T) {
	// Wide-root DAG: s fans into a diamond.
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(4).AllowWideRoot()
	b.AddEdge(0, 1).AddEdge(0, 2)
	b.AddEdge(1, 3).AddEdge(2, 3)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := runAllSchedules(t, g, NewDAGBroadcast(nil), sim.Options{})
	if r.Verdict != sim.Terminated || !r.AllVisited() {
		t.Fatalf("%s", r.Verdict)
	}
}

func TestMultiInitConservation(t *testing.T) {
	// The split initial messages must sum to exactly the unit.
	for _, d := range []int{1, 2, 3, 7, 16} {
		msgs := NewGeneralBroadcast(nil).InitialMessages(d)
		whole := interval.EmptyUnion()
		for _, m := range msgs {
			gm := m.(*gcMsg)
			if whole.Intersect(gm.alpha).IsEmpty() == false {
				t.Fatalf("d=%d: initial alphas overlap", d)
			}
			whole = whole.Union(gm.alpha)
		}
		if !whole.IsFull() {
			t.Fatalf("d=%d: initial alphas cover %s, want [0,1)", d, whole)
		}
	}
}

func TestWideRootRejectedForSingleInitProtocol(t *testing.T) {
	g := wideRootTree(t, 2)
	// Hide the MultiInitializer by wrapping in a struct that only satisfies
	// Protocol.
	p := struct{ protocol.Protocol }{NewGeneralBroadcast(nil)}
	if _, err := sim.Run(g, p, sim.Options{}); err == nil {
		t.Fatal("seq engine accepted wide root without MultiInitializer")
	}
	if _, err := sim.Concurrent().Run(g, p, sim.Options{}); err == nil {
		t.Fatal("concurrent engine accepted wide root without MultiInitializer")
	}
	if _, err := sim.Synchronous().Run(g, p, sim.Options{}); err == nil {
		t.Fatal("sync engine accepted wide root without MultiInitializer")
	}
}
