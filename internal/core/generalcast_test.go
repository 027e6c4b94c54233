package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/sim"
)

func generalFamilies() []*graph.G {
	gs := []*graph.G{
		graph.Line(5),
		graph.Chain(6),
		graph.Ring(2), graph.Ring(5), graph.Ring(9),
		graph.KaryGroundedTree(2, 3),
		graph.Skeleton(3, []bool{true, true, false}),
		graph.LayeredDigraph(4, 3, 7),
		graph.LayeredDigraph(3, 5, 11),
	}
	for seed := int64(0); seed < 8; seed++ {
		gs = append(gs, graph.RandomDigraph(25, seed, graph.RandomDigraphOpts{ExtraEdges: 30, TerminalFrac: 0.15}))
	}
	return gs
}

func TestGeneralBroadcastTerminatesEverywhere(t *testing.T) {
	p := NewGeneralBroadcast([]byte("gc"))
	for _, g := range generalFamilies() {
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: verdict %s", g, r.Verdict)
		}
		// Theorem 4.2, the crucial direction: termination implies every
		// vertex received the broadcast.
		if !r.AllVisited() {
			t.Fatalf("%s: terminated without visiting all vertices", g)
		}
		out, ok := r.Output.(interval.Union)
		if !ok || !out.IsFull() {
			t.Fatalf("%s: terminal cover = %v, want [0,1)", g, r.Output)
		}
	}
}

func TestGeneralBroadcastNonTerminationWithOrphans(t *testing.T) {
	p := NewGeneralBroadcast(nil)
	for seed := int64(0); seed < 8; seed++ {
		g := graph.RandomDigraph(20, seed, graph.RandomDigraphOpts{
			ExtraEdges: 20, Orphans: 1 + int(seed%3), TerminalFrac: 0.2,
		})
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Quiescent {
			t.Fatalf("%s: verdict %s, want quiescent (orphans present)", g, r.Verdict)
		}
	}
}

// TestGeneralBroadcastTerminationIffCoReachable is the headline property of
// Theorem 4.2 under randomized graphs and schedules.
func TestGeneralBroadcastTerminationIffCoReachable(t *testing.T) {
	p := NewGeneralBroadcast(nil)
	f := func(seed int64, orphRaw uint8) bool {
		orphans := int(orphRaw % 3) // 0, 1 or 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDigraph(5+rng.Intn(25), seed, graph.RandomDigraphOpts{
			ExtraEdges:   rng.Intn(40),
			Orphans:      orphans,
			TerminalFrac: rng.Float64() * 0.4,
		})
		r, err := sim.Run(g, p, sim.Options{Order: sim.OrderRandom, Seed: seed})
		if err != nil {
			return false
		}
		want := sim.Quiescent
		if g.AllConnectedToTerminal() {
			want = sim.Terminated
		}
		return r.Verdict == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralNodeAlphasDisjoint(t *testing.T) {
	// Invariant: the alpha_j of every vertex are pairwise disjoint at all
	// times; we check the final states, which dominate all earlier ones by
	// state-monotonicity.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(30, seed, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.2})
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{Order: sim.OrderRandom, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for v, n := range r.Nodes {
			gn, ok := n.(*gcNode)
			if !ok {
				continue
			}
			alphas := gn.Alphas()
			for i := range alphas {
				for j := i + 1; j < len(alphas); j++ {
					if !alphas[i].Intersect(alphas[j]).IsEmpty() {
						t.Fatalf("%s vertex %d: alpha_%d and alpha_%d overlap", g, v, i, j)
					}
				}
			}
		}
	}
}

func TestGeneralBroadcastCycleUsesBeta(t *testing.T) {
	// On a ring, part of the interval must circulate and be rescued via
	// beta: the terminal must have received non-empty beta content.
	g := graph.Ring(6)
	r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	term := r.Nodes[g.Terminal()].(*gcTerminal)
	if term.BetaSeen().IsEmpty() {
		t.Fatal("ring run used no beta content; cycle detection untested")
	}
}

func TestGeneralBroadcastTreeNeedsNoBeta(t *testing.T) {
	// On grounded trees no cycle exists and no label is withheld: beta must
	// stay empty and the alpha cover alone must reach [0,1).
	g := graph.Chain(5)
	r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	term := r.Nodes[g.Terminal()].(*gcTerminal)
	if !term.BetaSeen().IsEmpty() {
		t.Fatalf("acyclic run produced beta content: %s", term.BetaSeen())
	}
	if !term.AlphaSeen().IsFull() {
		t.Fatalf("alpha cover = %s, want [0,1)", term.AlphaSeen())
	}
}

func TestGeneralSymbolSizeBounded(t *testing.T) {
	// Theorem 4.3: symbols are O(|E| |V| log dout) bits. Check a generous
	// concrete bound on random graphs: maxMsgBits <= c * |E| * |V| * log dout
	// with c small, and endpoint precision <= |V| * ceil(log2(dout+1)).
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(30, seed, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.2})
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, e := g.NumVertices(), g.NumEdges()
		logD := 1
		for 1<<logD < g.MaxOutDegree()+1 {
			logD++
		}
		bound := 4 * e * v * logD
		if r.Metrics.MaxMsgBits > bound {
			t.Fatalf("%s: max symbol %d bits > bound %d", g, r.Metrics.MaxMsgBits, bound)
		}
		// Endpoint precision bound from the once-per-vertex splitting.
		for _, n := range r.Nodes {
			gn, ok := n.(*gcNode)
			if !ok {
				continue
			}
			for _, a := range gn.Alphas() {
				if int(a.MaxEndpointPrec()) > v*logD {
					t.Fatalf("%s: endpoint precision %d > |V| log dout = %d",
						g, a.MaxEndpointPrec(), v*logD)
				}
			}
		}
	}
}

func TestGeneralEveryEdgeCarriesFirstMessageWithAlpha(t *testing.T) {
	// The r == 1 partition substitution (docs/ARCHITECTURE.md, "Faithfulness
	// notes") guarantees every out-edge receives alpha content on the
	// sender's first firing; consequently on termination every edge carried
	// at least one message.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(25, seed, graph.RandomDigraphOpts{ExtraEdges: 25, TerminalFrac: 0.25})
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{Order: sim.OrderLIFO})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, r.Verdict)
		}
		for e, cnt := range r.Metrics.PerEdgeMsgs {
			if cnt == 0 {
				t.Fatalf("%s: edge %d carried no message", g, e)
			}
		}
	}
}
