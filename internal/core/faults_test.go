package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// TestSafetyUnderMessageLoss: the paper's model assumes reliable links, so
// losing messages may (and usually does) destroy liveness — the protocol
// hangs, which is the correct conservative behaviour. What must NEVER happen
// is a safety violation: the terminal declaring termination while some
// vertex did not receive the broadcast. This property test drops random
// prefixes of random edges and asserts safety for every protocol.
func TestSafetyUnderMessageLoss(t *testing.T) {
	protos := []protocol.Protocol{
		NewTreeBroadcast(nil, RulePow2),
		NewDAGBroadcast(nil),
		NewGeneralBroadcast(nil),
		NewLabelAssign(nil),
		NewMapExtract(nil),
	}
	f := func(seed int64, dropRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.G
		proto := protos[rng.Intn(len(protos))]
		switch proto.(type) {
		case *TreeBroadcast:
			g = graph.RandomGroundedTree(12, 0.3, seed)
		case *DAGBroadcast:
			g = graph.RandomDAG(12, 8, seed)
		default:
			g = graph.RandomDigraph(12, seed, graph.RandomDigraphOpts{ExtraEdges: 12, TerminalFrac: 0.3})
		}
		drops := map[graph.EdgeID]int{}
		nDrops := int(dropRaw%4) + 1
		for i := 0; i < nDrops; i++ {
			drops[graph.EdgeID(rng.Intn(g.NumEdges()))] = rng.Intn(3) + 1
		}
		r, err := sim.Run(g, proto, sim.Options{
			Scheduler: sim.NewRandomScheduler(), Seed: seed, Faults: &sim.Faults{DropFirst: drops},
		})
		if err != nil {
			t.Logf("RUN ERROR: %s on %s with drops %v: %v", proto.Name(), g, drops, err)
			return false
		}
		// Safety: termination implies full delivery, faults or not.
		if r.Verdict == sim.Terminated && !r.AllVisited() {
			t.Logf("SAFETY VIOLATION: %s on %s with drops %v", proto.Name(), g, drops)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLivenessLostWhenFirstMessageDropped: dropping the very first message
// (the root's injection) starves the whole network; the run must be
// quiescent with nothing delivered.
func TestLivenessLostWhenFirstMessageDropped(t *testing.T) {
	g := graph.Chain(4)
	rootEdge := g.OutEdge(g.Root(), 0)
	r, err := sim.Run(g, NewTreeBroadcast(nil, RulePow2), sim.Options{
		Faults: &sim.Faults{DropFirst: map[graph.EdgeID]int{rootEdge.ID: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s, want quiescent", r.Verdict)
	}
	if r.Steps != 0 {
		t.Fatalf("%d deliveries despite dropped injection", r.Steps)
	}
}

// TestLivenessLostOnAlphaDrop: dropping any commodity-bearing message makes
// the general protocol hang rather than lie.
func TestLivenessLostOnAlphaDrop(t *testing.T) {
	g := graph.Ring(5)
	quiescent := 0
	for e := 0; e < g.NumEdges(); e++ {
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{
			Faults: &sim.Faults{DropFirst: map[graph.EdgeID]int{graph.EdgeID(e): 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict == sim.Terminated {
			// Termination despite a drop is possible only when the dropped
			// message's content also reached t another way; safety must
			// still hold.
			if !r.AllVisited() {
				t.Fatalf("drop on edge %d: terminated without full delivery", e)
			}
		} else {
			quiescent++
		}
	}
	if quiescent == 0 {
		t.Fatal("no drop caused quiescence; adversary ineffective")
	}
}
