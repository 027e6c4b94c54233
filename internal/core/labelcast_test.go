package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/sim"
)

// extractLabels returns the label of every internal vertex after a run.
func extractLabels(t *testing.T, g *graph.G, r *sim.Result) map[graph.VertexID]interval.Union {
	t.Helper()
	labels := map[graph.VertexID]interval.Union{}
	for v, n := range r.Nodes {
		ln, ok := n.(Labeled)
		if !ok {
			continue
		}
		if lab, has := ln.Label(); has {
			labels[graph.VertexID(v)] = lab
		}
	}
	return labels
}

func TestLabelAssignTerminatesAndLabelsEveryone(t *testing.T) {
	p := NewLabelAssign(nil)
	for _, g := range generalFamilies() {
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: verdict %s", g, r.Verdict)
		}
		labels := extractLabels(t, g, r)
		// Theorem 5.1: on termination every internal vertex has a label.
		for v := 0; v < g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			if vid == g.Root() || vid == g.Terminal() {
				continue
			}
			lab, ok := labels[vid]
			if !ok {
				t.Fatalf("%s: vertex %d unlabeled at termination", g, v)
			}
			if lab.IsEmpty() {
				t.Fatalf("%s: vertex %d has an empty label", g, v)
			}
			if lab.NumIntervals() != 1 {
				t.Fatalf("%s: vertex %d label %s is not a single interval", g, v, lab)
			}
		}
	}
}

func TestLabelsPairwiseDisjoint(t *testing.T) {
	// Uniqueness is by disjointness of the kept sub-intervals.
	p := NewLabelAssign(nil)
	for seed := int64(0); seed < 8; seed++ {
		g := graph.RandomDigraph(35, seed, graph.RandomDigraphOpts{ExtraEdges: 45, TerminalFrac: 0.2})
		r, err := sim.Run(g, p, sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed * 31})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, r.Verdict)
		}
		labels := extractLabels(t, g, r)
		ids := make([]graph.VertexID, 0, len(labels))
		for v := range labels {
			ids = append(ids, v)
		}
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				a, b := labels[ids[i]], labels[ids[j]]
				if !a.Intersect(b).IsEmpty() {
					t.Fatalf("%s: labels of %d and %d overlap: %s vs %s", g, ids[i], ids[j], a, b)
				}
			}
		}
	}
}

func TestLabelAssignNonTerminationWithOrphans(t *testing.T) {
	p := NewLabelAssign(nil)
	g := graph.RandomDigraph(15, 3, graph.RandomDigraphOpts{ExtraEdges: 15, Orphans: 2, TerminalFrac: 0.3})
	r := runAllSchedules(t, g, p, sim.Options{})
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s, want quiescent", r.Verdict)
	}
}

func TestLabelAssignTerminationIffCoReachable(t *testing.T) {
	p := NewLabelAssign(nil)
	f := func(seed int64, orphRaw uint8) bool {
		orphans := int(orphRaw % 2)
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDigraph(5+rng.Intn(20), seed, graph.RandomDigraphOpts{
			ExtraEdges:   rng.Intn(30),
			Orphans:      orphans,
			TerminalFrac: rng.Float64() * 0.4,
		})
		r, err := sim.Run(g, p, sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed})
		if err != nil {
			return false
		}
		want := sim.Quiescent
		if g.AllConnectedToTerminal() {
			want = sim.Terminated
		}
		return r.Verdict == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelLengthBound(t *testing.T) {
	// Theorem 5.1: labels are O(|V| log dout) bits. Check endpoint precision
	// against the concrete once-per-vertex splitting bound.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(30, seed, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.2})
		r, err := sim.Run(g, NewLabelAssign(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		labels := extractLabels(t, g, r)
		v := g.NumVertices()
		logD := 1
		for 1<<logD < g.MaxOutDegree()+2 {
			logD++
		}
		for vid, lab := range labels {
			if int(lab.MaxEndpointPrec()) > v*logD {
				t.Fatalf("%s: label of %d has precision %d > |V| log dout = %d",
					g, vid, lab.MaxEndpointPrec(), v*logD)
			}
		}
	}
}

func TestDeepLeafLabelGrowsWithPathLength(t *testing.T) {
	// The essence of Theorem 5.2: on the pruned tree the deep leaf's label
	// precision grows linearly in h (each path vertex splits once, adding
	// ~log2(d+1) bits).
	prev := uint(0)
	for _, h := range []int{2, 4, 8, 16} {
		g := graph.PrunedTree(h, 3, 0)
		r, err := sim.Run(g, NewLabelAssign(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("pruned(%d): %s", h, r.Verdict)
		}
		labels := extractLabels(t, g, r)
		leafLab, ok := labels[graph.PrunedLeaf(h)]
		if !ok {
			t.Fatalf("pruned(%d): leaf unlabeled", h)
		}
		p := leafLab.MaxEndpointPrec()
		if p <= prev {
			t.Fatalf("pruned(%d): leaf label precision %d did not grow (prev %d)", h, p, prev)
		}
		prev = p
	}
}

func TestLabelCommodityFullyAccounted(t *testing.T) {
	// Conservation: at termination the labels of all vertices plus the alpha
	// content that reached t plus the non-label beta content must cover
	// [0,1); moreover labels are subsets of the beta content seen at t
	// (beta'' = beta' ∪ alpha_0 pushes every label toward t).
	g := graph.LayeredDigraph(4, 3, 5)
	r, err := sim.Run(g, NewLabelAssign(nil), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("%s", r.Verdict)
	}
	term := r.Nodes[g.Terminal()].(*gcTerminal)
	labels := extractLabels(t, g, r)
	union := term.AlphaSeen().Union(term.BetaSeen())
	if !union.IsFull() {
		t.Fatalf("terminal cover %s not full", union)
	}
	for v, lab := range labels {
		if !term.BetaSeen().ContainsUnion(lab) {
			t.Fatalf("label of %d (%s) never reached t via beta (beta=%s)", v, lab, term.BetaSeen())
		}
	}
}
