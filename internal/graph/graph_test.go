package graph

import (
	"errors"
	"strings"
	"testing"
)

func TestBuilderValidation(t *testing.T) {
	// Missing root/terminal.
	if _, err := NewBuilder(2).SetTerminal(1).Build(); !errors.Is(err, ErrNoRoot) {
		t.Fatalf("want ErrNoRoot, got %v", err)
	}
	if _, err := NewBuilder(2).SetRoot(0).Build(); !errors.Is(err, ErrNoTerminal) {
		t.Fatalf("want ErrNoTerminal, got %v", err)
	}
	// Root with incoming edge.
	b := NewBuilder(3).SetRoot(0).SetTerminal(2)
	b.AddEdge(0, 1).AddEdge(1, 0).AddEdge(1, 2)
	if _, err := b.Build(); !errors.Is(err, ErrRootHasIn) {
		t.Fatalf("want ErrRootHasIn, got %v", err)
	}
	// Root out-degree != 1.
	b = NewBuilder(3).SetRoot(0).SetTerminal(2)
	b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 2)
	if _, err := b.Build(); !errors.Is(err, ErrRootOutDegree) {
		t.Fatalf("want ErrRootOutDegree, got %v", err)
	}
	// Terminal with outgoing edge.
	b = NewBuilder(3).SetRoot(0).SetTerminal(2)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 1)
	if _, err := b.Build(); !errors.Is(err, ErrTerminalHasOut) {
		t.Fatalf("want ErrTerminalHasOut, got %v", err)
	}
	// Unreachable vertex.
	b = NewBuilder(4).SetRoot(0).SetTerminal(2)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(3, 2)
	if _, err := b.Build(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestPortNumbering(t *testing.T) {
	b := NewBuilder(4).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(1, 3).AddEdge(2, 3).AddEdge(1, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(1) != 3 {
		t.Fatalf("out-degree(1) = %d, want 3", g.OutDegree(1))
	}
	// Ports assigned in insertion order.
	if e := g.OutEdge(1, 0); e.To != 2 || e.FromPort != 0 {
		t.Fatalf("OutEdge(1,0) = %+v", e)
	}
	if e := g.OutEdge(1, 2); e.To != 3 || e.FromPort != 2 {
		t.Fatalf("OutEdge(1,2) = %+v", e)
	}
	// Parallel edges get distinct in-ports at the target.
	if g.InDegree(3) != 3 {
		t.Fatalf("in-degree(3) = %d, want 3", g.InDegree(3))
	}
	seen := map[int]bool{}
	for i := 0; i < g.InDegree(3); i++ {
		seen[g.InEdge(3, i).ToPort] = true
	}
	if len(seen) != 3 {
		t.Fatalf("in-ports of 3 not distinct: %v", seen)
	}
}

func TestChainShape(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17} {
		g := Chain(n)
		if g.NumVertices() != n+2 {
			t.Fatalf("Chain(%d): |V| = %d, want %d", n, g.NumVertices(), n+2)
		}
		if g.NumEdges() != 2*n {
			t.Fatalf("Chain(%d): |E| = %d, want %d", n, g.NumEdges(), 2*n)
		}
		if !g.IsGroundedTree() {
			t.Fatalf("Chain(%d) not a grounded tree", n)
		}
		if !g.AllConnectedToTerminal() {
			t.Fatalf("Chain(%d) not all connected to t", n)
		}
		if g.Classify() != ClassGroundedTree {
			t.Fatalf("Chain(%d) class = %s", n, g.Classify())
		}
	}
}

func TestLineShape(t *testing.T) {
	g := Line(4)
	if g.NumEdges() != 5 || !g.IsGroundedTree() || !g.AllConnectedToTerminal() {
		t.Fatalf("Line(4) malformed: %s", g)
	}
}

func TestKaryGroundedTree(t *testing.T) {
	g := KaryGroundedTree(2, 3) // 1 + 3 + 9 = 13 tree vertices
	if g.NumVertices() != 15 {
		t.Fatalf("|V| = %d, want 15", g.NumVertices())
	}
	// Edges: s->root (1) + internal 3+9 (12) + 9 leaves->t = 22.
	if g.NumEdges() != 22 {
		t.Fatalf("|E| = %d, want 22", g.NumEdges())
	}
	if !g.IsGroundedTree() || !g.AllConnectedToTerminal() {
		t.Fatalf("KaryGroundedTree malformed: %s", g)
	}
	if g.MaxOutDegree() != 3 {
		t.Fatalf("MaxOutDegree = %d, want 3", g.MaxOutDegree())
	}
}

func TestKaryLeafOnPath(t *testing.T) {
	// Height 2, degree 2: tree IDs are 1; 2,3; 4,5,6,7 (BFS).
	if got := KaryLeafOnPath(2, 2, 0); got != 4 {
		t.Fatalf("leftmost leaf = %d, want 4", got)
	}
	if got := KaryLeafOnPath(2, 2, 1); got != 7 {
		t.Fatalf("rightmost leaf = %d, want 7", got)
	}
	// Confirm these are leaves in the generated graph (out-edge goes to t).
	g := KaryGroundedTree(2, 2)
	for _, c := range []int{0, 1} {
		leaf := KaryLeafOnPath(2, 2, c)
		if g.OutDegree(leaf) != 1 || g.OutEdge(leaf, 0).To != g.Terminal() {
			t.Fatalf("vertex %d is not a leaf wired to t", leaf)
		}
	}
}

func TestPrunedTreeShape(t *testing.T) {
	h, d := 4, 3
	g := PrunedTree(h, d, 1)
	if g.NumVertices() != h+3 {
		t.Fatalf("|V| = %d, want %d (paper: h+3)", g.NumVertices(), h+3)
	}
	if !g.AllConnectedToTerminal() || !g.IsDAG() {
		t.Fatalf("PrunedTree malformed: %s", g)
	}
	// Every path vertex keeps out-degree d, as required for protocol
	// indistinguishability from the full tree.
	for i := 0; i < h; i++ {
		if got := g.OutDegree(VertexID(i + 1)); got != d {
			t.Fatalf("path vertex %d out-degree = %d, want %d", i+1, got, d)
		}
	}
	leaf := PrunedLeaf(h)
	if g.OutDegree(leaf) != 1 || g.OutEdge(leaf, 0).To != g.Terminal() {
		t.Fatalf("deep leaf %d malformed", leaf)
	}
}

func TestSkeletonShape(t *testing.T) {
	n := 3
	g := Skeleton(n, []bool{true, false, true})
	if g.NumVertices() != 4*n+2 {
		t.Fatalf("|V| = %d, want %d", g.NumVertices(), 4*n+2)
	}
	if !g.IsDAG() {
		t.Fatal("skeleton must be a DAG")
	}
	if !g.AllConnectedToTerminal() {
		t.Fatal("skeleton must be connected to t")
	}
	// v_i have out-degree 2 except the last.
	for i := 0; i <= 2*n-2; i++ {
		if got := g.OutDegree(VertexID(1 + i)); got != 2 {
			t.Fatalf("v_%d out-degree = %d, want 2", i, got)
		}
	}
	// The w->t edge is last.
	weID, ok := SkeletonWEdge(g)
	if !ok {
		t.Fatal("SkeletonWEdge not found despite non-empty selection")
	}
	we := g.Edge(weID)
	if we.To != g.Terminal() {
		t.Fatalf("SkeletonWEdge goes to %d, not t", we.To)
	}
	if g.OutDegree(we.From) != 1 {
		t.Fatal("w must have out-degree 1")
	}
	// w's in-degree equals number of selected u's.
	if got := g.InDegree(we.From); got != 2 {
		t.Fatalf("w in-degree = %d, want 2 (two selected)", got)
	}
}

func TestRingShape(t *testing.T) {
	g := Ring(5)
	if g.IsDAG() {
		t.Fatal("ring must contain a cycle")
	}
	if !g.AllConnectedToTerminal() {
		t.Fatal("ring must be connected to t")
	}
	if g.Classify() != ClassGeneral {
		t.Fatalf("class = %s, want general", g.Classify())
	}
}

func TestRandomGroundedTree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomGroundedTree(30, 0.2, seed)
		if !g.IsGroundedTree() {
			t.Fatalf("seed %d: not a grounded tree", seed)
		}
		if !g.AllConnectedToTerminal() {
			t.Fatalf("seed %d: not connected to t", seed)
		}
	}
}

func TestRandomDAG(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomDAG(40, 30, seed)
		if !g.IsDAG() {
			t.Fatalf("seed %d: not a DAG", seed)
		}
		if !g.AllConnectedToTerminal() {
			t.Fatalf("seed %d: not connected to t", seed)
		}
	}
}

func TestRandomDigraph(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomDigraph(40, seed, RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.1})
		if !g.AllConnectedToTerminal() {
			t.Fatalf("seed %d: not connected to t", seed)
		}
	}
}

func TestRandomDigraphOrphans(t *testing.T) {
	g := RandomDigraph(20, 7, RandomDigraphOpts{ExtraEdges: 10, Orphans: 3})
	if g.AllConnectedToTerminal() {
		t.Fatal("orphan graph should have t-unreachable vertices")
	}
	co := g.CoReachable()
	bad := 0
	for _, ok := range co {
		if !ok {
			bad++
		}
	}
	if bad != 3 {
		t.Fatalf("unconnected count = %d, want 3", bad)
	}
}

func TestLayeredDigraph(t *testing.T) {
	g := LayeredDigraph(5, 4, 1)
	if g.IsDAG() {
		t.Fatal("layered digraph should contain back-edge cycles")
	}
	if !g.AllConnectedToTerminal() {
		t.Fatal("layered digraph must be connected to t")
	}
}

// TestLayeredDigraphSometimesAcyclic pins how often the back edge closes
// no cycle: it joins random vertices of adjacent layers, and when no forward
// path leads from its head back to its tail the graph is a DAG.
func TestLayeredDigraphSometimesAcyclic(t *testing.T) {
	for _, c := range []struct{ layers, width, dags int }{{4, 3, 3}, {6, 6, 7}} {
		dags := 0
		for seed := int64(1); seed <= 50; seed++ {
			if LayeredDigraph(c.layers, c.width, seed).IsDAG() {
				dags++
			}
		}
		if dags != c.dags {
			t.Errorf("%dx%d: %d of seeds 1-50 build a DAG, want %d", c.layers, c.width, dags, c.dags)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	g := RandomDAG(25, 20, 3)
	order, ok := g.TopoOrder()
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make(map[VertexID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %v violates topological order", e)
		}
	}
	if _, ok := Ring(4).TopoOrder(); ok {
		t.Fatal("ring reported acyclic")
	}
}

func TestAncestors(t *testing.T) {
	g := Line(3) // s=0 -> 1 -> 2 -> 3 -> t=4
	if !g.Ancestors(1, 3) || g.Ancestors(3, 1) || g.Ancestors(2, 2) {
		t.Fatal("Ancestors wrong on a line")
	}
}

func TestWriteDOT(t *testing.T) {
	g := Chain(2)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, func(v VertexID) string {
		if v == 1 {
			return "x"
		}
		return ""
	}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "s", "t", "->", "v1\\nx"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestCoReachable(t *testing.T) {
	// s -> a -> t, a -> b (b is a dead end).
	b := NewBuilder(4).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 3).AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	co := g.CoReachable()
	if !co[0] || !co[1] || co[2] || !co[3] {
		t.Fatalf("CoReachable = %v", co)
	}
	if g.AllConnectedToTerminal() {
		t.Fatal("dead end not detected")
	}
}

func TestAddEdgeAtExplicitPorts(t *testing.T) {
	// Build a diamond with shuffled insertion order but explicit ports.
	b := NewBuilder(4).SetRoot(0).SetTerminal(3)
	b.AddEdgeAt(2, 0, 3, 1) // inserted first, but in-port 1 of t
	b.AddEdgeAt(0, 0, 1, 0)
	b.AddEdgeAt(1, 1, 3, 0)
	b.AddEdgeAt(1, 0, 2, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e := g.OutEdge(1, 0); e.To != 2 {
		t.Fatalf("out-port 0 of v1 goes to %d, want 2", e.To)
	}
	if e := g.OutEdge(1, 1); e.To != 3 || e.ToPort != 0 {
		t.Fatalf("out-port 1 of v1 = %+v", e)
	}
	if e := g.InEdge(3, 1); e.From != 2 {
		t.Fatalf("in-port 1 of t from %d, want 2", e.From)
	}
}

func TestAddEdgeAtRejectsSparseOrDuplicatePorts(t *testing.T) {
	// Duplicate out-port.
	b := NewBuilder(3).SetRoot(0).SetTerminal(2)
	b.AddEdgeAt(0, 0, 1, 0).AddEdgeAt(1, 0, 2, 0).AddEdgeAt(1, 0, 2, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate out-port accepted")
	}
	// Sparse out-ports (port 1 without port 0).
	b = NewBuilder(3).SetRoot(0).SetTerminal(2)
	b.AddEdgeAt(0, 0, 1, 0).AddEdgeAt(1, 1, 2, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("sparse out-ports accepted")
	}
}

func TestCanonicalStringIsomorphism(t *testing.T) {
	// The same abstract network built with different vertex numberings must
	// have equal canonical strings.
	g1 := Chain(4)
	// Rebuild chain(4) with permuted vertex IDs: s=4, v_i at 3-i, t=5.
	b := NewBuilder(6).SetRoot(4).SetTerminal(5)
	b.AddEdge(4, 3)
	ids := []VertexID{3, 2, 1, 0}
	for i, v := range ids {
		if i < len(ids)-1 {
			b.AddEdge(v, ids[i+1])
		}
		b.AddEdge(v, 5)
	}
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !Isomorphic(g1, g2) {
		t.Fatalf("permuted chain not isomorphic:\n%s\n%s", g1.CanonicalString(), g2.CanonicalString())
	}
	// A genuinely different graph must differ.
	if Isomorphic(g1, Chain(5)) {
		t.Fatal("Chain(4) isomorphic to Chain(5)")
	}
	if Isomorphic(g1, Line(4)) {
		t.Fatal("Chain(4) isomorphic to Line(4)")
	}
}

func TestCanonicalStringPortSensitive(t *testing.T) {
	// Same underlying digraph, different out-port order at one vertex: NOT
	// isomorphic as anonymous networks.
	b1 := NewBuilder(4).SetRoot(0).SetTerminal(3)
	b1.AddEdge(0, 1).AddEdge(1, 2).AddEdge(1, 3).AddEdge(2, 3)
	g1, err := b1.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBuilder(4).SetRoot(0).SetTerminal(3)
	b2.AddEdge(0, 1).AddEdge(1, 3).AddEdge(1, 2).AddEdge(2, 3) // swapped ports at v1
	g2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if Isomorphic(g1, g2) {
		t.Fatal("port-swapped graphs reported isomorphic")
	}
}
