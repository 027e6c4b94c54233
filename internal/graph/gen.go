package graph

import (
	"fmt"
	"math/rand"
)

// Chain returns the grounded tree G_n of Theorem 3.2 (Figure 5):
// s -> v_1, v_i -> v_{i+1} for i < n, and v_i -> t for every i.
// It has n+2 vertices and 2n edges and forces any broadcasting protocol to
// use an alphabet of at least n+1 symbols (Lemma 3.7).
func Chain(n int) *G {
	if n < 1 {
		panic("graph: Chain requires n >= 1")
	}
	b := NewBuilder(n + 2).SetName(fmt.Sprintf("chain(%d)", n))
	s := VertexID(0)
	t := VertexID(n + 1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	for i := 1; i <= n; i++ {
		if i < n {
			b.AddEdge(VertexID(i), VertexID(i+1))
		}
		b.AddEdge(VertexID(i), t)
	}
	return b.MustBuild()
}

// Line returns the path s -> v_1 -> ... -> v_n -> t, the simplest grounded
// tree.
func Line(n int) *G {
	if n < 1 {
		panic("graph: Line requires n >= 1")
	}
	b := NewBuilder(n + 2).SetName(fmt.Sprintf("line(%d)", n))
	b.SetRoot(0).SetTerminal(VertexID(n + 1))
	for i := 0; i <= n; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.MustBuild()
}

// KaryGroundedTree returns the full d-ary tree of height h with edges
// directed away from the root, all leaves connected to the terminal, and the
// root attached below s (our model requires s to have out-degree one). This
// is the large graph of Theorem 5.2's lower-bound argument (Figure 6a).
func KaryGroundedTree(h, d int) *G {
	if h < 0 || d < 1 {
		panic("graph: KaryGroundedTree requires h >= 0, d >= 1")
	}
	// Tree vertices: 1 + d + d^2 + ... + d^h.
	nTree := 1
	pow := 1
	for i := 0; i < h; i++ {
		pow *= d
		nTree += pow
	}
	b := NewBuilder(nTree + 2).SetName(fmt.Sprintf("karyTree(h=%d,d=%d)", h, d))
	s := VertexID(0)
	t := VertexID(nTree + 1)
	b.SetRoot(s).SetTerminal(t)
	// Tree vertices occupy IDs 1..nTree in BFS order.
	b.AddEdge(s, 1)
	next := 2
	level := []VertexID{1}
	for depth := 0; depth < h; depth++ {
		var nextLevel []VertexID
		for _, v := range level {
			for c := 0; c < d; c++ {
				w := VertexID(next)
				next++
				b.AddEdge(v, w)
				nextLevel = append(nextLevel, w)
			}
		}
		level = nextLevel
	}
	for _, leaf := range level {
		b.AddEdge(leaf, t)
	}
	return b.MustBuild()
}

// PrunedTree returns the pruned graph of Theorem 5.2 (Figure 6b): the path
// from the root of a full (h, d)-tree to one deep leaf v, where at every
// internal path vertex the other d-1 child edges are rewired directly to t.
// The labeling protocol behaves on the path exactly as it does in the full
// tree, so v still receives an Omega(h log d)-bit label although the graph
// has only h+3 vertices.
//
// The path follows child index childIdx (0-based) at every level, so callers
// can compare v's label against the corresponding leaf of KaryGroundedTree.
func PrunedTree(h, d, childIdx int) *G {
	if h < 1 || d < 1 || childIdx < 0 || childIdx >= d {
		panic("graph: PrunedTree parameter out of range")
	}
	// Vertices: s, p_0..p_h, t  ->  h+3 total.
	b := NewBuilder(h + 3).SetName(fmt.Sprintf("prunedTree(h=%d,d=%d,c=%d)", h, d, childIdx))
	s := VertexID(0)
	t := VertexID(h + 2)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1) // p_0 has ID 1, p_i has ID i+1.
	for i := 0; i < h; i++ {
		p := VertexID(i + 1)
		// Out-ports of p must be assigned in the same order as in the full
		// tree so the anonymous protocol cannot tell the graphs apart: child
		// edges come first (ports 0..d-1), with port childIdx continuing the
		// path and all others going to t.
		for c := 0; c < d; c++ {
			if c == childIdx {
				b.AddEdge(p, VertexID(i+2))
			} else {
				b.AddEdge(p, t)
			}
		}
	}
	b.AddEdge(VertexID(h+1), t) // the deep leaf v = p_h
	return b.MustBuild()
}

// PrunedLeaf returns the vertex ID of the deep leaf v in PrunedTree's output.
func PrunedLeaf(h int) VertexID { return VertexID(h + 1) }

// KaryLeafOnPath returns, for KaryGroundedTree(h, d), the vertex ID of the
// leaf reached by following child index childIdx at every level.
func KaryLeafOnPath(h, d, childIdx int) VertexID {
	// BFS IDs: root is 1; children of vertex with BFS index i (0-based among
	// tree vertices) start at 1 + (levelStart offset). Walk down levels.
	v := 1 // root ID
	levelStart := 1
	levelSize := 1
	idxInLevel := 0
	for depth := 0; depth < h; depth++ {
		nextStart := levelStart + levelSize
		idxInLevel = idxInLevel*d + childIdx
		levelStart = nextStart
		levelSize *= d
		v = levelStart + idxInLevel
	}
	return VertexID(v)
}

// Skeleton returns the commodity-preserving lower-bound graph of Theorem 3.8
// (Figure 4) with splitting depth 2n and subset S of the even-indexed side
// vertices {u_0, u_2, ..., u_{2n-2}} rewired to the auxiliary vertex w.
// sel[i] == true means u_{2i} is connected to w; len(sel) must be n.
//
// Any commodity-preserving protocol sends a different total quantity from w
// to t for each of the 2^n choices of sel, so some quantity needs Omega(n)
// bits while the graph has only O(n) edges.
func Skeleton(n int, sel []bool) *G {
	if n < 1 || len(sel) != n {
		panic("graph: Skeleton requires n >= 1 and len(sel) == n")
	}
	anySel := false
	for _, s := range sel {
		anySel = anySel || s
	}
	// IDs: s=0, v_i = 1+i for i in 0..2n-1, u_i = 1+2n+i for i in 0..2n-2,
	// then w (only if some u selects it), then t. With the empty selection w
	// would be unreachable from s, so it is omitted and the w->t quantity is
	// zero by construction.
	total := 4*n + 1
	if anySel {
		total++
	}
	b := NewBuilder(total).SetName(fmt.Sprintf("skeleton(%d)", n))
	s := VertexID(0)
	vID := func(i int) VertexID { return VertexID(1 + i) }
	uID := func(i int) VertexID { return VertexID(1 + 2*n + i) }
	w := VertexID(4 * n)
	t := VertexID(total - 1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, vID(0))
	for i := 0; i <= 2*n-2; i++ {
		// Out-port 0 is the "left" edge continuing the spine; out-port 1 is
		// the "right" edge to u_i. The protocol under test is free to send
		// the smaller share either way; the lower-bound driver sorts shares.
		b.AddEdge(vID(i), vID(i+1))
		b.AddEdge(vID(i), uID(i))
	}
	b.AddEdge(vID(2*n-1), t)
	for i := 0; i <= 2*n-2; i++ {
		switch {
		case i%2 == 1:
			b.AddEdge(uID(i), t)
		case sel[i/2]:
			b.AddEdge(uID(i), w)
		default:
			b.AddEdge(uID(i), t)
		}
	}
	if anySel {
		b.AddEdge(w, t)
	}
	return b.MustBuild()
}

// SkeletonWEdge returns the edge ID of the w -> t edge of Skeleton(n, sel)
// (always the last edge added), or ok == false when the selection was empty
// and w does not exist.
func SkeletonWEdge(g *G) (EdgeID, bool) {
	// Skeleton(n, sel) has 4n+2 vertices when w exists and 4n+1 otherwise,
	// so the vertex count mod 4 distinguishes the cases unambiguously.
	if g.NumVertices()%4 == 2 {
		return EdgeID(g.NumEdges() - 1), true
	}
	return 0, false
}

// Ring returns a directed cycle s -> v_1 -> v_2 -> ... -> v_n -> v_1 with
// every v_i also connected to t. The smallest natural family exercising the
// beta (cycle-detection) machinery of the Section 4 protocol.
func Ring(n int) *G {
	if n < 2 {
		panic("graph: Ring requires n >= 2")
	}
	b := NewBuilder(n + 2).SetName(fmt.Sprintf("ring(%d)", n))
	s := VertexID(0)
	t := VertexID(n + 1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	for i := 1; i <= n; i++ {
		next := VertexID(i + 1)
		if i == n {
			next = 1
		}
		b.AddEdge(VertexID(i), next)
		b.AddEdge(VertexID(i), t)
	}
	return b.MustBuild()
}

// RandomGroundedTree returns a random grounded tree with n internal vertices:
// a uniformly random recursive tree on v_1..v_n under s, every leaf wired to
// t, and additional v_i -> t edges with probability extraT.
func RandomGroundedTree(n int, extraT float64, seed int64) *G {
	if n < 1 {
		panic("graph: RandomGroundedTree requires n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n + 2).SetName(fmt.Sprintf("randTree(%d,seed=%d)", n, seed))
	s := VertexID(0)
	t := VertexID(n + 1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	hasChild := make([]bool, n+1)
	for i := 2; i <= n; i++ {
		parent := VertexID(rng.Intn(i-1) + 1)
		b.AddEdge(parent, VertexID(i))
		hasChild[parent] = true
	}
	for i := 1; i <= n; i++ {
		if !hasChild[i] || rng.Float64() < extraT {
			b.AddEdge(VertexID(i), t)
		}
	}
	return b.MustBuild()
}

// RandomDAG returns a random connected DAG with n internal vertices and
// roughly extra additional forward edges beyond the spanning structure.
// Every vertex is reachable from s and can reach t.
func RandomDAG(n, extra int, seed int64) *G {
	if n < 1 {
		panic("graph: RandomDAG requires n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n + 2).SetName(fmt.Sprintf("randDAG(%d,%d,seed=%d)", n, extra, seed))
	s := VertexID(0)
	t := VertexID(n + 1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	outDeg := make([]int, n+1)
	for i := 2; i <= n; i++ {
		parent := rng.Intn(i-1) + 1
		b.AddEdge(VertexID(parent), VertexID(i))
		outDeg[parent]++
	}
	for k := 0; k < extra; k++ {
		// Forward edge keeps the graph acyclic.
		i := rng.Intn(n) + 1
		j := rng.Intn(n) + 1
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		b.AddEdge(VertexID(i), VertexID(j))
		outDeg[i]++
	}
	for i := 1; i <= n; i++ {
		if outDeg[i] == 0 || rng.Float64() < 0.2 {
			b.AddEdge(VertexID(i), t)
		}
	}
	return b.MustBuild()
}

// RandomDigraphOpts configures RandomDigraph.
type RandomDigraphOpts struct {
	// ExtraEdges is the number of random edges added beyond the spanning
	// tree; back edges create cycles.
	ExtraEdges int
	// Orphans adds this many vertices that are reachable from s but cannot
	// reach t (a sink cluster), so the protocols must not terminate
	// (Theorems 3.1/4.2/5.1 "only if" direction).
	Orphans int
	// TerminalFrac is the probability that an internal vertex gets a direct
	// edge to t in addition to guaranteed co-reachability wiring.
	TerminalFrac float64
}

// RandomDigraph returns a random general directed network with n internal
// vertices. Unless opts.Orphans > 0, every vertex can reach t.
func RandomDigraph(n int, seed int64, opts RandomDigraphOpts) *G {
	if n < 1 {
		panic("graph: RandomDigraph requires n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	total := n + 2 + opts.Orphans
	b := NewBuilder(total).SetName(fmt.Sprintf("randDigraph(%d,seed=%d)", n, seed))
	s := VertexID(0)
	t := VertexID(n + 1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	// Spanning recursive tree guarantees reachability from s.
	for i := 2; i <= n; i++ {
		parent := rng.Intn(i-1) + 1
		b.AddEdge(VertexID(parent), VertexID(i))
	}
	// Extra edges in arbitrary directions (cycles welcome).
	for k := 0; k < opts.ExtraEdges; k++ {
		i := rng.Intn(n) + 1
		j := rng.Intn(n) + 1
		if i == j {
			continue
		}
		b.AddEdge(VertexID(i), VertexID(j))
	}
	for i := 1; i <= n; i++ {
		if rng.Float64() < opts.TerminalFrac {
			b.AddEdge(VertexID(i), t)
		}
	}
	// Guarantee co-reachability: in vertex order, wire each vertex that
	// cannot reach t straight to t, then mark its ancestors, which now
	// reach t through it. This adds the edges a fixpoint loop (wire the
	// first vertex that cannot reach t, recompute, repeat) would, in the
	// same order, in one pass over the edges.
	inAdj := make([][]VertexID, n+2)
	for _, e := range b.edges {
		inAdj[e.To] = append(inAdj[e.To], e.From)
	}
	reach := make([]bool, n+2)
	var stack []VertexID
	mark := func(v VertexID) {
		reach[v] = true
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range inAdj[v] {
				if !reach[u] {
					reach[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	mark(t)
	for i := 1; i <= n; i++ {
		if !reach[i] {
			b.AddEdge(VertexID(i), t)
			mark(VertexID(i))
		}
	}
	// Orphans: reachable from s, no path to t.
	for k := 0; k < opts.Orphans; k++ {
		o := VertexID(n + 2 + k)
		from := VertexID(rng.Intn(n) + 1)
		b.AddEdge(from, o)
		if k > 0 && rng.Intn(2) == 0 {
			b.AddEdge(o, VertexID(n+2+rng.Intn(k))) // edges within the sink cluster
		}
	}
	return b.MustBuild()
}

// LayeredDigraph returns a general digraph of `layers` layers of `width`
// vertices with dense forward edges plus one back edge per inner layer, for
// scaling sweeps with controllable d_out. The back edge joins a random
// vertex of a layer to a random vertex of the layer before, so it closes a
// cycle only when a forward path leads from its head back to its tail, and
// some seeds build a DAG: 3 of seeds 1–50 at 4×3, 7 of 50 at 6×6. A sweep
// that needs cycles checks IsDAG.
func LayeredDigraph(layers, width int, seed int64) *G {
	if layers < 1 || width < 1 {
		panic("graph: LayeredDigraph requires layers >= 1 and width >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	n := layers * width
	b := NewBuilder(n + 2).SetName(fmt.Sprintf("layered(%dx%d,seed=%d)", layers, width, seed))
	s := VertexID(0)
	t := VertexID(n + 1)
	b.SetRoot(s).SetTerminal(t)
	id := func(layer, i int) VertexID { return VertexID(1 + layer*width + i) }
	b.AddEdge(s, id(0, 0))
	// Fan the first layer out from its first vertex.
	for i := 1; i < width; i++ {
		b.AddEdge(id(0, 0), id(0, i))
	}
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			// Two forward edges per vertex.
			b.AddEdge(id(l, i), id(l+1, i))
			b.AddEdge(id(l, i), id(l+1, rng.Intn(width)))
		}
		// One back edge creating a cycle.
		if l > 0 {
			b.AddEdge(id(l, rng.Intn(width)), id(l-1, rng.Intn(width)))
		}
	}
	for i := 0; i < width; i++ {
		b.AddEdge(id(layers-1, i), t)
	}
	return b.MustBuild()
}
