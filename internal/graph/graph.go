// Package graph models the directed anonymous networks of the paper: directed
// multigraphs whose vertices have no identities, know only their own in/out
// degrees, and address their incident edges by local port number. Two special
// vertices exist: the root s (no in-edges) and the terminal t (no out-edges).
//
// Vertex IDs exist only for the benefit of the simulator and the test
// harness; the protocols never see them. What a protocol observes at a vertex
// is exactly (in-degree, out-degree, port number of each event), matching the
// paper's model in Section 2.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex to the simulator (not to the protocol).
type VertexID int

// EdgeID identifies an edge to the simulator (not to the protocol).
type EdgeID int

// Edge is a directed edge with its port numbers at both ends: it leaves
// From's out-port FromPort and enters To's in-port ToPort.
type Edge struct {
	ID       EdgeID
	From     VertexID
	FromPort int
	To       VertexID
	ToPort   int
}

// G is an immutable directed anonymous network.
//
// Adjacency is stored in compressed-sparse-row form: one flat edge-ID array
// per direction plus a per-vertex offset index, so the whole graph is six
// allocations regardless of |V|, vertex degree reads are two index
// subtractions, and walking a vertex's ports is a contiguous slice scan —
// the representation the simulators' hot loops traverse millions of times
// per sweep. Port order is preserved: outCSR[outOff[v]+j] is the edge
// leaving v's out-port j.
type G struct {
	name     string
	edges    []Edge
	outOff   []int32  // len |V|+1; out-ports of v live at outCSR[outOff[v]:outOff[v+1]]
	outCSR   []EdgeID // flattened out-adjacency, port order
	inOff    []int32  // len |V|+1; in-ports of v live at inCSR[inOff[v]:inOff[v+1]]
	inCSR    []EdgeID // flattened in-adjacency, port order
	root     VertexID
	terminal VertexID
}

// Errors returned by Build.
var (
	ErrNoRoot           = errors.New("graph: no root designated")
	ErrNoTerminal       = errors.New("graph: no terminal designated")
	ErrRootHasIn        = errors.New("graph: root must have no incoming edges")
	ErrRootOutDegree    = errors.New("graph: root must have exactly one outgoing edge")
	ErrTerminalHasOut   = errors.New("graph: terminal must have no outgoing edges")
	ErrUnreachable      = errors.New("graph: not all vertices are reachable from the root")
	ErrVertexOutOfRange = errors.New("graph: vertex out of range")
)

// Builder assembles a graph. The zero value is not usable; call NewBuilder.
type Builder struct {
	n        int
	edges    []Edge
	outDeg   []int
	inDeg    []int
	root     VertexID
	terminal VertexID
	hasRoot  bool
	hasTerm  bool
	wideRoot bool
	name     string
}

// NewBuilder returns a Builder for a graph with n vertices (0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, outDeg: make([]int, n), inDeg: make([]int, n)}
}

// SetName attaches a human-readable name used in reports.
func (b *Builder) SetName(name string) *Builder { b.name = name; return b }

// AllowWideRoot permits a root with more than one outgoing edge — the
// Section 2 extension. Protocols must implement protocol.MultiInitializer to
// run on such graphs.
func (b *Builder) AllowWideRoot() *Builder { b.wideRoot = true; return b }

// AddVertex appends a fresh vertex and returns its ID.
func (b *Builder) AddVertex() VertexID {
	b.outDeg = append(b.outDeg, 0)
	b.inDeg = append(b.inDeg, 0)
	b.n++
	return VertexID(b.n - 1)
}

// AddEdge adds a directed edge u -> v, assigning the next free out-port of u
// and in-port of v. Parallel edges and self-loops are permitted by the model.
// Endpoints must identify existing vertices; this is a programmer-error
// panic, untrusted input is validated by ParseText before reaching here.
func (b *Builder) AddEdge(u, v VertexID) *Builder {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0, %d)", u, v, b.n))
	}
	e := Edge{
		ID:       EdgeID(len(b.edges)),
		From:     u,
		FromPort: b.outDeg[u],
		To:       v,
		ToPort:   b.inDeg[v],
	}
	b.outDeg[u]++
	b.inDeg[v]++
	b.edges = append(b.edges, e)
	return b
}

// AddEdgeAt adds a directed edge u -> v with explicit port numbers at both
// ends, for reconstructing a graph whose port numbering is already fixed
// (e.g. from an extracted Topology). Each vertex's ports must end up dense
// (exactly 0..deg-1); Build validates this. Do not mix AddEdge and AddEdgeAt
// on the same vertex.
func (b *Builder) AddEdgeAt(u VertexID, uPort int, v VertexID, vPort int) *Builder {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: AddEdgeAt(%d, %d) out of range [0, %d)", u, v, b.n))
	}
	if uPort < 0 || vPort < 0 {
		panic("graph: AddEdgeAt negative port")
	}
	e := Edge{
		ID:       EdgeID(len(b.edges)),
		From:     u,
		FromPort: uPort,
		To:       v,
		ToPort:   vPort,
	}
	if uPort >= b.outDeg[u] {
		b.outDeg[u] = uPort + 1
	}
	if vPort >= b.inDeg[v] {
		b.inDeg[v] = vPort + 1
	}
	b.edges = append(b.edges, e)
	return b
}

// SetRoot designates the root vertex s.
func (b *Builder) SetRoot(v VertexID) *Builder { b.root, b.hasRoot = v, true; return b }

// SetTerminal designates the terminal vertex t.
func (b *Builder) SetTerminal(v VertexID) *Builder { b.terminal, b.hasTerm = v, true; return b }

// Build validates the model constraints of Section 2 and returns the graph:
// the root has no in-edges and exactly one out-edge, the terminal has no
// out-edges, and every vertex is reachable from the root (the paper's
// standing simplification).
func (b *Builder) Build() (*G, error) {
	if !b.hasRoot {
		return nil, ErrNoRoot
	}
	if !b.hasTerm {
		return nil, ErrNoTerminal
	}
	if b.root < 0 || int(b.root) >= b.n || b.terminal < 0 || int(b.terminal) >= b.n {
		return nil, ErrVertexOutOfRange
	}
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= b.n || e.To < 0 || int(e.To) >= b.n {
			return nil, ErrVertexOutOfRange
		}
	}
	g := &G{
		name:     b.name,
		edges:    append([]Edge(nil), b.edges...),
		outOff:   make([]int32, b.n+1),
		outCSR:   make([]EdgeID, len(b.edges)),
		inOff:    make([]int32, b.n+1),
		inCSR:    make([]EdgeID, len(b.edges)),
		root:     b.root,
		terminal: b.terminal,
	}
	// CSR offsets by prefix sum over the degree counts the builder tracked.
	for v := 0; v < b.n; v++ {
		g.outOff[v+1] = g.outOff[v] + int32(b.outDeg[v])
		g.inOff[v+1] = g.inOff[v] + int32(b.inDeg[v])
	}
	if int(g.outOff[b.n]) != len(b.edges) || int(g.inOff[b.n]) != len(b.edges) {
		// Degrees can exceed edge count only via AddEdgeAt port gaps; the
		// dense-port validation below would reject these, but the CSR arrays
		// must be big enough to run it.
		g.outCSR = make([]EdgeID, g.outOff[b.n])
		g.inCSR = make([]EdgeID, g.inOff[b.n])
	}
	const unset = EdgeID(-1)
	for i := range g.outCSR {
		g.outCSR[i] = unset
	}
	for i := range g.inCSR {
		g.inCSR[i] = unset
	}
	// Place edges by port and validate that ports are dense and unique.
	for _, e := range b.edges {
		op := g.outOff[e.From] + int32(e.FromPort)
		if g.outCSR[op] != unset {
			return nil, fmt.Errorf("graph: vertex %d out-port %d assigned twice", e.From, e.FromPort)
		}
		ip := g.inOff[e.To] + int32(e.ToPort)
		if g.inCSR[ip] != unset {
			return nil, fmt.Errorf("graph: vertex %d in-port %d assigned twice", e.To, e.ToPort)
		}
		g.outCSR[op] = e.ID
		g.inCSR[ip] = e.ID
	}
	for v := VertexID(0); int(v) < b.n; v++ {
		for j, id := range g.OutEdgeIDs(v) {
			if id == unset {
				return nil, fmt.Errorf("graph: vertex %d out-port %d unassigned (ports must be dense)", v, j)
			}
		}
		for j, id := range g.InEdgeIDs(v) {
			if id == unset {
				return nil, fmt.Errorf("graph: vertex %d in-port %d unassigned (ports must be dense)", v, j)
			}
		}
	}
	if g.InDegree(g.root) != 0 {
		return nil, ErrRootHasIn
	}
	if !b.wideRoot && g.OutDegree(g.root) != 1 {
		return nil, fmt.Errorf("%w (has %d)", ErrRootOutDegree, g.OutDegree(g.root))
	}
	if g.OutDegree(g.root) == 0 {
		return nil, fmt.Errorf("%w (has 0)", ErrRootOutDegree)
	}
	if g.OutDegree(g.terminal) != 0 {
		return nil, ErrTerminalHasOut
	}
	if !g.allReachableFromRoot() {
		return nil, ErrUnreachable
	}
	return g, nil
}

// MustBuild is Build for generators whose constructions are correct by
// design; it panics on error.
func (b *Builder) MustBuild() *G {
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: MustBuild: %v", err))
	}
	return g
}

// Name returns the graph's human-readable name.
func (g *G) Name() string { return g.name }

// Renamed returns g under another name. The copy shares g's immutable
// adjacency.
func (g *G) Renamed(name string) *G {
	c := *g
	c.name = name
	return &c
}

// NumVertices returns |V|.
func (g *G) NumVertices() int { return len(g.outOff) - 1 }

// NumEdges returns |E|.
func (g *G) NumEdges() int { return len(g.edges) }

// Root returns s.
func (g *G) Root() VertexID { return g.root }

// Terminal returns t.
func (g *G) Terminal() VertexID { return g.terminal }

// Edge returns the edge with the given ID.
func (g *G) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns all edges. The caller must not modify the returned slice.
func (g *G) Edges() []Edge { return g.edges }

// OutDegree returns the out-degree of v.
func (g *G) OutDegree(v VertexID) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the in-degree of v.
func (g *G) InDegree(v VertexID) int { return int(g.inOff[v+1] - g.inOff[v]) }

// OutEdge returns the edge leaving v's out-port j.
func (g *G) OutEdge(v VertexID, j int) Edge { return g.edges[g.outCSR[int(g.outOff[v])+j]] }

// InEdge returns the edge entering v's in-port i.
func (g *G) InEdge(v VertexID, i int) Edge { return g.edges[g.inCSR[int(g.inOff[v])+i]] }

// OutEdgeIDs returns the edges leaving v, indexed by out-port: a view into
// the CSR array, allocation-free. The caller must not modify it.
func (g *G) OutEdgeIDs(v VertexID) []EdgeID { return g.outCSR[g.outOff[v]:g.outOff[v+1]] }

// InEdgeIDs returns the edges entering v, indexed by in-port: a view into
// the CSR array, allocation-free. The caller must not modify it.
func (g *G) InEdgeIDs(v VertexID) []EdgeID { return g.inCSR[g.inOff[v]:g.inOff[v+1]] }

// MaxOutDegree returns d_out, the maximal out-degree in the network.
func (g *G) MaxOutDegree() int {
	m := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > m {
			m = d
		}
	}
	return m
}

func (g *G) allReachableFromRoot() bool {
	seen := g.reachableFrom(g.root)
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

func (g *G) reachableFrom(start VertexID) []bool {
	seen := make([]bool, g.NumVertices())
	stack := []VertexID{start}
	seen[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.OutEdgeIDs(v) {
			w := g.edges[eid].To
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// CoReachable returns, for each vertex, whether the terminal is reachable
// from it. The protocols terminate iff this holds for every vertex
// (Theorems 3.1, 4.2, 5.1).
func (g *G) CoReachable() []bool {
	seen := make([]bool, g.NumVertices())
	stack := []VertexID{g.terminal}
	seen[g.terminal] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.InEdgeIDs(v) {
			u := g.edges[eid].From
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return seen
}

// AllConnectedToTerminal reports whether every vertex can reach t.
func (g *G) AllConnectedToTerminal() bool {
	for _, ok := range g.CoReachable() {
		if !ok {
			return false
		}
	}
	return true
}

// IsGroundedTree reports whether g is a grounded tree (Section 3): every
// vertex has in-degree 1 except the root (0) and the terminal (any).
func (g *G) IsGroundedTree() bool {
	for v := 0; v < g.NumVertices(); v++ {
		switch VertexID(v) {
		case g.root:
			if g.InDegree(g.root) != 0 {
				return false
			}
		case g.terminal:
			// any in-degree
		default:
			if g.InDegree(VertexID(v)) != 1 {
				return false
			}
		}
	}
	return true
}

// IsDAG reports whether g has no directed cycle.
func (g *G) IsDAG() bool {
	_, ok := g.TopoOrder()
	return ok
}

// TopoOrder returns a topological order of the vertices, or ok == false if g
// contains a cycle.
func (g *G) TopoOrder() ([]VertexID, bool) {
	nV := g.NumVertices()
	indeg := make([]int, nV)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var queue []VertexID
	for v := range indeg {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, nV)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, eid := range g.OutEdgeIDs(v) {
			w := g.edges[eid].To
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != nV {
		return nil, false
	}
	return order, true
}

// Class describes which protocol family a graph admits.
type Class int

// Graph classes in increasing generality.
const (
	ClassGroundedTree Class = iota + 1
	ClassDAG
	ClassGeneral
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassGroundedTree:
		return "grounded-tree"
	case ClassDAG:
		return "dag"
	case ClassGeneral:
		return "general"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify returns the most specific class of g.
func (g *G) Classify() Class {
	if g.IsGroundedTree() {
		return ClassGroundedTree
	}
	if g.IsDAG() {
		return ClassDAG
	}
	return ClassGeneral
}

// Ancestors reports, for DAGs, whether u is an ancestor of w (there is a
// directed path u -> ... -> w). Used by the linear-cut machinery.
func (g *G) Ancestors(u, w VertexID) bool {
	if u == w {
		return false
	}
	return g.reachableFrom(u)[w]
}

// String summarizes the graph.
func (g *G) String() string {
	return fmt.Sprintf("%s{|V|=%d |E|=%d class=%s}", g.name, g.NumVertices(), g.NumEdges(), g.Classify())
}
