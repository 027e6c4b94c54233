// Package anonnet is a library for distributed broadcasting, unique label
// assignment, and topology mapping in directed anonymous networks, after
// Langberg, Schwartz & Bruck, "Distributed Broadcasting and Mapping
// Protocols in Directed Anonymous Networks" (PODC 2007).
//
// A directed anonymous network is a directed graph — not necessarily
// strongly connected — whose processors have no identifiers, no knowledge of
// the topology (not even |V|), and can only tell their incident edges apart
// by local port number. Two distinguished vertices exist: a root s with a
// single out-edge, where computation is initiated, and a terminal t with no
// out-edges, where results and termination are observed.
//
// The library provides:
//
//   - Broadcast: deliver a message m from s to every vertex, terminating at
//     t exactly when everyone has received it — with protocol selection by
//     graph class (grounded tree / DAG / general);
//   - AssignLabels: give every internal vertex a unique label (a
//     sub-interval of [0,1)) with no pre-existing identities anywhere;
//   - ExtractTopology: reconstruct the entire network — every vertex and
//     every port-numbered edge — at the terminal.
//
// # Engines and scheduling adversaries
//
// Every run selects an execution engine (WithEngine); the sequential engine
// additionally selects an adversarial scheduler (WithScheduler) that decides
// which in-flight message is delivered next. The paper's guarantees are
// schedule-independent, so verdicts, label uniqueness, and extracted
// topologies must agree across this whole matrix — the cross-engine
// conformance suite asserts exactly that. (docs/ARCHITECTURE.md carries the
// full engine × scheduler × recordability matrix and a decision table.)
//
//	engine       schedule source              scheduler support
//	------       ---------------              -----------------
//	seq          pluggable adversary          every adversary below
//	                                          (seeded, deterministic)
//	concurrent   Go runtime interleaving      n/a (nondeterministic)
//	sync         global rounds (Section 2)    n/a (one fixed schedule)
//	tcp          kernel loopback sockets      n/a (real transport)
//	shard        partitioned seq loops +      every adversary below,
//	             deterministic merge          one instance per shard
//	             (multi-core, WithShards)     (seeded, deterministic)
//
// The sequential adversaries, selectable by name through WithScheduler and
// the -sched CLI flags (this table is drift-guarded against
// sim.SchedulerNames by a test):
//
//	fifo            deliver in global send order (default)
//	lifo            drain the most recently activated edge first
//	random          uniformly random pending edge, seeded
//	rr-vertex       round-robin over destination vertices (fair)
//	latency         per-edge latency classes drawn from the seed
//	latency-pareto  heavy-tailed per-edge Pareto delays, seeded
//	starve-oldest   always deliver the newest message, starving the oldest
//	greedy          maximize in-flight messages (worst-case adversary)
//
// # Trace record, replay, shrink, and schedule fuzzing
//
// Any run — on any engine — can pin its schedule to a self-contained binary
// trace via WithRecordTrace. The deterministic single-threaded engines
// record their event stream directly; the wild-capture engines (concurrent,
// TCP, shard) capture their schedule through a serializing observer and
// canonicalize it with one sequential replay, so even a one-off Go-runtime
// or kernel-socket schedule becomes reproducible. WithReplayTrace re-executes
// a recorded schedule byte-identically on the sequential engine, erroring
// loudly on a graph, protocol, or behavior mismatch. The trace embeds the
// network, so TraceData.Network rebuilds it from the file alone; the
// complete binary format specification is docs/TRACE_FORMAT.md.
//
// WithScheduleFuzz goes one step further: it mutates the recorded schedule
// into nearby valid schedules and re-runs each one, demanding the paper's
// schedule-independent outcome stays invariant — any violation is
// delta-debugged to a 1-minimal repro trace (see internal/replay/fuzz).
// cmd/anonshrink exposes the same machinery on the command line (record /
// replay / shrink / fuzz), and the conformance suite auto-shrinks and saves
// a repro trace whenever a matrix cell diverges (see internal/replay).
package anonnet

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
)

// VertexID identifies a vertex of a Network to the caller (the protocols
// themselves never see identities).
type VertexID = graph.VertexID

// Class describes which protocol family a network admits.
type Class int

// Network classes, in increasing generality.
const (
	// ClassGroundedTree: every vertex has in-degree 1 except the root (0)
	// and the terminal (any). Admits the cheapest broadcast.
	ClassGroundedTree Class = iota + 1
	// ClassDAG: acyclic. Admits the scalar-commodity broadcast.
	ClassDAG
	// ClassGeneral: arbitrary, possibly cyclic.
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

// Network is an immutable directed anonymous network.
type Network struct {
	g *graph.G
}

func wrap(g *graph.G) *Network { return &Network{g: g} }

// NumVertices returns |V|.
func (n *Network) NumVertices() int { return n.g.NumVertices() }

// NumEdges returns |E|.
func (n *Network) NumEdges() int { return n.g.NumEdges() }

// Root returns the root vertex s.
func (n *Network) Root() VertexID { return n.g.Root() }

// Terminal returns the terminal vertex t.
func (n *Network) Terminal() VertexID { return n.g.Terminal() }

// MaxOutDegree returns d_out.
func (n *Network) MaxOutDegree() int { return n.g.MaxOutDegree() }

// Class returns the most specific class of the network.
func (n *Network) Class() Class { return Class(n.g.Classify()) }

// AllConnectedToTerminal reports whether every vertex can reach t — the
// exact condition under which the protocols terminate.
func (n *Network) AllConnectedToTerminal() bool { return n.g.AllConnectedToTerminal() }

// WriteDOT writes the network in Graphviz DOT format. vertexLabel may be nil
// or return extra per-vertex annotation.
func (n *Network) WriteDOT(w io.Writer, vertexLabel func(VertexID) string) error {
	return n.g.WriteDOT(w, vertexLabel)
}

// String summarizes the network.
func (n *Network) String() string { return n.g.String() }

// graphHandle gives the rest of the module access to the underlying graph.
func (n *Network) graphHandle() *graph.G { return n.g }

// Builder assembles a custom Network.
type Builder struct {
	b *graph.Builder
}

// NewBuilder returns a Builder for a network with nVertices vertices,
// numbered 0..nVertices-1.
func NewBuilder(nVertices int) *Builder {
	return &Builder{b: graph.NewBuilder(nVertices)}
}

// AddVertex appends a fresh vertex and returns its ID.
func (b *Builder) AddVertex() VertexID { return b.b.AddVertex() }

// AddEdge adds a directed edge u -> v; ports are assigned in insertion
// order. Parallel edges are allowed.
func (b *Builder) AddEdge(u, v VertexID) *Builder { b.b.AddEdge(u, v); return b }

// SetRoot designates the root s (no in-edges, exactly one out-edge).
func (b *Builder) SetRoot(v VertexID) *Builder { b.b.SetRoot(v); return b }

// SetTerminal designates the terminal t (no out-edges).
func (b *Builder) SetTerminal(v VertexID) *Builder { b.b.SetTerminal(v); return b }

// SetName attaches a human-readable name used in reports.
func (b *Builder) SetName(name string) *Builder { b.b.SetName(name); return b }

// AllowWideRoot permits a root with more than one outgoing edge (the paper's
// Section 2 extension); the unit commodity is split across the root's ports.
func (b *Builder) AllowWideRoot() *Builder { b.b.AllowWideRoot(); return b }

// Build validates the model constraints and returns the network.
func (b *Builder) Build() (*Network, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// ErrNotTerminated is returned when a protocol run ends quiescent: some
// vertex cannot reach the terminal, so by design the protocol must not (and
// did not) declare termination.
var ErrNotTerminated = errors.New("anonnet: protocol did not terminate (some vertex cannot reach the terminal)")

// MarshalText renders the network in the library's line-oriented text
// format; ParseNetwork reads it back with identical port numbering.
func (n *Network) MarshalText() []byte { return n.g.MarshalText() }

// ParseNetwork reads a network in the text format produced by MarshalText:
//
//	anonnet v1
//	vertices 5
//	root 0
//	terminal 4
//	edge 0 1
//	...
//
// Edge order defines the port numbering the anonymous protocols observe.
func ParseNetwork(r io.Reader) (*Network, error) {
	g, err := graph.ParseText(r)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}
