package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
)

// MapExtract is the topology-extraction protocol (the "mapping" application
// the paper motivates in Sections 1 and 6; the paper asserts labels enable
// it but gives no protocol — see DESIGN.md section 3 for the construction).
//
// It runs the Section 5 labeling protocol and additionally floods edge
// records: every message carries its sender's label, out-degree and the
// out-port it left on; the receiver — which got its own label on its first
// receipt — completes the record (fromLabel, outPort) -> (toLabel, inPort)
// and floods every record it learns on all its out-edges exactly once.
//
// The terminal declares termination when its record set is *closed*: every
// vertex discoverable from the root through recorded edges has all of its
// declared out-ports accounted for. Closure is sound because every vertex is
// reachable from the root: a missing vertex implies a missing edge on its
// path, i.e. an unaccounted out-port of a discovered vertex. It is complete
// because every edge carries at least one message and every record reaches t
// by flooding whenever all vertices are connected to t.
type MapExtract struct {
	payload Payload
}

var _ protocol.Protocol = (*MapExtract)(nil)

// NewMapExtract returns the topology-extraction protocol.
func NewMapExtract(m []byte) *MapExtract {
	return &MapExtract{payload: Payload(m)}
}

// Name implements protocol.Protocol.
func (p *MapExtract) Name() string { return "mapcast" }

// InitialMessage implements protocol.Protocol: the root announces itself
// with the reserved root endpoint; its out-degree is 1 by the model.
func (p *MapExtract) InitialMessage() protocol.Message {
	return mapMsg{
		gc:        gcMsg{payload: p.payload, alpha: interval.FullUnion()},
		sender:    Endpoint{Kind: EndpointRoot},
		senderDeg: 1,
		outPort:   0,
	}
}

// NewNode implements protocol.Protocol.
func (p *MapExtract) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &mapTerminal{records: map[string]EdgeRecord{}}
	}
	return &mapNode{
		inner:   labelNode{outDeg: outDeg, gcState: newGCState(p.payload, outDeg)},
		outDeg:  outDeg,
		records: map[string]EdgeRecord{},
	}
}

// EndpointKind distinguishes the three kinds of map vertices.
type EndpointKind int

// Endpoint kinds.
const (
	// EndpointRoot is the distinguished root s.
	EndpointRoot EndpointKind = iota + 1
	// EndpointTerminal is the distinguished terminal t.
	EndpointTerminal
	// EndpointLabeled is an internal vertex identified by its label.
	EndpointLabeled
)

// Endpoint identifies a vertex in the extracted map: the root, the terminal,
// or an internal vertex named by its unique label interval.
type Endpoint struct {
	Kind  EndpointKind
	Label interval.Interval // set when Kind == EndpointLabeled
}

// Key returns a canonical string for map indexing.
func (e Endpoint) Key() string {
	switch e.Kind {
	case EndpointRoot:
		return "s"
	case EndpointTerminal:
		return "t"
	default:
		return e.Label.String()
	}
}

// Bits returns the encoding cost of the endpoint.
func (e Endpoint) Bits() int {
	if e.Kind == EndpointLabeled {
		return 2 + e.Label.EncodedBits()
	}
	return 2
}

// EdgeRecord describes one directed edge of the extracted topology.
type EdgeRecord struct {
	From       Endpoint
	FromOutDeg int
	OutPort    int
	To         Endpoint
	InPort     int
}

// Key returns a canonical string identifying the edge.
func (r EdgeRecord) Key() string {
	return fmt.Sprintf("%s#%d->%s#%d", r.From.Key(), r.OutPort, r.To.Key(), r.InPort)
}

// Bits returns the encoding cost of the record.
func (r EdgeRecord) Bits() int {
	return r.From.Bits() + r.To.Bits() +
		gammaBits(r.FromOutDeg) + gammaBits(r.OutPort) + gammaBits(r.InPort)
}

// String renders the record.
func (r EdgeRecord) String() string {
	return fmt.Sprintf("%s[deg %d] port %d -> %s port %d", r.From.Key(), r.FromOutDeg, r.OutPort, r.To.Key(), r.InPort)
}

// mapMsg wraps the labeling message with sender identification and a batch
// of flooded edge records.
type mapMsg struct {
	gc        gcMsg
	sender    Endpoint
	senderDeg int
	outPort   int
	records   []EdgeRecord
}

// Bits implements protocol.Message.
func (m mapMsg) Bits() int {
	n := m.gc.Bits() + m.sender.Bits() + gammaBits(m.senderDeg) + gammaBits(m.outPort) +
		bitio.Gamma0Len(uint64(len(m.records)))
	for _, r := range m.records {
		n += r.Bits()
	}
	return n
}

// Key implements protocol.Message.
func (m mapMsg) Key() string {
	var sb strings.Builder
	sb.WriteString(m.gc.Key())
	sb.WriteByte('|')
	sb.WriteString(m.sender.Key())
	fmt.Fprintf(&sb, "#%d/%d|", m.outPort, m.senderDeg)
	keys := make([]string, len(m.records))
	for i, r := range m.records {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	sb.WriteString(strings.Join(keys, ";"))
	return sb.String()
}

// mapNode wraps labelNode with record bookkeeping.
type mapNode struct {
	inner   labelNode
	outDeg  int
	records map[string]EdgeRecord
}

// Receive implements protocol.Node.
func (n *mapNode) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	m, ok := msg.(mapMsg)
	if !ok {
		return nil, fmt.Errorf("mapcast: unexpected message type %T", msg)
	}
	// Run the labeling transition first so the vertex has its label before
	// it constructs records or forwards anything.
	innerOuts, err := n.inner.Receive(m.gc, inPort)
	if err != nil {
		return nil, err
	}
	label, labeled := n.inner.Label()
	if !labeled {
		// Under reliable links this cannot happen: the first message on
		// every edge carries alpha content (canonical-partition discipline),
		// so a vertex is labeled on its very first receipt. Under message
		// loss, a beta-/record-only message can reach a vertex whose
		// labeling message was dropped. The vertex has no identity to stamp
		// records with, so it absorbs what it learned and stays silent; its
		// in-edges remain unrecorded, the terminal's closure stays
		// incomplete, and the mapping conservatively never terminates —
		// liveness is lost to the fault, safety is not.
		for _, r := range m.records {
			n.records[r.Key()] = r
		}
		return nil, nil
	}
	self := Endpoint{Kind: EndpointLabeled, Label: label.Intervals()[0]}

	// Learn records: the edge this message arrived on, plus everything the
	// sender flooded to us.
	var fresh []EdgeRecord
	learn := func(r EdgeRecord) {
		k := r.Key()
		if _, seen := n.records[k]; !seen {
			n.records[k] = r
			fresh = append(fresh, r)
		}
	}
	for _, r := range m.records {
		learn(r)
	}
	learn(EdgeRecord{From: m.sender, FromOutDeg: m.senderDeg, OutPort: m.outPort, To: self, InPort: inPort})

	if n.outDeg == 0 {
		return nil, nil
	}
	// Forward on every out-edge on which anything changed: the labeling
	// deltas and/or the fresh records.
	outs := make([]protocol.Message, n.outDeg)
	for j := 0; j < n.outDeg; j++ {
		gcPart := gcMsg{payload: n.inner.payload}
		hasGC := false
		if innerOuts != nil && innerOuts[j] != nil {
			gcPart = innerOuts[j].(gcMsg)
			hasGC = true
		}
		if !hasGC && len(fresh) == 0 {
			continue
		}
		outs[j] = mapMsg{
			gc:        gcPart,
			sender:    self,
			senderDeg: n.outDeg,
			outPort:   j,
			records:   fresh,
		}
	}
	return outs, nil
}

// Label implements Labeled.
func (n *mapNode) Label() (interval.Union, bool) { return n.inner.Label() }

var _ Labeled = (*mapNode)(nil)

// Topology is the extracted map: the full anonymous network as seen from t.
type Topology struct {
	// Vertices lists every discovered vertex, root first, terminal second.
	Vertices []Endpoint
	// Edges lists every recorded edge with both port numbers.
	Edges []EdgeRecord
}

// NumVertices returns the number of vertices in the extracted map.
func (t *Topology) NumVertices() int { return len(t.Vertices) }

// NumEdges returns the number of edges in the extracted map.
func (t *Topology) NumEdges() int { return len(t.Edges) }

// mapTerminal accumulates records and stops when they are closed.
type mapTerminal struct {
	records map[string]EdgeRecord
	// gc accumulates the labeling commodity for observability.
	gc gcTerminal
}

// Receive implements protocol.Node.
func (t *mapTerminal) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	m, ok := msg.(mapMsg)
	if !ok {
		return nil, fmt.Errorf("mapcast: unexpected message type %T", msg)
	}
	if _, err := t.gc.Receive(m.gc, inPort); err != nil {
		return nil, err
	}
	for _, r := range m.records {
		t.records[r.Key()] = r
	}
	own := EdgeRecord{
		From: m.sender, FromOutDeg: m.senderDeg, OutPort: m.outPort,
		To: Endpoint{Kind: EndpointTerminal}, InPort: inPort,
	}
	t.records[own.Key()] = own
	return nil, nil
}

// Done implements the stopping predicate: the record set is closed under
// declared out-degrees starting from the root.
func (t *mapTerminal) Done() bool {
	_, closed := t.closure()
	return closed
}

// Output returns the extracted Topology.
func (t *mapTerminal) Output() any {
	topo, _ := t.closure()
	return topo
}

// closure walks the recorded graph from the root and checks that every
// discovered vertex has all its declared out-ports recorded.
func (t *mapTerminal) closure() (*Topology, bool) {
	// Index records by source endpoint.
	bySrc := map[string]map[int]EdgeRecord{}
	degOf := map[string]int{}
	epOf := map[string]Endpoint{}
	for _, r := range t.records {
		k := r.From.Key()
		if bySrc[k] == nil {
			bySrc[k] = map[int]EdgeRecord{}
		}
		bySrc[k][r.OutPort] = r
		degOf[k] = r.FromOutDeg
		epOf[k] = r.From
		epOf[r.To.Key()] = r.To
	}
	root := Endpoint{Kind: EndpointRoot}
	topo := &Topology{Vertices: []Endpoint{root, {Kind: EndpointTerminal}}}
	visited := map[string]bool{root.Key(): true, "t": true}
	queue := []string{root.Key()}
	closed := true
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		if k == "t" {
			continue
		}
		deg, known := degOf[k]
		if !known {
			// Vertex discovered as a target but no out-edge recorded yet.
			closed = false
			continue
		}
		for port := 0; port < deg; port++ {
			r, ok := bySrc[k][port]
			if !ok {
				closed = false
				continue
			}
			topo.Edges = append(topo.Edges, r)
			tk := r.To.Key()
			if !visited[tk] {
				visited[tk] = true
				topo.Vertices = append(topo.Vertices, r.To)
				queue = append(queue, tk)
			}
		}
	}
	sort.Slice(topo.Edges, func(i, j int) bool { return topo.Edges[i].Key() < topo.Edges[j].Key() })
	return topo, closed
}

// ToGraph materializes the extracted topology as a graph.G with the exact
// port numbering the records describe, enabling isomorphism checks against
// a reference network via graph.Isomorphic — no privileged vertex identities
// required. Vertex IDs are assigned root-first, terminal-second, then
// internal vertices in sorted label order.
func (t *Topology) ToGraph() (*graph.G, error) {
	idOf := map[string]graph.VertexID{}
	for i, ep := range t.Vertices {
		k := ep.Key()
		if _, dup := idOf[k]; dup {
			return nil, fmt.Errorf("core: duplicate vertex %s in topology", k)
		}
		idOf[k] = graph.VertexID(i)
	}
	rootID, ok := idOf[Endpoint{Kind: EndpointRoot}.Key()]
	if !ok {
		return nil, fmt.Errorf("core: topology has no root")
	}
	termID, ok := idOf[Endpoint{Kind: EndpointTerminal}.Key()]
	if !ok {
		return nil, fmt.Errorf("core: topology has no terminal")
	}
	b := graph.NewBuilder(len(t.Vertices)).SetName("extracted")
	b.SetRoot(rootID).SetTerminal(termID).AllowWideRoot()
	for _, r := range t.Edges {
		from, ok := idOf[r.From.Key()]
		if !ok {
			return nil, fmt.Errorf("core: record %s references unknown source", r)
		}
		to, ok := idOf[r.To.Key()]
		if !ok {
			return nil, fmt.Errorf("core: record %s references unknown target", r)
		}
		b.AddEdgeAt(from, r.OutPort, to, r.InPort)
	}
	return b.Build()
}
