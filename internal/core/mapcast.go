package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"unsafe"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
)

// MapExtract is the topology-extraction protocol (the "mapping" application
// the paper motivates in Sections 1 and 6; the paper asserts labels enable
// it but gives no protocol). The construction is described below;
// docs/ARCHITECTURE.md, "Performance architecture", explains what it costs
// per delivery.
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

var (
	_ protocol.Protocol     = (*MapExtract)(nil)
	_ protocol.BatchBuilder = (*MapExtract)(nil)
)

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

// NewNode implements protocol.Protocol as a batch of one, so there is one
// node layout.
func (p *MapExtract) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	var nodes [1]protocol.Node
	p.NewNodes(nodes[:], func(int) (int, int, protocol.Role) { return inDeg, outDeg, role })
	return nodes[0]
}

// NewNodes implements protocol.BatchBuilder: one slab of nodes and one
// gcBatch of backings for their state, whose outs serve both the labeling
// state and the node. The node copies each labeling message into the
// mapMsg it sends, so the labeling state reuses its message slots.
func (p *MapExtract) NewNodes(nodes []protocol.Node, vertex func(v int) (inDeg, outDeg int, role protocol.Role)) {
	slab, b := newGCBatch[mapNode](nodes, vertex, 1, 2)
	for v := range nodes {
		_, outDeg, role := vertex(v)
		if role == protocol.RoleTerminal {
			nodes[v] = newMapTerminal()
			continue
		}
		slab[v] = mapNode{
			inner:  b.labelNode(p.payload, outDeg),
			outDeg: outDeg,
			seen:   map[recordID]struct{}{},
			outs:   carve(&b.outs, outDeg),
		}
		slab[v].inner.relayed = true
		nodes[v] = &slab[v]
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
	// key caches Key for a labeled endpoint. The protocol and the codec
	// build labeled endpoints with labeledEndpoint, so a vertex's key is
	// rendered once, when it is labeled, and every record shares it.
	key string
}

// Keys of the two distinguished endpoints.
const (
	rootKey     = "s"
	terminalKey = "t"
)

// labeledEndpoint returns the endpoint named by label, with its key cached.
func labeledEndpoint(label interval.Interval) Endpoint {
	return Endpoint{Kind: EndpointLabeled, Label: label, key: label.String()}
}

// Key returns a canonical string for map indexing.
func (e Endpoint) Key() string {
	switch {
	case e.Kind == EndpointRoot:
		return rootKey
	case e.Kind == EndpointTerminal:
		return terminalKey
	case e.key != "":
		return e.key
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

// Key returns a canonical string identifying the edge:
// from#outPort->to#inPort.
func (r EdgeRecord) Key() string {
	buf := r.appendKey(make([]byte, 0, r.keyCap()))
	// buf is never written again, so the string may alias it.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// keyCap bounds the length of Key: the two endpoint keys, the separators
// and two decimal ints.
func (r EdgeRecord) keyCap() int { return len(r.From.Key()) + len(r.To.Key()) + 4 + 2*20 }

func (r EdgeRecord) appendKey(dst []byte) []byte {
	dst = append(dst, r.From.Key()...)
	dst = append(dst, '#')
	dst = strconv.AppendInt(dst, int64(r.OutPort), 10)
	dst = append(dst, "->"...)
	dst = append(dst, r.To.Key()...)
	dst = append(dst, '#')
	return strconv.AppendInt(dst, int64(r.InPort), 10)
}

// recordID identifies a record as Key does, as a comparable value built from
// the endpoints' cached keys.
type recordID struct {
	from, to        string
	outPort, inPort int
}

func (r EdgeRecord) id() recordID {
	return recordID{from: r.From.Key(), to: r.To.Key(), outPort: r.OutPort, inPort: r.InPort}
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
// of flooded edge records. It holds its own copy of the labeling message.
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

// Key implements protocol.Message: the labeling message's key, '|', the
// sender's key, #outPort/senderDeg, '|', then the record keys in sorted
// order joined by ';'.
func (m mapMsg) Key() string {
	// Render the record keys into one scratch buffer and sort views of it.
	var scratch []byte
	var recKeys [][]byte
	if len(m.records) > 0 {
		n := 0
		for _, r := range m.records {
			n += r.keyCap()
		}
		scratch = make([]byte, 0, n)
		recKeys = make([][]byte, len(m.records))
		for i, r := range m.records {
			start := len(scratch)
			scratch = r.appendKey(scratch)
			recKeys[i] = scratch[start:]
		}
		slices.SortFunc(recKeys, bytes.Compare)
	}
	sender := m.sender.Key()
	buf := make([]byte, 0, (m.gc.alpha.EncodedBits()+7)/8+1+(m.gc.beta.EncodedBits()+7)/8+
		1+len(sender)+2+2*20+1+len(scratch)+len(recKeys))
	buf = m.gc.AppendKey(buf)
	buf = append(buf, '|')
	buf = append(buf, sender...)
	buf = append(buf, '#')
	buf = strconv.AppendInt(buf, int64(m.outPort), 10)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(m.senderDeg), 10)
	buf = append(buf, '|')
	for i, k := range recKeys {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = append(buf, k...)
	}
	// buf is never written again, so the string may alias it.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// mapNode wraps labelNode with record bookkeeping.
type mapNode struct {
	inner  labelNode
	outDeg int
	// self is the vertex's endpoint, built once it is labeled.
	self Endpoint
	// seen holds every record learned so far; recordBits is their encoded
	// size, for StateBits.
	seen       map[recordID]struct{}
	recordBits int
	// outs is the slice Receive fills and returns, reused on every receipt
	// as gcState reuses its own.
	outs []protocol.Message
}

// learn records r and reports whether it was new.
func (n *mapNode) learn(r EdgeRecord) bool {
	id := r.id()
	if _, dup := n.seen[id]; dup {
		return false
	}
	n.seen[id] = struct{}{}
	n.recordBits += r.Bits()
	return true
}

// Receive implements protocol.Node.
func (n *mapNode) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	m, ok := msg.(mapMsg)
	if !ok {
		return nil, fmt.Errorf("mapcast: unexpected message type %T", msg)
	}
	// Run the labeling transition first so the vertex has its label before
	// it constructs records or forwards anything.
	innerOuts := n.inner.receive(&m.gc)
	if n.self.Kind != EndpointLabeled {
		label, labeled := n.inner.Label()
		if !labeled {
			// Under reliable links this cannot happen: the first message on
			// every edge carries alpha content (canonical-partition
			// discipline), so a vertex is labeled on its very first receipt.
			// Under message loss, a beta-/record-only message can reach a
			// vertex whose labeling message was dropped. The vertex has no
			// identity to stamp records with, so it absorbs what it learned
			// and stays silent; its in-edges remain unrecorded, the
			// terminal's closure stays incomplete, and the mapping
			// conservatively never terminates — liveness is lost to the
			// fault, safety is not.
			for _, r := range m.records {
				n.learn(r)
			}
			return nil, nil
		}
		n.self = labeledEndpoint(label.Intervals()[0])
	}

	// Learn records: the edge this message arrived on, plus everything the
	// sender flooded to us.
	var fresh []EdgeRecord
	for _, r := range m.records {
		if n.learn(r) {
			fresh = append(fresh, r)
		}
	}
	own := EdgeRecord{From: m.sender, FromOutDeg: m.senderDeg, OutPort: m.outPort, To: n.self, InPort: inPort}
	if n.learn(own) {
		fresh = append(fresh, own)
	}

	if n.outDeg == 0 {
		return nil, nil
	}
	// Forward on every out-edge on which anything changed: the labeling
	// deltas and/or the fresh records.
	outs := n.outs
	for j := 0; j < n.outDeg; j++ {
		outs[j] = nil
		gcPart := gcMsg{payload: n.inner.payload}
		hasGC := false
		if innerOuts != nil && innerOuts[j] != nil {
			gcPart = *innerOuts[j].(*gcMsg)
			hasGC = true
		}
		if !hasGC && len(fresh) == 0 {
			continue
		}
		outs[j] = mapMsg{
			gc:        gcPart,
			sender:    n.self,
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

// mapTerminal accumulates records and stops when they are closed: every
// vertex the root reaches through recorded edges has all of its declared
// out-ports recorded. It maintains that predicate as records arrive, so
// Done is O(1) and each record is indexed once.
type mapTerminal struct {
	// gc accumulates the labeling commodity for observability.
	gc gcTerminal
	// recs holds the distinct records in arrival order.
	recs []EdgeRecord
	// vertices maps an endpoint key to what is known about that vertex.
	vertices map[string]*mapVertex
	// open counts the reached vertices other than t whose out-degree is
	// unknown or which have an unrecorded out-port.
	open int
}

// mapVertex is the terminal's view of one vertex.
type mapVertex struct {
	// ports[j] indexes recs by out-port j; -1 while the port is unrecorded.
	// It is nil until the first record from the vertex declares its
	// out-degree.
	ports []int
	// missing counts the -1 entries of ports.
	missing int
	// reached is set once the root reaches the vertex through recorded
	// edges.
	reached bool
}

func newMapTerminal() *mapTerminal {
	t := &mapTerminal{vertices: map[string]*mapVertex{}}
	t.reach(rootKey)
	return t
}

// Receive implements protocol.Node.
func (t *mapTerminal) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	m, ok := msg.(mapMsg)
	if !ok {
		return nil, fmt.Errorf("mapcast: unexpected message type %T", msg)
	}
	t.gc.receive(&m.gc)
	for _, r := range m.records {
		t.add(r)
	}
	t.add(EdgeRecord{
		From: m.sender, FromOutDeg: m.senderDeg, OutPort: m.outPort,
		To: Endpoint{Kind: EndpointTerminal}, InPort: inPort,
	})
	return nil, nil
}

func (t *mapTerminal) vertex(k string) *mapVertex {
	v := t.vertices[k]
	if v == nil {
		v = &mapVertex{}
		t.vertices[k] = v
	}
	return v
}

// add records r unless its out-port is recorded, and updates the closure
// state. Records are truthful: an out-port leads to one edge, so a second
// record of a port is a copy of the first. A port beyond the declared
// out-degree is ignored, as the closure never visits it.
func (t *mapTerminal) add(r EdgeRecord) {
	src := t.vertex(r.From.Key())
	if src.ports == nil {
		src.ports = make([]int, r.FromOutDeg)
		for j := range src.ports {
			src.ports[j] = -1
		}
		src.missing = r.FromOutDeg
	}
	if r.OutPort >= len(src.ports) || src.ports[r.OutPort] >= 0 {
		return
	}
	t.recs = append(t.recs, r)
	src.ports[r.OutPort] = len(t.recs) - 1
	src.missing--
	if !src.reached {
		return
	}
	if src.missing == 0 {
		t.open--
	}
	t.reach(r.To.Key())
}

// reach marks the vertex keyed k as reached from the root, and with it every
// vertex its recorded out-edges lead to.
func (t *mapTerminal) reach(k string) {
	if k == terminalKey {
		return
	}
	v := t.vertex(k)
	if v.reached {
		return
	}
	v.reached = true
	if v.ports == nil || v.missing > 0 {
		t.open++
	}
	for _, i := range v.ports {
		if i >= 0 {
			t.reach(t.recs[i].To.Key())
		}
	}
}

// Done implements the stopping predicate: the record set is closed under
// declared out-degrees starting from the root.
func (t *mapTerminal) Done() bool { return t.open == 0 }

// Output returns the extracted Topology: the vertices in breadth-first order
// from the root over out-ports, the edges sorted by Key.
func (t *mapTerminal) Output() any {
	topo := &Topology{Vertices: []Endpoint{{Kind: EndpointRoot}, {Kind: EndpointTerminal}}}
	visited := map[string]bool{rootKey: true, terminalKey: true}
	var keys []string
	for queue := []string{rootKey}; len(queue) > 0; queue = queue[1:] {
		for _, i := range t.vertices[queue[0]].ports {
			if i < 0 {
				continue
			}
			r := t.recs[i]
			topo.Edges = append(topo.Edges, r)
			keys = append(keys, r.Key())
			if tk := r.To.Key(); !visited[tk] {
				visited[tk] = true
				topo.Vertices = append(topo.Vertices, r.To)
				queue = append(queue, tk)
			}
		}
	}
	sort.Sort(recordsByKey{topo.Edges, keys})
	return topo
}

// recordsByKey sorts records by their precomputed keys.
type recordsByKey struct {
	recs []EdgeRecord
	keys []string
}

func (s recordsByKey) Len() int           { return len(s.recs) }
func (s recordsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s recordsByKey) Swap(i, j int) {
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
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
