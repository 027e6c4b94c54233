package core

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/protocol"
)

// LabelAssign is the unique-label-assignment protocol of Section 5: the
// general-graph broadcast with one twist — on its first receipt, a vertex of
// out-degree d partitions the incoming interval-union into d+1 parts instead
// of d, keeps part alpha_0 as its own label, and immediately adds that label
// to beta so the withheld commodity is still accounted for at the terminal.
//
// Labels are single sub-intervals of [0, 1); the partition discipline makes
// them pairwise disjoint, hence unique. Their end points cost
// O(|V| log dout) bits (Theorem 5.1), which Theorem 5.2 proves optimal —
// exponentially longer than the O(log |V|) possible in undirected networks.
type LabelAssign struct {
	payload Payload
}

var (
	_ protocol.Protocol     = (*LabelAssign)(nil)
	_ protocol.BatchBuilder = (*LabelAssign)(nil)
)

// NewLabelAssign returns the label-assignment protocol. The payload may be
// empty: label assignment is useful on its own.
func NewLabelAssign(m []byte) *LabelAssign {
	return &LabelAssign{payload: Payload(m)}
}

// Name implements protocol.Protocol.
func (p *LabelAssign) Name() string { return "labelcast" }

// InitialMessage implements protocol.Protocol.
func (p *LabelAssign) InitialMessage() protocol.Message {
	return &gcMsg{payload: p.payload, alpha: interval.FullUnion()}
}

// NewNode implements protocol.Protocol as a batch of one, so there is one
// node layout.
func (p *LabelAssign) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	var nodes [1]protocol.Node
	p.NewNodes(nodes[:], func(int) (int, int, protocol.Role) { return inDeg, outDeg, role })
	return nodes[0]
}

// NewNodes implements protocol.BatchBuilder: one slab of nodes and one
// gcBatch of backings for their state.
func (p *LabelAssign) NewNodes(nodes []protocol.Node, vertex func(v int) (inDeg, outDeg int, role protocol.Role)) {
	slab, b := newGCBatch[labelNode](nodes, vertex, 1, 1)
	for v := range nodes {
		_, outDeg, role := vertex(v)
		if role == protocol.RoleTerminal {
			nodes[v] = &gcTerminal{}
			continue
		}
		slab[v] = b.labelNode(p.payload, outDeg)
		nodes[v] = &slab[v]
	}
}

// labelNode returns a label node of out-degree outDeg whose d+1 parts, outs
// and scratch are carved out of the batch.
func (b *gcBatch) labelNode(payload Payload, outDeg int) labelNode {
	parts := carve(&b.unions, outDeg+1)
	return labelNode{outDeg: outDeg, parts: parts, gcState: b.state(payload, parts[1:])}
}

// labelNode is an internal vertex's state ((alpha_j)_{j=0..d}, beta), where
// alpha_0 is the vertex's own share, its label.
type labelNode struct {
	outDeg  int
	virgin  bool
	inited  bool
	labeled bool
	// parts is alpha_0..alpha_d: the label, then the alphas gcState holds
	// as parts[1:], so the first receipt partitions straight into them.
	parts []interval.Union
	gcState
}

// Receive implements the modified f and g of Section 5.
func (n *labelNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(*gcMsg)
	if !ok {
		return nil, fmt.Errorf("labelcast: unexpected message type %T", msg)
	}
	return n.receive(m), nil
}

// receive is Receive on a labeling message; the mapping node calls it on
// the message it unwraps.
func (n *labelNode) receive(m *gcMsg) []protocol.Message {
	if !n.inited {
		n.inited = true
		n.virgin = true
	}
	aIn, bIn := m.alpha, m.beta

	if n.virgin {
		n.virgin = false
		var betaNew interval.Union
		if !aIn.IsEmpty() {
			// Partition into d+1 parts: part 0 is the label (always a single
			// interval by the canonical-partition ordering), parts 1..d go to
			// the out-edges.
			aIn.PartitionInto(n.parts, false)
			n.labeled = true
			// beta'' = beta' ∪ alpha_0: the label is withheld from the flow,
			// so it must reach the terminal as cycle-style information. With
			// beta' empty, beta adopts the label as it would adopt beta'.
			betaNew = n.parts[0]
			if !bIn.IsEmpty() {
				betaNew = bIn.Union(n.parts[0])
			}
		} else {
			betaNew = bIn
		}
		n.beta = betaNew
		if n.outDeg == 0 {
			return nil
		}
		return n.firstSends()
	}

	if n.outDeg == 0 {
		grow(&n.beta, &n.ownBeta, bIn)
		return nil
	}

	// pi != pi0: exactly the Section 4 update with alpha_0 in the frozen
	// prefix; alpha_0 never changes. Content coinciding with the label is
	// already in beta (added at labeling time), so its overlap is a no-op
	// kept for fidelity to "f is exactly as defined previously".
	return n.step(aIn, bIn, n.parts[0])
}

// Label returns the vertex's assigned label and whether one was assigned.
// The label is a single non-empty sub-interval of [0, 1).
func (n *labelNode) Label() (interval.Union, bool) { return n.parts[0], n.labeled }

// Labeled is implemented by nodes that carry a vertex label; the public API
// and the tests use it to extract labels after a run.
type Labeled interface {
	Label() (interval.Union, bool)
}

var _ Labeled = (*labelNode)(nil)
