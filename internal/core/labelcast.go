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

var _ protocol.Protocol = (*LabelAssign)(nil)

// NewLabelAssign returns the label-assignment protocol. The payload may be
// empty: label assignment is useful on its own.
func NewLabelAssign(m []byte) *LabelAssign {
	return &LabelAssign{payload: Payload(m)}
}

// Name implements protocol.Protocol.
func (p *LabelAssign) Name() string { return "labelcast" }

// InitialMessage implements protocol.Protocol.
func (p *LabelAssign) InitialMessage() protocol.Message {
	return gcMsg{payload: p.payload, alpha: interval.FullUnion()}
}

// NewNode implements protocol.Protocol.
func (p *LabelAssign) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &gcTerminal{}
	}
	return &labelNode{outDeg: outDeg, gcState: newGCState(p.payload, outDeg)}
}

// labelNode is an internal vertex's state ((alpha_j)_{j=0..d}, beta), where
// alpha_0 (the field `label`) is the vertex's own share.
type labelNode struct {
	outDeg  int
	virgin  bool
	inited  bool
	labeled bool
	label   interval.Union // alpha_0
	gcState
}

// Receive implements the modified f and g of Section 5.
func (n *labelNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(gcMsg)
	if !ok {
		return nil, fmt.Errorf("labelcast: unexpected message type %T", msg)
	}
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
			parts := aIn.CanonicalPartition(n.outDeg + 1)
			n.label = parts[0]
			n.labeled = true
			copy(n.alphas, parts[1:])
			// beta'' = beta' ∪ alpha_0: the label is withheld from the flow,
			// so it must reach the terminal as cycle-style information.
			betaNew = bIn.Union(n.label)
		} else {
			betaNew = bIn
		}
		n.beta = betaNew
		if n.outDeg == 0 {
			return nil, nil
		}
		return n.firstSends(), nil
	}

	if n.outDeg == 0 {
		n.beta = n.beta.Union(bIn)
		return nil, nil
	}

	// pi != pi0: exactly the Section 4 update with alpha_0 in the frozen
	// prefix; alpha_0 never changes. Content coinciding with the label is
	// already in beta (added at labeling time), so its overlap is a no-op
	// kept for fidelity to "f is exactly as defined previously".
	return n.step(aIn, bIn, n.label), nil
}

// Label returns the vertex's assigned label and whether one was assigned.
// The label is a single non-empty sub-interval of [0, 1).
func (n *labelNode) Label() (interval.Union, bool) { return n.label, n.labeled }

// Labeled is implemented by nodes that carry a vertex label; the public API
// and the tests use it to extract labels after a run.
type Labeled interface {
	Label() (interval.Union, bool)
}

var _ Labeled = (*labelNode)(nil)
