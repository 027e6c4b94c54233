package core

import (
	"fmt"

	"repro/internal/dyadic"
	"repro/internal/protocol"
)

// DAGBroadcast is the broadcasting protocol for directed acyclic graphs
// (Section 3.3): the straightforward generalization of the grounded-tree
// commodity flow in which a vertex waits until it has heard on every
// incoming edge (the paper's w.l.o.g. assumption for DAG protocols), sums
// the received commodity, and distributes the sum among its out-edges with
// the power-of-2 share rule.
//
// Unlike the tree case the sums are general dyadics whose representations
// can grow to Theta(|E|) bits — this is the required-bandwidth blow-up that
// Theorem 3.8 proves unavoidable for commodity-preserving protocols.
//
// On cyclic inputs the protocol deadlocks benignly (vertices on a cycle wait
// for each other), so it never terminates — which is the correct outcome,
// but with no progress; Section 4's GeneralBroadcast exists for that case.
type DAGBroadcast struct {
	payload Payload
}

var _ protocol.Protocol = (*DAGBroadcast)(nil)

// NewDAGBroadcast returns the DAG broadcast protocol carrying payload m.
func NewDAGBroadcast(m []byte) *DAGBroadcast {
	return &DAGBroadcast{payload: Payload(m)}
}

// Name implements protocol.Protocol.
func (p *DAGBroadcast) Name() string { return "dagcast" }

// InitialMessage implements protocol.Protocol: sigma0 = (m, 1).
func (p *DAGBroadcast) InitialMessage() protocol.Message {
	return dagMsg{payload: p.payload, x: dyadic.One()}
}

// NewNode implements protocol.Protocol.
func (p *DAGBroadcast) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &dagTerminal{}
	}
	return &dagNode{inDeg: inDeg, outDeg: outDeg, payload: p.payload}
}

// dagMsg is (m, x) with x an arbitrary dyadic commodity.
type dagMsg struct {
	payload Payload
	x       dyadic.D
}

// Bits implements protocol.Message.
func (m dagMsg) Bits() int { return m.x.EncodedBits() + m.payload.Bits() }

// Key implements protocol.Message.
func (m dagMsg) Key() string { return m.x.Key() }

type dagNode struct {
	inDeg   int
	outDeg  int
	payload Payload
	heard   int
	sum     dyadic.D
	fired   bool
}

// Receive accumulates commodity until all in-edges have spoken, then fires
// once, splitting the accumulated sum with the power-of-2 rule. The split
// preserves the commodity exactly: alpha*(x>>ceil) + (d-alpha)*(x>>(ceil-1))
// equals x.
func (n *dagNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(dagMsg)
	if !ok {
		return nil, fmt.Errorf("dagcast: unexpected message type %T", msg)
	}
	n.heard++
	// Not Absorb: the sum's limbs are shared by the Shr shares sent below.
	n.sum = n.sum.Add(m.x)
	if n.fired || n.heard < n.inDeg || n.outDeg == 0 {
		return nil, nil
	}
	n.fired = true
	outs := make([]protocol.Message, n.outDeg)
	for j := range outs {
		outs[j] = dagMsg{payload: n.payload, x: n.sum.Shr(pow2Share(n.outDeg, j))}
	}
	return outs, nil
}

type dagTerminal struct {
	sum dyadic.D
}

// Receive accumulates incoming shares in place.
func (t *dagTerminal) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(dagMsg)
	if !ok {
		return nil, fmt.Errorf("dagcast: unexpected message type %T", msg)
	}
	t.sum.Absorb(m.x)
	return nil, nil
}

// Done implements the stopping predicate S: a full unit arrived.
func (t *dagTerminal) Done() bool { return t.sum.IsOne() }

// Output returns a copy of the accumulated commodity.
func (t *dagTerminal) Output() any { return t.sum.Clone() }
