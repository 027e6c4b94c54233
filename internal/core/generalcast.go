package core

import (
	"fmt"
	"unsafe"

	"repro/internal/interval"
	"repro/internal/protocol"
)

// GeneralBroadcast is the broadcasting protocol for arbitrary directed
// networks (Section 4). The commodity is the unit interval [0, 1): the root
// injects it whole; a vertex receiving interval-union content for the first
// time partitions it canonically among its out-edges; re-arriving content —
// the witness of a directed cycle — is diverted into the beta component and
// flooded onward so the terminal can account for commodity that a cycle
// would otherwise trap forever. The terminal halts exactly when the alpha
// and beta content it has seen covers all of [0, 1) (Theorem 4.2).
//
// The state of an internal vertex of out-degree d is ((alpha_j)_{j=1..d},
// beta): alpha_j is everything ever sent on out-edge j, beta the cycle
// information. Both grow monotonically (the paper's state-monotonicity), and
// a message is sent on edge j exactly when alpha_j or beta grows, carrying
// only the growth — so every point of [0, 1) crosses each edge at most once
// in each of the two roles, which bounds total communication by
// O(|E|^2 |V| log dout) + |E||m| (Theorems 4.2 and 4.3).
type GeneralBroadcast struct {
	payload Payload
	literal bool
}

var _ protocol.Protocol = (*GeneralBroadcast)(nil)

// NewGeneralBroadcast returns the general-graph broadcast protocol carrying
// payload m.
func NewGeneralBroadcast(m []byte) *GeneralBroadcast {
	return &GeneralBroadcast{payload: Payload(m)}
}

// NewGeneralBroadcastLiteral returns the protocol with the paper's literal
// canonical-partition rule (see interval.CanonicalPartitionLiteral). It is
// the E12 ablation subject: on graphs where a single-interval commodity
// meets a branching vertex it terminates without delivering the broadcast
// everywhere, demonstrating that the repaired partition rule of
// CanonicalPartition is necessary for Theorem 4.2.
func NewGeneralBroadcastLiteral(m []byte) *GeneralBroadcast {
	return &GeneralBroadcast{payload: Payload(m), literal: true}
}

// Name implements protocol.Protocol.
func (p *GeneralBroadcast) Name() string { return "generalcast" }

// InitialMessage implements protocol.Protocol: sigma0 = ([0,1), empty).
func (p *GeneralBroadcast) InitialMessage() protocol.Message {
	return gcMsg{payload: p.payload, alpha: interval.FullUnion()}
}

// NewNode implements protocol.Protocol.
func (p *GeneralBroadcast) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &gcTerminal{}
	}
	return &gcNode{outDeg: outDeg, literal: p.literal, gcState: newGCState(p.payload, outDeg)}
}

// gcMsg is sigma = (alpha', beta') plus the broadcast payload.
type gcMsg struct {
	payload Payload
	alpha   interval.Union
	beta    interval.Union
}

// Bits implements protocol.Message.
func (m gcMsg) Bits() int { return m.alpha.EncodedBits() + m.beta.EncodedBits() + m.payload.Bits() }

// Key implements protocol.Message: alpha's key, '|', beta's key, built in one
// exactly sized buffer that the returned string then shares.
func (m gcMsg) Key() string {
	buf := make([]byte, 0, (m.alpha.EncodedBits()+7)/8+1+(m.beta.EncodedBits()+7)/8)
	buf = m.alpha.AppendKey(buf)
	buf = append(buf, '|')
	buf = m.beta.AppendKey(buf)
	// buf is never written again, so the string may alias it (the same
	// hand-off strings.Builder makes).
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// gcState is the internal-vertex state ((alpha_j)_{j=1..d}, beta) shared by
// general broadcast and label assignment, with the transition both apply on
// every receipt after the first.
type gcState struct {
	payload Payload
	alphas  []interval.Union // alpha_j, 1-indexed in the paper, 0-indexed here
	beta    interval.Union
	// frozen caches the union of everything that never grows after the
	// first receipt: alpha_1..alpha_{d-1} and, for label assignment, the
	// label alpha_0. It is built on the first step that needs it.
	frozen    interval.Union
	hasFrozen bool
}

func newGCState(payload Payload, outDeg int) gcState {
	return gcState{payload: payload, alphas: make([]interval.Union, outDeg)}
}

// step is the pi != pi0 transition for a vertex with at least one out-edge:
// alpha_1..alpha_{d-1} are frozen, fresh alpha' content flows to edge d, and
// already-seen content is cycle evidence that joins beta. label is alpha_0
// (empty for general broadcast); it is read only when frozen is first built.
//
// The paper grows the state by alpha_d ∪= aIn \ frozen and
// beta ∪= bIn ∪ (aIn ∩ all alphas), then sends the growth. step computes
// that growth from the incoming side, so its cost follows the message and
// not the accumulated state:
//
//	overlap    = (aIn ∩ frozen) ∪ (aIn ∩ alpha_d)
//	alphaDelta = (aIn \ frozen) \ alpha_d
//	betaDelta  = (bIn ∪ overlap) \ beta
//
// Each delta is the same point set as (state ∪ x) \ state, and a canonical
// union is unique for its point set, so the messages are identical.
func (s *gcState) step(aIn, bIn, label interval.Union) []protocol.Message {
	last := len(s.alphas) - 1
	if !s.hasFrozen {
		s.hasFrozen = true
		s.frozen = label
		for _, a := range s.alphas[:last] {
			s.frozen = s.frozen.Union(a)
		}
	}
	overlap := aIn.Intersect(s.frozen).Union(aIn.Intersect(s.alphas[last]))
	alphaDelta := aIn.Subtract(s.frozen).Subtract(s.alphas[last])
	betaDelta := bIn.Union(overlap).Subtract(s.beta)
	if alphaDelta.IsEmpty() && betaDelta.IsEmpty() {
		return nil
	}
	outs := make([]protocol.Message, len(s.alphas))
	if !alphaDelta.IsEmpty() {
		s.alphas[last] = s.alphas[last].Union(alphaDelta)
	}
	if !betaDelta.IsEmpty() {
		s.beta = s.beta.Union(betaDelta)
		for j := 0; j < last; j++ {
			outs[j] = gcMsg{payload: s.payload, beta: betaDelta}
		}
	}
	outs[last] = gcMsg{payload: s.payload, alpha: alphaDelta, beta: betaDelta}
	return outs
}

// firstSends returns the messages of a first receipt: every out-edge j
// carries (alpha_j, beta) unless both are empty.
func (s *gcState) firstSends() []protocol.Message {
	outs := make([]protocol.Message, len(s.alphas))
	for j, a := range s.alphas {
		if a.IsEmpty() && s.beta.IsEmpty() {
			continue
		}
		outs[j] = gcMsg{payload: s.payload, alpha: a, beta: s.beta}
	}
	return outs
}

// gcNode is an internal vertex's state (alphas, beta) and transition logic.
type gcNode struct {
	outDeg  int
	literal bool
	// virgin is true while the state is pi0 (nothing received yet).
	virgin bool
	inited bool
	gcState
}

// Receive implements the f and g of Section 4.
func (n *gcNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(gcMsg)
	if !ok {
		return nil, fmt.Errorf("generalcast: unexpected message type %T", msg)
	}
	if !n.inited {
		n.inited = true
		n.virgin = true
	}
	aIn, bIn := m.alpha, m.beta

	if n.outDeg == 0 {
		// A dead-end internal vertex swallows its commodity: it can never be
		// forwarded, so the terminal can never see all of [0, 1) — exactly
		// the non-termination the theorems require for vertices that are not
		// connected to t.
		n.virgin = false
		n.beta = n.beta.Union(bIn)
		return nil, nil
	}

	if !n.virgin {
		return n.step(aIn, bIn, interval.EmptyUnion()), nil
	}
	// pi == pi0: canonically partition alpha' among the out-edges and adopt
	// beta' wholesale.
	n.virgin = false
	if !aIn.IsEmpty() {
		var parts []interval.Union
		if n.literal {
			parts = aIn.CanonicalPartitionLiteral(n.outDeg)
		} else {
			parts = aIn.CanonicalPartition(n.outDeg)
		}
		copy(n.alphas, parts)
	}
	n.beta = bIn
	return n.firstSends(), nil
}

// Alphas exposes the per-edge alpha state for invariant checks and the
// omniscient-observer tests; the protocol itself never reads it externally.
func (n *gcNode) Alphas() []interval.Union { return n.alphas }

// Beta exposes the beta state for invariant checks.
func (n *gcNode) Beta() interval.Union { return n.beta }

// gcTerminal accumulates everything that arrives; S(pi) holds when
// alpha ∪ beta = [0, 1). The combined cover is maintained incrementally so
// Done — evaluated after every delivery — is O(1).
type gcTerminal struct {
	alpha interval.Union
	beta  interval.Union
	cover interval.Union
}

// Receive implements protocol.Node. The three unions are owned by the
// terminal and grow in place; nothing outside it ever holds their storage.
func (t *gcTerminal) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(gcMsg)
	if !ok {
		return nil, fmt.Errorf("generalcast: unexpected message type %T", msg)
	}
	t.alpha.Absorb(m.alpha)
	t.beta.Absorb(m.beta)
	t.cover.Absorb(m.alpha)
	t.cover.Absorb(m.beta)
	return nil, nil
}

// Done implements the stopping predicate S.
func (t *gcTerminal) Done() bool { return t.cover.IsFull() }

// Output returns a copy of the covered union (== [0,1) on termination).
func (t *gcTerminal) Output() any { return t.cover.Clone() }

// AlphaSeen returns a copy of the alpha content received so far (for tests).
func (t *gcTerminal) AlphaSeen() interval.Union { return t.alpha.Clone() }

// BetaSeen returns a copy of the beta content received so far (for tests).
func (t *gcTerminal) BetaSeen() interval.Union { return t.beta.Clone() }
