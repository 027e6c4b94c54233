package core

import (
	"fmt"
	"math/bits"
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

var (
	_ protocol.Protocol     = (*GeneralBroadcast)(nil)
	_ protocol.BatchBuilder = (*GeneralBroadcast)(nil)
	_ protocol.KeyAppender  = (*gcMsg)(nil)
)

// NewGeneralBroadcast returns the general-graph broadcast protocol carrying
// payload m.
func NewGeneralBroadcast(m []byte) *GeneralBroadcast {
	return &GeneralBroadcast{payload: Payload(m)}
}

// NewGeneralBroadcastLiteral returns the protocol with the paper's literal
// canonical-partition rule (see interval.Union.PartitionInto). It is
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
	return &gcMsg{payload: p.payload, alpha: interval.FullUnion()}
}

// NewNode implements protocol.Protocol as a batch of one, so there is one
// node layout.
func (p *GeneralBroadcast) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	var nodes [1]protocol.Node
	p.NewNodes(nodes[:], func(int) (int, int, protocol.Role) { return inDeg, outDeg, role })
	return nodes[0]
}

// NewNodes implements protocol.BatchBuilder: one slab of nodes and one
// gcBatch of backings for their state.
func (p *GeneralBroadcast) NewNodes(nodes []protocol.Node, vertex func(v int) (inDeg, outDeg int, role protocol.Role)) {
	slab, b := newGCBatch[gcNode](nodes, vertex, 0, 1)
	for v := range nodes {
		_, outDeg, role := vertex(v)
		if role == protocol.RoleTerminal {
			nodes[v] = &gcTerminal{}
			continue
		}
		slab[v] = gcNode{outDeg: outDeg, literal: p.literal, gcState: b.state(p.payload, carve(&b.unions, outDeg))}
		nodes[v] = &slab[v]
	}
}

// gcBatch holds the backings a batch of interval-protocol nodes shares.
// Each node carves capped windows out of them, so an append through one
// node's window copies instead of reaching its neighbour's, and nodes that
// run on separate goroutines never write the same element.
type gcBatch struct {
	unions  []interval.Union
	outs    []protocol.Message
	msgs    []gcMsg
	scratch []interval.Interval
}

// scratchPerNode is the step scratch a node starts with. A step on
// single-interval messages fits, and a node that needs more grows its own.
const scratchPerNode = 4

// newGCBatch allocates a slab of one N per vertex and the batch's backings:
// d+extraUnions unions, outsPerEdge·d outs, d messages and scratchPerNode
// intervals for every non-terminal vertex of out-degree d.
func newGCBatch[N any](nodes []protocol.Node, vertex func(v int) (int, int, protocol.Role), extraUnions, outsPerEdge int) ([]N, gcBatch) {
	var unions, edges, internal int
	for v := range nodes {
		if _, outDeg, role := vertex(v); role != protocol.RoleTerminal {
			unions += outDeg + extraUnions
			edges += outDeg
			internal++
		}
	}
	return make([]N, len(nodes)), gcBatch{
		unions:  make([]interval.Union, unions),
		outs:    make([]protocol.Message, outsPerEdge*edges),
		msgs:    make([]gcMsg, edges),
		scratch: make([]interval.Interval, scratchPerNode*internal),
	}
}

// state returns the initial gcState of a node with the given alphas, its
// outs, first-receipt messages and scratch carved out of the batch.
func (b *gcBatch) state(payload Payload, alphas []interval.Union) gcState {
	return gcState{payload: payload, alphas: alphas, outs: carve(&b.outs, len(alphas)),
		msgs: carve(&b.msgs, len(alphas))[:0], scratch: carve(&b.scratch, scratchPerNode)[:0]}
}

// carve returns the first n elements of *s as a window capped at n and
// advances *s past them.
func carve[T any](s *[]T, n int) []T {
	w := (*s)[:n:n]
	*s = (*s)[n:]
	return w
}

// take returns the next n elements of *chunk as a window capped at n. When
// the chunk has no room left it starts a new one of size elements; a request
// larger than that gets a slice of its own and leaves the chunk as it is.
// Nothing is handed out twice, so what a node sent stays as it was sent.
func take[T any](chunk *[]T, n, size int) []T {
	if cap(*chunk)-len(*chunk) < n {
		if n > size {
			return make([]T, n)
		}
		*chunk = make([]T, 0, size)
	}
	c := (*chunk)[:len(*chunk)+n]
	*chunk = c
	return c[len(c)-n : len(c) : len(c)]
}

// The chunk sizes step draws sent messages and their intervals from. A step
// sends one or two messages whose deltas are mostly one interval each. A
// node's last chunks are partly unused, so larger chunks trade allocations
// for bytes.
const (
	msgChunk      = 2
	intervalChunk = 4
)

// gcMsg is sigma = (alpha', beta') plus the broadcast payload. Nodes send it
// as a pointer into storage the sending node owns (gcState.msgs), and it is
// never written after it is sent.
type gcMsg struct {
	payload Payload
	alpha   interval.Union
	beta    interval.Union
}

// Bits implements protocol.Message.
func (m *gcMsg) Bits() int { return m.alpha.EncodedBits() + m.beta.EncodedBits() + m.payload.Bits() }

// Key implements protocol.Message: alpha's key, '|', beta's key, built in one
// exactly sized buffer that the returned string then shares.
func (m *gcMsg) Key() string {
	buf := m.AppendKey(make([]byte, 0, (m.alpha.EncodedBits()+7)/8+1+(m.beta.EncodedBits()+7)/8))
	// buf is never written again, so the string may alias it (the same
	// hand-off strings.Builder makes).
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// AppendKey implements protocol.KeyAppender: metering finds a gcMsg's symbol
// through its key bytes, since equal keys arrive in distinct messages.
func (m *gcMsg) AppendKey(dst []byte) []byte {
	dst = m.alpha.AppendKey(dst)
	dst = append(dst, '|')
	return m.beta.AppendKey(dst)
}

// gcState is the internal-vertex state ((alpha_j)_{j=1..d}, beta) shared by
// general broadcast, label assignment and mapping, with the transition all
// three apply on every receipt after the first.
//
// Ownership: beta and alpha_d start out shared. A first receipt adopts beta
// from the incoming message and hands every alpha_j to firstSends' messages,
// so their storage belongs to messages that other vertices may still hold.
// The first growth of each copies (Union) and marks the result owned; every
// later growth is in place (Union.Absorb). State that was handed out is
// therefore never written, and nothing the state owns is ever sent: step
// sends only deltas, copied out of its scratch, and Absorb never adopts its
// argument's storage.
//
// Sent messages and the deltas they carry live in chunks the node draws
// from (take) and never writes again, so they may sit in a queue or on
// another goroutine for as long as a run lasts.
type gcState struct {
	payload Payload
	alphas  []interval.Union // alpha_j, 1-indexed in the paper, 0-indexed here
	beta    interval.Union
	// ownBeta and ownLast record that beta and alpha_d have storage of
	// their own and may grow in place.
	ownBeta, ownLast bool
	// frozen caches the union of everything that never grows after the
	// first receipt: alpha_1..alpha_{d-1} and, for label assignment, the
	// label alpha_0. It is built on the first step that needs it.
	frozen    interval.Union
	hasFrozen bool
	// outs is the one slice step and firstSends fill and return. A node's
	// returned slice lapses at its next Receive (protocol.Node), so every
	// receipt reuses it.
	outs []protocol.Message
	// msgs is the chunk sent messages are drawn from. It starts as the
	// node's window of the batch, one slot per out-edge, which firstSends
	// fills; step then draws chunks of msgChunk.
	msgs []gcMsg
	// relayed is set when a wrapping node copies every message out before
	// the next receipt (mapping), so each receipt rewinds msgs and reuses
	// the first-receipt slots instead of drawing new ones.
	relayed bool
	// ivs is the chunk the intervals of sent deltas are drawn from.
	ivs []interval.Interval
	// scratch holds step's intermediate unions. It is the node's own: the
	// concurrent and TCP engines run nodes on separate goroutines.
	scratch []interval.Interval
}

// sends returns the outs buffer, one nil entry per out-edge, and n message
// slots of the node's own to send.
func (s *gcState) sends(n int) ([]protocol.Message, []gcMsg) {
	clear(s.outs)
	if s.relayed {
		s.msgs = s.msgs[:0]
	}
	return s.outs, take(&s.msgs, n, msgChunk)
}

// grow sets *u to *u ∪ delta: by a copying Union the first time, after which
// *owned is set and growth is in place.
func grow(u *interval.Union, owned *bool, delta interval.Union) {
	if *owned {
		u.Absorb(delta)
		return
	}
	*u, *owned = u.Union(delta), true
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
// union is unique for its point set, so the messages are identical. The
// intermediates live in the node's scratch; the deltas that are sent, and
// the messages that carry them, are copied into the node's chunks, so a
// receipt allocates only when a chunk runs out.
func (s *gcState) step(aIn, bIn, label interval.Union) []protocol.Message {
	last := len(s.alphas) - 1
	if !s.hasFrozen {
		s.hasFrozen = true
		s.freeze(label)
	}
	var alphaDelta, betaDelta interval.Union
	buf, cycle := s.scratch[:0], bIn
	if !aIn.IsEmpty() {
		var inFrozen, inLast, overlap, fresh interval.Union
		buf, inFrozen = interval.AppendIntersect(buf, aIn, s.frozen)
		buf, inLast = interval.AppendIntersect(buf, aIn, s.alphas[last])
		buf, overlap = interval.AppendUnion(buf, inFrozen, inLast)
		buf, fresh = interval.AppendSubtract(buf, aIn, s.frozen)
		buf, alphaDelta = interval.AppendSubtract(buf, fresh, s.alphas[last])
		if !overlap.IsEmpty() {
			buf, cycle = interval.AppendUnion(buf, bIn, overlap)
		}
	}
	buf, betaDelta = interval.AppendSubtract(buf, cycle, s.beta)
	s.scratch = buf
	if alphaDelta.IsEmpty() && betaDelta.IsEmpty() {
		return nil
	}
	sent := take(&s.ivs, alphaDelta.NumIntervals()+betaDelta.NumIntervals(), intervalChunk)[:0]
	sent, alphaDelta = interval.AppendCopy(sent, alphaDelta)
	_, betaDelta = interval.AppendCopy(sent, betaDelta)
	toFrozen := !betaDelta.IsEmpty() && last > 0
	n := 1
	if toFrozen {
		n = 2
	}
	outs, msgs := s.sends(n)
	if !alphaDelta.IsEmpty() {
		grow(&s.alphas[last], &s.ownLast, alphaDelta)
	}
	if !betaDelta.IsEmpty() {
		grow(&s.beta, &s.ownBeta, betaDelta)
	}
	if toFrozen {
		// One message serves every frozen edge.
		msgs[1] = gcMsg{payload: s.payload, beta: betaDelta}
		for j := 0; j < last; j++ {
			outs[j] = &msgs[1]
		}
	}
	msgs[0] = gcMsg{payload: s.payload, alpha: alphaDelta, beta: betaDelta}
	outs[last] = &msgs[0]
	return outs
}

// freeze builds frozen = label ∪ alpha_1 ∪ ... ∪ alpha_{d-1} in scratch and
// keeps a copy of its own, one allocation. Under CanonicalPartition the
// frozen alphas and the label are adjacent pieces of one interval, so the
// copy is a single interval.
func (s *gcState) freeze(label interval.Union) {
	if len(s.alphas) == 1 {
		s.frozen = label // nothing to join; like a part, it is never written
		return
	}
	buf, acc := s.scratch[:0], label
	for _, a := range s.alphas[:len(s.alphas)-1] {
		buf, acc = interval.AppendUnion(buf, acc, a)
	}
	_, s.frozen = interval.AppendCopy(make([]interval.Interval, 0, acc.NumIntervals()), acc)
	s.scratch = buf
}

// firstSends returns the messages of a first receipt: every out-edge j
// carries (alpha_j, beta) unless both are empty.
func (s *gcState) firstSends() []protocol.Message {
	outs, msgs := s.sends(len(s.alphas))
	for j, a := range s.alphas {
		if a.IsEmpty() && s.beta.IsEmpty() {
			continue
		}
		msgs[j] = gcMsg{payload: s.payload, alpha: a, beta: s.beta}
		outs[j] = &msgs[j]
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
	m, ok := msg.(*gcMsg)
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
		grow(&n.beta, &n.ownBeta, bIn)
		return nil, nil
	}

	if !n.virgin {
		return n.step(aIn, bIn, interval.EmptyUnion()), nil
	}
	// pi == pi0: canonically partition alpha' among the out-edges and adopt
	// beta' wholesale.
	n.virgin = false
	if !aIn.IsEmpty() {
		aIn.PartitionInto(n.alphas, n.literal)
	}
	n.beta = bIn
	return n.firstSends(), nil
}

// Alphas returns a copy of the per-edge alpha state for invariant checks and
// the omniscient-observer tests; the protocol itself never reads it
// externally.
func (n *gcNode) Alphas() []interval.Union {
	out := make([]interval.Union, len(n.alphas))
	for j, a := range n.alphas {
		out[j] = a.Clone()
	}
	return out
}

// Beta returns a copy of the beta state for invariant checks.
func (n *gcNode) Beta() interval.Union { return n.beta.Clone() }

// gcTerminal accumulates everything that arrives; S(pi) holds when
// alpha ∪ beta = [0, 1). Until beta content arrives, which on a DAG is
// never, the cover alpha ∪ beta is alpha itself and is not built: the first
// merge that brings beta makes it from alpha and beta.
//
// Arrivals are not spliced into the unions one by one. An arrival whose end
// points have at most 64 fraction bits is staged, as fixed-point intervals,
// in a pending buffer, and the terminal keeps a bound: the cover's measure
// plus the lengths of everything staged. The bound is at least the measure
// of cover ∪ pending, so while it is below 1 the cover cannot be full and S
// cannot hold. Only when the bound reaches 1 does the terminal merge: it
// sorts and coalesces the buffer, grows alpha, beta and the cover by one
// union each, and recomputes the bound as the cover's exact measure. Done
// reads the merged cover, so it stays exact; Output and StateBits merge
// first. On a DAG the alpha arrivals are disjoint and a run merges once.
//
// An arrival with a deeper end point is absorbed at once, exactly, after a
// merge. The cover's measure then has no fixed-point form, so from there on,
// and once the cover is full, every arrival is absorbed at once.
type gcTerminal struct {
	alpha interval.Union
	beta  interval.Union
	cover interval.Union // alpha ∪ beta; unused while beta is empty
	// pendAlpha and pendBeta are the staged arrivals.
	pendAlpha, pendBeta []interval.Fixed
	// measure is the cover's measure and bound adds the staged lengths,
	// both in units of 2^-64. A carry out of bound is the bound reaching 1.
	measure, bound uint64
	// exact is set once arrivals are absorbed without staging.
	exact bool
	// scratch holds a merge's intermediate unions.
	scratch []interval.Interval
}

// Receive implements protocol.Node. The three unions are owned by the
// terminal and grow in place; nothing outside it ever holds their storage.
func (t *gcTerminal) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(*gcMsg)
	if !ok {
		return nil, fmt.Errorf("generalcast: unexpected message type %T", msg)
	}
	t.receive(m)
	return nil, nil
}

// receive takes in m; the mapping terminal calls it on the labeling message
// it unwraps.
func (t *gcTerminal) receive(m *gcMsg) {
	if !t.exact {
		na, nb, bound := len(t.pendAlpha), len(t.pendBeta), t.bound
		fullA, okA := t.stage(&t.pendAlpha, m.alpha)
		fullB, okB := t.stage(&t.pendBeta, m.beta)
		if okA && okB {
			if fullA || fullB {
				t.merge()
			}
			return
		}
		t.pendAlpha, t.pendBeta, t.bound = t.pendAlpha[:na], t.pendBeta[:nb], bound
		t.merge()
		t.exact = true
	}
	t.absorb(m.alpha, m.beta)
}

// stage appends u's intervals to *pend and their lengths to the bound. It
// reports whether the bound reached 1, and ok == false when an end point
// has more than 64 fraction bits; the caller then drops what it staged.
func (t *gcTerminal) stage(pend *[]interval.Fixed, u interval.Union) (full, ok bool) {
	for _, iv := range u.Intervals() {
		f, ok := iv.Fixed()
		if !ok {
			return full, false
		}
		var carry uint64
		t.bound, carry = bits.Add64(t.bound, f.Last-f.Lo, 1)
		full = full || carry != 0
		*pend = append(*pend, f)
	}
	return full, true
}

// merge folds the staged arrivals into alpha, beta and the cover, and
// resets the bound to the cover's measure.
func (t *gcTerminal) merge() {
	if len(t.pendAlpha)+len(t.pendBeta) == 0 {
		return
	}
	buf := t.scratch[:0]
	buf, a := interval.AppendFixed(buf, t.pendAlpha)
	buf, b := interval.AppendFixed(buf, t.pendBeta)
	buf, in := interval.AppendUnion(buf, a, b)
	buf, fresh := interval.AppendSubtract(buf, in, t.covered())
	t.scratch = buf
	t.pendAlpha, t.pendBeta = t.pendAlpha[:0], t.pendBeta[:0]
	for _, iv := range fresh.Intervals() {
		f, _ := iv.Fixed()
		var carry uint64
		if t.measure, carry = bits.Add64(t.measure, f.Last-f.Lo, 1); carry != 0 {
			t.exact = true // the cover is [0, 1): there is nothing to bound
		}
	}
	t.bound = t.measure
	t.absorb(a, b)
}

// absorb grows alpha, beta and the cover by a and b in place.
func (t *gcTerminal) absorb(a, b interval.Union) {
	first := t.beta.IsEmpty()
	t.alpha.Absorb(a)
	t.beta.Absorb(b)
	switch {
	case t.beta.IsEmpty():
		// The cover is alpha.
	case first:
		t.cover = t.alpha.Union(t.beta)
	default:
		t.cover.Absorb(a)
		t.cover.Absorb(b)
	}
}

// covered returns alpha ∪ beta as merged so far, without copying it.
func (t *gcTerminal) covered() interval.Union {
	if t.beta.IsEmpty() {
		return t.alpha
	}
	return t.cover
}

// Done implements the stopping predicate S. It needs no merge: staged
// arrivals complete the cover only when the bound reaches 1, and that
// merges them at once.
func (t *gcTerminal) Done() bool { return t.covered().IsFull() }

// Output returns a copy of the covered union (== [0,1) on termination).
func (t *gcTerminal) Output() any {
	t.merge()
	return t.covered().Clone()
}
