package core

import (
	"fmt"
	"math/big"

	"repro/internal/bitio"
	"repro/internal/dyadic"
	"repro/internal/protocol"
)

// TreeRule selects the flow-distribution rule of the grounded-tree broadcast.
type TreeRule int

// Flow-distribution rules of Section 3.1.
const (
	// RulePow2 is the paper's improved rule: commodities stay powers of 2,
	// encodable in O(log |E|) bits, giving total communication
	// O(|E| log |E|) + |E||m| (Theorem 3.1).
	RulePow2 TreeRule = iota + 1
	// RuleNaive is the naive x/d rule: exact rationals whose representation
	// grows linearly along the tree, giving the O(|E|^{3/2}) + |E||m| bound
	// the paper states for the straightforward protocol. Kept as the
	// ablation baseline (experiment E1b).
	RuleNaive
)

// String returns the rule name.
func (r TreeRule) String() string {
	switch r {
	case RulePow2:
		return "pow2"
	case RuleNaive:
		return "naive"
	default:
		return fmt.Sprintf("TreeRule(%d)", int(r))
	}
}

// TreeBroadcast is the broadcasting protocol for grounded trees (Section
// 3.1). The root sends (m, 1); a vertex of out-degree d that receives (m, x)
// forwards m with shares of x on its out-edges per the selected rule; the
// terminal declares termination once its received shares sum to exactly 1,
// which happens iff every vertex of the tree is connected to t.
type TreeBroadcast struct {
	payload Payload
	rule    TreeRule
	// pow2Msgs[exp] is the boxed message (m, 2^-exp) under RulePow2, built
	// once so a delivery hands out shared interface values instead of
	// boxing a fresh one per out-edge. It is never written after
	// construction: one protocol value may serve many runs at once.
	pow2Msgs []protocol.Message
}

var (
	_ protocol.Protocol     = (*TreeBroadcast)(nil)
	_ protocol.BatchBuilder = (*TreeBroadcast)(nil)
)

// NewTreeBroadcast returns the grounded-tree broadcast protocol carrying the
// given payload m under the given rule.
func NewTreeBroadcast(m []byte, rule TreeRule) *TreeBroadcast {
	p := &TreeBroadcast{payload: Payload(m), rule: rule}
	if rule == RulePow2 {
		p.pow2Msgs = make([]protocol.Message, 64)
		for exp := range p.pow2Msgs {
			p.pow2Msgs[exp] = pow2Msg{payload: p.payload, exp: uint(exp)}
		}
	}
	return p
}

// pow2 returns the message (m, 2^-exp), from the shared table when exp is
// small enough.
func (p *TreeBroadcast) pow2(exp uint) protocol.Message {
	if exp < uint(len(p.pow2Msgs)) {
		return p.pow2Msgs[exp]
	}
	return pow2Msg{payload: p.payload, exp: exp}
}

// Name implements protocol.Protocol.
func (p *TreeBroadcast) Name() string { return "treecast/" + p.rule.String() }

// InitialMessage implements protocol.Protocol: sigma0 = (m, 1).
func (p *TreeBroadcast) InitialMessage() protocol.Message {
	if p.rule == RuleNaive {
		return naiveMsg{payload: p.payload, x: big.NewRat(1, 1)}
	}
	return p.pow2(0)
}

// NewNode implements protocol.Protocol. Under RulePow2 it builds a batch of
// one, so a node has the same layout however it was built. The node and its
// batch share one allocation: a run built one node at a time (a wrapping
// protocol that hides NewNodes) would otherwise chase a pointer to a
// separate batch on every receipt, about 100 ns more per receipt on a
// 50,000-vertex tree.
func (p *TreeBroadcast) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		if p.rule == RuleNaive {
			return &naiveTreeTerminal{sum: new(big.Rat)}
		}
		return &pow2TreeTerminal{}
	}
	if p.rule == RuleNaive {
		return &naiveTreeNode{outDeg: outDeg, payload: p.payload}
	}
	one := new(struct {
		node  pow2TreeNode
		batch pow2Batch
	})
	one.batch = pow2Batch{p: p, outs: make([]protocol.Message, outDeg)}
	one.node = pow2TreeNode{b: &one.batch, hi: int32(outDeg)}
	return &one.node
}

// NewNodes implements protocol.BatchBuilder. Under RulePow2 a run's
// internal nodes share one slab, and their outs share one backing of one
// entry per out-edge; each node owns the disjoint window of its out-ports,
// capped at its length, so no append through one node's outs reaches the
// next node's.
func (p *TreeBroadcast) NewNodes(nodes []protocol.Node, vertex func(v int) (inDeg, outDeg int, role protocol.Role)) {
	if p.rule == RuleNaive {
		for v := range nodes {
			nodes[v] = p.NewNode(vertex(v))
		}
		return
	}
	total := 0
	for v := range nodes {
		if _, outDeg, role := vertex(v); role != protocol.RoleTerminal {
			total += outDeg
		}
	}
	b := &pow2Batch{p: p, outs: make([]protocol.Message, total)}
	slab := make([]pow2TreeNode, len(nodes))
	lo := 0
	for v := range nodes {
		_, outDeg, role := vertex(v)
		if role == protocol.RoleTerminal {
			nodes[v] = &pow2TreeTerminal{}
			continue
		}
		slab[v] = pow2TreeNode{b: b, lo: int32(lo), hi: int32(lo + outDeg)}
		nodes[v] = &slab[v]
		lo += outDeg
	}
}

// pow2Msg is (m, 2^-exp): the commodity is transmitted as its exponent,
// gamma-coded, so a value as small as 2^-|E| costs only O(log |E|) bits.
// It is comparable, so the metering interner finds a re-sent value in its
// memo without rendering Key.
type pow2Msg struct {
	payload Payload
	exp     uint
}

// Bits implements protocol.Message.
func (m pow2Msg) Bits() int { return bitio.Gamma0Len(uint64(m.exp)) + m.payload.Bits() }

// Key implements protocol.Message.
func (m pow2Msg) Key() string { return fmt.Sprintf("2^-%d", m.exp) }

// Value returns the commodity as an exact dyadic.
func (m pow2Msg) Value() dyadic.D { return dyadic.Pow2(m.exp) }

// pow2Batch is what a batch of power-of-2 tree nodes shares: the protocol
// and one outs backing.
type pow2Batch struct {
	p    *TreeBroadcast
	outs []protocol.Message
}

// pow2TreeNode is an internal (or root) vertex: outs[lo:hi] of its batch is
// the window it fills and returns when it fires, and firing sets hi to lo.
// It is kept at 16 bytes so that a run's slab and backing together allocate
// fewer bytes than a heap node and an outs slice per vertex would.
type pow2TreeNode struct {
	b      *pow2Batch
	lo, hi int32
}

// Receive forwards the commodity per the power-of-2 rule. Grounded-tree
// vertices have in-degree 1 and thus receive exactly once (Lemma 3.3);
// further deliveries — possible only on non-grounded-tree inputs — are
// ignored, which keeps the protocol commodity-preserving and therefore
// non-terminating on inputs outside its contract. Firing at most once is
// also what lets the node return its window of the batch without a copy.
func (n *pow2TreeNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(pow2Msg)
	if !ok {
		return nil, fmt.Errorf("treecast: unexpected message type %T", msg)
	}
	if n.lo == n.hi {
		return nil, nil
	}
	outs := n.b.outs[n.lo:n.hi:n.hi]
	n.hi = n.lo
	for j := range outs {
		outs[j] = n.b.p.pow2(m.exp + pow2Share(len(outs), j))
	}
	return outs, nil
}

type pow2TreeTerminal struct {
	sum dyadic.D
}

// Receive accumulates incoming shares in place.
func (t *pow2TreeTerminal) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(pow2Msg)
	if !ok {
		return nil, fmt.Errorf("treecast: unexpected message type %T", msg)
	}
	t.sum.Absorb(m.Value())
	return nil, nil
}

// Done implements the stopping predicate S: the shares sum to exactly 1.
func (t *pow2TreeTerminal) Done() bool { return t.sum.IsOne() }

// Output returns a copy of the accumulated commodity.
func (t *pow2TreeTerminal) Output() any { return t.sum.Clone() }

// naiveMsg is (m, x) with x an exact rational, as in the naive x/d rule.
type naiveMsg struct {
	payload Payload
	x       *big.Rat
}

// Bits implements protocol.Message: numerator plus denominator length, each
// self-delimited.
func (m naiveMsg) Bits() int {
	nb := m.x.Num().BitLen()
	db := m.x.Denom().BitLen()
	return bitio.Delta0Len(uint64(nb)) + nb + bitio.Delta0Len(uint64(db)) + db + m.payload.Bits()
}

// Key implements protocol.Message.
func (m naiveMsg) Key() string { return m.x.RatString() }

type naiveTreeNode struct {
	outDeg  int
	payload Payload
	fired   bool
}

// Receive forwards x/d on every out-edge.
func (n *naiveTreeNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(naiveMsg)
	if !ok {
		return nil, fmt.Errorf("treecast: unexpected message type %T", msg)
	}
	if n.fired || n.outDeg == 0 {
		return nil, nil
	}
	n.fired = true
	share := new(big.Rat).Quo(m.x, big.NewRat(int64(n.outDeg), 1))
	outs := make([]protocol.Message, n.outDeg)
	for j := range outs {
		outs[j] = naiveMsg{payload: n.payload, x: share}
	}
	return outs, nil
}

type naiveTreeTerminal struct {
	sum *big.Rat
}

// Receive accumulates incoming shares.
func (t *naiveTreeTerminal) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(naiveMsg)
	if !ok {
		return nil, fmt.Errorf("treecast: unexpected message type %T", msg)
	}
	t.sum.Add(t.sum, m.x)
	return nil, nil
}

// Done implements the stopping predicate S.
func (t *naiveTreeTerminal) Done() bool { return t.sum.Cmp(big.NewRat(1, 1)) == 0 }

// Output returns the accumulated commodity.
func (t *naiveTreeTerminal) Output() any { return new(big.Rat).Set(t.sum) }
