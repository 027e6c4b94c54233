package core

import (
	"repro/internal/interval"
	"repro/internal/protocol"
)

// StateBits implementations: the memory footprint of each vertex state,
// measured with the same exact encodings as the messages.

var (
	_ protocol.StateSized = (*pow2TreeNode)(nil)
	_ protocol.StateSized = (*pow2TreeTerminal)(nil)
	_ protocol.StateSized = (*naiveTreeNode)(nil)
	_ protocol.StateSized = (*naiveTreeTerminal)(nil)
	_ protocol.StateSized = (*dagNode)(nil)
	_ protocol.StateSized = (*dagTerminal)(nil)
	_ protocol.StateSized = (*gcNode)(nil)
	_ protocol.StateSized = (*gcTerminal)(nil)
	_ protocol.StateSized = (*labelNode)(nil)
	_ protocol.StateSized = (*mapNode)(nil)
	_ protocol.StateSized = (*mapTerminal)(nil)
)

// StateBits implements protocol.StateSized: one fired flag.
func (n *pow2TreeNode) StateBits() int { return 1 }

// StateBits implements protocol.StateSized.
func (t *pow2TreeTerminal) StateBits() int { return t.sum.EncodedBits() }

// StateBits implements protocol.StateSized.
func (n *naiveTreeNode) StateBits() int { return 1 }

// StateBits implements protocol.StateSized.
func (t *naiveTreeTerminal) StateBits() int {
	return t.sum.Num().BitLen() + t.sum.Denom().BitLen() + 2
}

// StateBits implements protocol.StateSized: the accumulated commodity plus
// the heard counter.
func (n *dagNode) StateBits() int {
	return n.sum.EncodedBits() + gammaBits(n.heard) + 1
}

// StateBits implements protocol.StateSized.
func (t *dagTerminal) StateBits() int { return t.sum.EncodedBits() }

func unionsBits(us ...interval.Union) int {
	n := 0
	for _, u := range us {
		n += u.EncodedBits()
	}
	return n
}

// StateBits implements protocol.StateSized: ((alpha_j)_{j=1..d}, beta).
func (n *gcNode) StateBits() int {
	return unionsBits(n.alphas...) + n.beta.EncodedBits() + 1
}

// StateBits implements protocol.StateSized: alpha, beta and the cover, once
// the staged arrivals are merged.
func (t *gcTerminal) StateBits() int {
	t.merge()
	return unionsBits(t.alpha, t.beta, t.covered())
}

// StateBits implements protocol.StateSized: ((alpha_j)_{j=0..d}, beta).
func (n *labelNode) StateBits() int {
	return unionsBits(n.parts...) + n.beta.EncodedBits() + 1
}

// StateBits implements protocol.StateSized: the labeling state plus the
// learned edge records.
func (n *mapNode) StateBits() int {
	return n.inner.StateBits() + n.recordBits
}

// StateBits implements protocol.StateSized.
func (t *mapTerminal) StateBits() int {
	b := t.gc.StateBits()
	for _, r := range t.recs {
		b += r.Bits()
	}
	return b
}
