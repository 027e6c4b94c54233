package core

import (
	"math/big"

	"repro/internal/dyadic"
	"repro/internal/interval"
	"repro/internal/protocol"
)

// The Section 2 extension: roots with several outgoing edges. Each protocol
// splits the unit commodity across the root's out-ports exactly as an
// internal vertex of the same out-degree would, so all conservation
// arguments carry over unchanged.

var (
	_ protocol.MultiInitializer = (*TreeBroadcast)(nil)
	_ protocol.MultiInitializer = (*DAGBroadcast)(nil)
	_ protocol.MultiInitializer = (*GeneralBroadcast)(nil)
	_ protocol.MultiInitializer = (*LabelAssign)(nil)
	_ protocol.MultiInitializer = (*MapExtract)(nil)
)

// InitialMessages implements protocol.MultiInitializer with the power-of-2
// (or naive x/d) share rule applied to the unit.
func (p *TreeBroadcast) InitialMessages(d int) []protocol.Message {
	outs := make([]protocol.Message, d)
	if p.rule == RuleNaive {
		share := big.NewRat(1, int64(d))
		for j := range outs {
			outs[j] = naiveMsg{payload: p.payload, x: share}
		}
		return outs
	}
	for j := range outs {
		outs[j] = p.pow2(pow2Share(d, j))
	}
	return outs
}

// InitialMessages implements protocol.MultiInitializer.
func (p *DAGBroadcast) InitialMessages(d int) []protocol.Message {
	outs := make([]protocol.Message, d)
	for j := range outs {
		outs[j] = dagMsg{payload: p.payload, x: dyadic.Pow2(pow2Share(d, j))}
	}
	return outs
}

// InitialMessages implements protocol.MultiInitializer with the canonical
// partition of [0, 1) into d parts.
func (p *GeneralBroadcast) InitialMessages(d int) []protocol.Message {
	return gcInitialMessages(p.payload, d)
}

// gcInitialMessages returns the canonical partition of [0, 1) into d
// messages, held in one slice.
func gcInitialMessages(payload Payload, d int) []protocol.Message {
	outs, msgs := make([]protocol.Message, d), make([]gcMsg, d)
	for j, part := range interval.FullUnion().CanonicalPartition(d) {
		msgs[j] = gcMsg{payload: payload, alpha: part}
		outs[j] = &msgs[j]
	}
	return outs
}

// InitialMessages implements protocol.MultiInitializer. The root itself
// keeps no label: it is one of the two distinguished vertices.
func (p *LabelAssign) InitialMessages(d int) []protocol.Message {
	return gcInitialMessages(p.payload, d)
}

// InitialMessages implements protocol.MultiInitializer. Each injected
// message announces the root endpoint with its true out-degree so the
// mapping closure accounts for all root ports.
func (p *MapExtract) InitialMessages(d int) []protocol.Message {
	outs := make([]protocol.Message, d)
	for j, part := range interval.FullUnion().CanonicalPartition(d) {
		outs[j] = mapMsg{
			gc:        gcMsg{payload: p.payload, alpha: part},
			sender:    Endpoint{Kind: EndpointRoot},
			senderDeg: d,
			outPort:   j,
		}
	}
	return outs
}
