// Package core implements the paper's protocols:
//
//   - TreeBroadcast: broadcasting over grounded trees with the power-of-2
//     commodity-flow rule of Section 3.1 (Theorem 3.1), plus the naive x/d
//     scalar rule it improves upon;
//   - DAGBroadcast: broadcasting over directed acyclic graphs with a scalar
//     commodity (Section 3.3);
//   - GeneralBroadcast: broadcasting over arbitrary directed networks with
//     the interval-union commodity (alpha, beta) of Section 4 (Theorems 4.2
//     and 4.3);
//   - LabelAssign: unique label assignment of Section 5 (Theorem 5.1), where
//     each vertex keeps a sub-interval of [0, 1) as its identity;
//   - MapExtract: topology extraction built on LabelAssign (the mapping
//     application of Sections 1 and 6; its cost per delivery is described in
//     docs/ARCHITECTURE.md, "Performance architecture").
//
// All protocols follow the commodity-preserving paradigm: the root injects
// one unit of commodity; internal vertices partition what they receive among
// their out-edges (and, for labeling, themselves); the terminal declares
// termination exactly when a full unit has arrived. Termination therefore
// happens iff every vertex is connected to the terminal, with no knowledge of
// |V|, |E| or any identifier anywhere in the network.
package core

import (
	"math/bits"

	"repro/internal/bitio"
)

// Payload is the broadcast message m. Every protocol message carries it; its
// contribution to communication cost is the |m| term of the paper's bounds.
// It is an immutable string, so the protocol constructors copy the caller's
// bytes once and the message types that carry it stay comparable.
type Payload string

// Bits returns the encoded size of the payload in bits.
func (p Payload) Bits() int { return 8 * len(p) }

// pow2Share implements the improved flow-distribution rule of Section 3.1:
// a vertex of out-degree d that received commodity x = 2^-exp sends
// x / 2^ceil(log2 d) on its first 2d - 2^ceil(log2 d) out-edges and twice
// that on the rest. It returns out-port j's exponent increment (0 <= j < d),
// which keeps every share a power of 2, so commodities can be encoded in
// O(log exp) bits instead of the Theta(exp) bits the naive x/d rule needs.
func pow2Share(d, j int) uint {
	ceil := uint(bits.Len(uint(d - 1))) // ceil(log2 d); 0 for d == 1
	if j < 2*d-(1<<ceil) {
		return ceil
	}
	return ceil - 1
}

// gammaBits is a helper for message-size accounting of small integers.
func gammaBits(v int) int { return bitio.Gamma0Len(uint64(v)) }
