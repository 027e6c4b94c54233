package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// msgCollector captures every message put in flight during a run.
type msgCollector struct{ msgs []protocol.Message }

func (c *msgCollector) OnSend(_ graph.EdgeID, m protocol.Message)     { c.msgs = append(c.msgs, m) }
func (c *msgCollector) OnDeliver(int, graph.EdgeID, protocol.Message) {}

// TestInternerInjectiveAcrossProtocols is the property test behind the
// interned metrics path: over the real message traffic of every protocol in
// this package — dyadic fractions, interval unions, record sets, big.Rat
// symbols — the intern table must be a bijection between transmitted keys
// and symbols. Two messages get the same symbol iff their Key()s are equal,
// KeyOf inverts Intern, and the symbol count equals the run's measured
// |Sigma_G|.
func TestInternerInjectiveAcrossProtocols(t *testing.T) {
	cases := []struct {
		name string
		p    protocol.Protocol
		g    *graph.G
	}{
		{"treecast-pow2", NewTreeBroadcast([]byte("m"), RulePow2), graph.KaryGroundedTree(2, 4)},
		{"treecast-naive", NewTreeBroadcast([]byte("m"), RuleNaive), graph.KaryGroundedTree(3, 3)},
		{"treecast-random", NewTreeBroadcast(nil, RulePow2), graph.RandomGroundedTree(200, 0.3, 4)},
		{"dagcast", NewDAGBroadcast([]byte("m")), graph.RandomDAG(40, 30, 3)},
		{"generalcast", NewGeneralBroadcast([]byte("m")), graph.RandomDigraph(16, 11, graph.RandomDigraphOpts{ExtraEdges: 16, TerminalFrac: 0.3})},
		{"labelcast", NewLabelAssign(nil), graph.RandomDigraph(12, 5, graph.RandomDigraphOpts{ExtraEdges: 10, TerminalFrac: 0.3})},
		{"mapcast", NewMapExtract(nil), graph.Ring(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := &msgCollector{}
			r, err := sim.Run(tc.g, tc.p, sim.Options{
				Scheduler: sim.NewRandomScheduler(), Seed: 5,
				TrackAlphabet: true, Observer: col,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(col.msgs) == 0 {
				t.Fatal("run sent no messages")
			}

			in := protocol.NewInterner()
			keyToSym := make(map[string]protocol.Symbol)
			symToKey := make(map[protocol.Symbol]string)
			for _, m := range col.msgs {
				key := m.Key()
				sym := in.Intern(m)
				if prev, seen := keyToSym[key]; seen && prev != sym {
					t.Fatalf("key %q interned as both %d and %d", key, prev, sym)
				}
				keyToSym[key] = sym
				if prevKey, seen := symToKey[sym]; seen && prevKey != key {
					t.Fatalf("symbol %d covers two distinct keys %q and %q — injectivity broken", sym, prevKey, key)
				}
				symToKey[sym] = key
				if got := in.KeyOf(sym); got != key {
					t.Fatalf("KeyOf(%d) = %q, want %q", sym, got, key)
				}
			}
			if in.Len() != len(keyToSym) {
				t.Fatalf("interner has %d symbols for %d distinct keys", in.Len(), len(keyToSym))
			}
			// The engine's own interned accounting must agree: the
			// materialized alphabet is exactly the distinct-key set of the
			// observed traffic.
			if got := r.Metrics.AlphabetSize(); got != len(keyToSym) {
				t.Fatalf("Metrics.AlphabetSize = %d, observed %d distinct keys", got, len(keyToSym))
			}
			for key := range keyToSym {
				if _, ok := r.Metrics.Alphabet[key]; !ok {
					t.Fatalf("observed key %q missing from Metrics.Alphabet", key)
				}
			}
		})
	}
}
