package core

import (
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dyadic"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// runAllSchedules runs p on g under every delivery order of the event-driven
// engine plus the concurrent engine, asserts all runs agree on the verdict,
// and returns the FIFO run.
func runAllSchedules(t *testing.T, g *graph.G, p protocol.Protocol, opts sim.Options) *sim.Result {
	t.Helper()
	var first *sim.Result
	for _, newSched := range []func() sim.Scheduler{sim.NewFIFOScheduler, sim.NewLIFOScheduler, sim.NewRandomScheduler} {
		o := opts
		o.Scheduler = newSched()
		o.Seed = 1234
		r, err := sim.Run(g, p, o)
		if err != nil {
			t.Fatalf("%s on %s order %s: %v", p.Name(), g, o.Scheduler.Name(), err)
		}
		if first == nil {
			first = r
		} else if r.Verdict != first.Verdict {
			t.Fatalf("%s on %s: verdict differs across orders: %s vs %s", p.Name(), g, r.Verdict, first.Verdict)
		}
	}
	rc, err := sim.Concurrent().Run(g, p, opts)
	if err != nil {
		t.Fatalf("%s on %s concurrent: %v", p.Name(), g, err)
	}
	if rc.Verdict != first.Verdict {
		t.Fatalf("%s on %s: concurrent verdict %s != seq %s", p.Name(), g, rc.Verdict, first.Verdict)
	}
	return first
}

// groundedTreeWithOrphan returns a grounded tree containing one vertex that
// is reachable from s but not connected to t.
func groundedTreeWithOrphan(t *testing.T) *graph.G {
	t.Helper()
	// s -> v1 -> v2 -> t, v1 -> orphan (out-degree 0).
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(1, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsGroundedTree() || g.AllConnectedToTerminal() {
		t.Fatal("test graph malformed")
	}
	return g
}

func groundedTreeFamilies() []*graph.G {
	gs := []*graph.G{
		graph.Line(1), graph.Line(7),
		graph.Chain(1), graph.Chain(2), graph.Chain(9),
		graph.KaryGroundedTree(3, 2), graph.KaryGroundedTree(2, 4),
	}
	for seed := int64(0); seed < 6; seed++ {
		gs = append(gs, graph.RandomGroundedTree(25, 0.3, seed))
	}
	return gs
}

func TestTreeBroadcastTerminatesOnGroundedTrees(t *testing.T) {
	for _, rule := range []TreeRule{RulePow2, RuleNaive} {
		p := NewTreeBroadcast([]byte("hello"), rule)
		for _, g := range groundedTreeFamilies() {
			r := runAllSchedules(t, g, p, sim.Options{})
			if r.Verdict != sim.Terminated {
				t.Fatalf("%s on %s: verdict %s", p.Name(), g, r.Verdict)
			}
			if !r.AllVisited() {
				t.Fatalf("%s on %s: terminated without visiting all vertices", p.Name(), g)
			}
			// Lemma 3.3: exactly one message per edge.
			if r.Metrics.Messages != g.NumEdges() {
				t.Fatalf("%s on %s: %d messages, want %d", p.Name(), g, r.Metrics.Messages, g.NumEdges())
			}
			if r.Metrics.MaxEdgeMsgs() != 1 {
				t.Fatalf("%s on %s: some edge carried %d messages", p.Name(), g, r.Metrics.MaxEdgeMsgs())
			}
		}
	}
}

func TestTreeBroadcastDoesNotTerminateWithOrphan(t *testing.T) {
	g := groundedTreeWithOrphan(t)
	for _, rule := range []TreeRule{RulePow2, RuleNaive} {
		p := NewTreeBroadcast(nil, rule)
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Quiescent {
			t.Fatalf("%s: verdict %s, want quiescent", p.Name(), r.Verdict)
		}
	}
}

func TestPow2TerminalSumIsOne(t *testing.T) {
	g := graph.Chain(6)
	r, err := sim.Run(g, NewTreeBroadcast(nil, RulePow2), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := r.Output.(dyadic.D)
	if !ok || !sum.IsOne() {
		t.Fatalf("terminal sum = %v, want exactly 1", r.Output)
	}
}

func TestNaiveTerminalSumIsOne(t *testing.T) {
	g := graph.KaryGroundedTree(2, 3)
	r, err := sim.Run(g, NewTreeBroadcast(nil, RuleNaive), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := r.Output.(*big.Rat)
	if !ok || sum.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("terminal sum = %v, want exactly 1", r.Output)
	}
}

func TestPow2ValuesAreAlwaysPowersOfTwo(t *testing.T) {
	// Every transmitted commodity must be 2^-k: the alphabet keys encode the
	// exponent directly, so checking the key format suffices.
	for seed := int64(0); seed < 4; seed++ {
		g := graph.RandomGroundedTree(40, 0.3, seed)
		r, err := sim.Run(g, NewTreeBroadcast(nil, RulePow2), sim.Options{TrackAlphabet: true})
		if err != nil {
			t.Fatal(err)
		}
		for key := range r.Metrics.Alphabet {
			if !strings.HasPrefix(key, "2^-") {
				t.Fatalf("non power-of-2 commodity transmitted: %q", key)
			}
		}
	}
}

func TestPow2SharesConservation(t *testing.T) {
	// alpha*(2^-ceil) + (d-alpha)*(2^-(ceil-1)) must equal 1 for every d.
	for d := 1; d <= 256; d++ {
		sum := dyadic.Zero()
		for j := 0; j < d; j++ {
			sum = sum.Add(dyadic.Pow2(pow2Share(d, j)))
		}
		if !sum.IsOne() {
			t.Fatalf("pow2Share(%d, ·) sums to %s, want 1", d, sum)
		}
	}
}

func TestNaiveBandwidthExceedsPow2OnDeepTrees(t *testing.T) {
	// Section 3.1: the naive rule's representations grow much faster. On a
	// caterpillar of out-degree-3 vertices the naive denominators are 3^k
	// while pow2 exponents are ~2k, so bandwidth differs asymptotically.
	b := graph.NewBuilder(2) // s and t to start
	s := graph.VertexID(0)
	tt := graph.VertexID(1)
	prev := b.AddVertex()
	b.AddEdge(s, prev)
	const depth = 30
	for i := 0; i < depth; i++ {
		next := b.AddVertex()
		leaf := b.AddVertex()
		b.AddEdge(prev, next).AddEdge(prev, leaf).AddEdge(prev, tt)
		b.AddEdge(leaf, tt)
		prev = next
	}
	b.AddEdge(prev, tt)
	b.SetRoot(s).SetTerminal(tt)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsGroundedTree() {
		t.Fatal("caterpillar not a grounded tree")
	}
	rp, err := sim.Run(g, NewTreeBroadcast(nil, RulePow2), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := sim.Run(g, NewTreeBroadcast(nil, RuleNaive), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Verdict != sim.Terminated || rn.Verdict != sim.Terminated {
		t.Fatal("both rules must terminate")
	}
	if rn.Metrics.MaxEdgeBits() < 2*rp.Metrics.MaxEdgeBits() {
		t.Fatalf("expected naive bandwidth to dominate: naive=%d pow2=%d",
			rn.Metrics.MaxEdgeBits(), rp.Metrics.MaxEdgeBits())
	}
}

func TestChainAlphabetLowerBound(t *testing.T) {
	// Lemma 3.7 / Theorem 3.2: on G_n the spine edges (each pair separated
	// by an out-degree-2 vertex) must carry pairwise distinct symbols, so
	// any broadcasting protocol needs Omega(n) distinct symbols. Our
	// protocol uses exactly n (2^0 .. 2^-(n-1)) — tight.
	for _, n := range []int{2, 5, 10, 20} {
		g := graph.Chain(n)
		r, err := sim.Run(g, NewTreeBroadcast(nil, RulePow2), sim.Options{TrackAlphabet: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Metrics.AlphabetSize(); got != n {
			t.Fatalf("Chain(%d): alphabet %d, want exactly n = %d", n, got, n)
		}
	}
}

func TestTreeBroadcastPayloadDelivered(t *testing.T) {
	// The |m| term: total bits must include |E| * |m|.
	m := make([]byte, 128)
	g := graph.Chain(5)
	r, err := sim.Run(g, NewTreeBroadcast(m, RulePow2), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPayloadBits := int64(g.NumEdges() * len(m) * 8)
	if r.Metrics.TotalBits <= wantPayloadBits {
		t.Fatalf("total bits %d does not include payload term %d", r.Metrics.TotalBits, wantPayloadBits)
	}
	r0, err := sim.Run(g, NewTreeBroadcast(nil, RulePow2), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.TotalBits-r0.Metrics.TotalBits != wantPayloadBits {
		t.Fatalf("payload accounting: with-m %d, without-m %d, delta %d != %d",
			r.Metrics.TotalBits, r0.Metrics.TotalBits, r.Metrics.TotalBits-r0.Metrics.TotalBits, wantPayloadBits)
	}
}

// TestTreeBatchMatchesNewNode checks the nodes TreeBroadcast.NewNodes builds
// against nodes built one by one with NewNode, under both rules: a root, one
// internal vertex of every out-degree 0-9 and a terminal, fed the same
// commodities. Each node fires once, returning exactly its out-degree's
// messages in a slice with no spare capacity, so an append to one vertex's
// outs cannot write into the next vertex's window of the shared backing.
// Like TestNodeStateDoesNotAlias it then writes through every returned slice
// and checks that no other vertex's messages changed.
func TestTreeBatchMatchesNewNode(t *testing.T) {
	type vertex struct {
		in, out int
		role    protocol.Role
	}
	vs := []vertex{{0, 1, protocol.RoleRoot}}
	for d := 0; d <= 9; d++ {
		vs = append(vs, vertex{1, d, protocol.RoleInternal})
	}
	vs = append(vs, vertex{4, 0, protocol.RoleTerminal})
	keys := func(outs []protocol.Message) []string {
		ks := make([]string, len(outs))
		for j, m := range outs {
			ks[j] = m.Key()
		}
		return ks
	}
	for _, rule := range []TreeRule{RulePow2, RuleNaive} {
		p := NewTreeBroadcast([]byte("m"), rule)
		for _, exp := range []uint{0, 1, 7, 60, 63, 64, 300} {
			// junk is a message no vertex sends, written through the outs.
			in, junk := p.pow2(exp), p.pow2(5000)
			if rule == RuleNaive {
				in = naiveMsg{payload: p.payload, x: new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), exp))}
				junk = naiveMsg{payload: p.payload, x: big.NewRat(7, 1)}
			}
			batch := make([]protocol.Node, len(vs))
			p.NewNodes(batch, func(v int) (int, int, protocol.Role) { return vs[v].in, vs[v].out, vs[v].role })
			sent := make([][]protocol.Message, len(vs))
			want := make([][]string, len(vs))
			for v, x := range vs {
				single := p.NewNode(x.in, x.out, x.role)
				got, err := batch[v].Receive(in, 0)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := single.Receive(in, 0)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s exp=%d %s out=%d", rule, exp, x.role, x.out)
				if !reflect.DeepEqual(keys(got), keys(ref)) {
					t.Fatalf("%s: batch node sent %v, NewNode's sent %v", name, keys(got), keys(ref))
				}
				if x.role == protocol.RoleTerminal || x.out == 0 {
					if got != nil {
						t.Fatalf("%s: sent %d messages, want none", name, len(got))
					}
					continue
				}
				if len(got) != x.out || cap(got) != len(got) {
					t.Fatalf("%s: outs has len %d cap %d, want both %d", name, len(got), cap(got), x.out)
				}
				if again, err := batch[v].Receive(in, 0); err != nil || again != nil {
					t.Fatalf("%s: second receipt sent %v (err %v), want nothing", name, again, err)
				}
				sent[v], want[v] = got, keys(got)
			}
			if _, ok := batch[len(vs)-1].(protocol.Terminal); !ok {
				t.Fatalf("%s exp=%d: batch terminal is %T, not a Terminal", rule, exp, batch[len(vs)-1])
			}
			for v := range sent {
				if sent[v] == nil {
					continue
				}
				_ = append(sent[v], junk)
				for j := range sent[v] {
					sent[v][j] = junk
				}
				for w := range sent {
					if w != v && sent[w] != nil && !reflect.DeepEqual(keys(sent[w]), want[w]) {
						t.Fatalf("%s exp=%d: writing vertex %d's outs changed vertex %d's", rule, exp, v, w)
					}
				}
				want[v] = keys(sent[v])
			}
		}
	}
}
