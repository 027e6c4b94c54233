package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dyadic"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/msgq"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestIntervalProtocolAllocsPerDelivery bounds the heap allocations of the
// interval-union protocols on a hub-heavy graph, whole run included: setup,
// every Receive, every message key. The nodes come from one batch, a
// receipt computes its intermediates in the node's scratch, the messages it
// sends and their deltas are drawn from the node's chunks, the state and the
// terminal grow in place, and metering appends keys into a reused buffer
// and stores new ones in an arena, so a delivery costs about one
// allocation, most of it new chunks and state growth. The bound is the
// measured 0.90 (generalcast) and 1.08 (labelcast) plus headroom; boxing
// each sent message and giving each step's deltas an exactly sized slice
// costs 1.95 and 1.86.
func TestIntervalProtocolAllocsPerDelivery(t *testing.T) {
	checkIntervalProtocolAllocs(t, "scalefree", map[string]int{"n": 200, "m": 3}, 1.2)
}

// TestIntervalProtocolAllocsOnTorus is the same bound on a cyclic graph. The
// scalefree graph is a DAG, so its beta stays empty; on the torus every
// vertex sits on cycles, most receipts grow beta, and copying beta on each
// growth instead of absorbing the delta in place costs about 4.7 allocations
// per delivery. A receipt that grows beta sends two messages, so the message
// chunks are most of what remains. The bound is the measured 0.73 and 0.75
// plus headroom; boxing each sent message and giving each step's deltas an
// exactly sized slice costs 1.61 and 1.59.
func TestIntervalProtocolAllocsOnTorus(t *testing.T) {
	checkIntervalProtocolAllocs(t, "torus", map[string]int{"w": 8, "h": 8}, 0.85)
}

func checkIntervalProtocolAllocs(t *testing.T, family string, params map[string]int, maxPerDelivery float64) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	g, err := scenario.Build(family, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []protocol.Protocol{NewGeneralBroadcast([]byte("m")), NewLabelAssign(nil)} {
		t.Run(p.Name(), func(t *testing.T) {
			sched, err := sim.NewScheduler("random")
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.Options{Scheduler: sched, Seed: 3, TrackAlphabet: true}
			var deliveries int
			allocs := testing.AllocsPerRun(5, func() {
				r, err := sim.Run(g, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					t.Fatalf("verdict %v, want terminated", r.Verdict)
				}
				deliveries = r.Steps
			})
			per := allocs / float64(deliveries)
			t.Logf("%.0f allocations over %d deliveries: %.2f per delivery", allocs, deliveries, per)
			if per > maxPerDelivery {
				t.Fatalf("%.2f allocations per delivery, want <= %g", per, maxPerDelivery)
			}
		})
	}
}

// TestTreeProtocolAllocsPerDelivery bounds the heap allocations of
// power-of-2 tree broadcast, whole run included. Its messages come from a
// table built once per protocol, metering finds them in the interner's value
// memo, the terminal sums in place, and the nodes come from one batch whose
// outs backing each firing vertex fills a window of, so what remains is a
// fixed per-run cost. The bound is the measured 0.012 plus headroom; one
// allocation per vertex, a node or an outs slice, would cost about 0.6.
func TestTreeProtocolAllocsPerDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	const maxPerDelivery = 0.05
	// The interner's memo keys on message values; a pow2Msg that stopped
	// being comparable would send every metered send through Key instead.
	if !reflect.TypeOf(pow2Msg{}).Comparable() {
		t.Fatal("pow2Msg is not comparable")
	}
	g := graph.RandomGroundedTree(5000, 0.2, 7)
	p := NewTreeBroadcast([]byte("m"), RulePow2)
	sched, err := sim.NewScheduler("random")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Scheduler: sched, Seed: 3, TrackAlphabet: true}
	var deliveries int
	allocs := testing.AllocsPerRun(5, func() {
		r, err := sim.Run(g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("verdict %v, want terminated", r.Verdict)
		}
		deliveries = r.Steps
	})
	per := allocs / float64(deliveries)
	t.Logf("%.0f allocations over %d deliveries: %.3f per delivery", allocs, deliveries, per)
	if per > maxPerDelivery {
		t.Fatalf("%.3f allocations per delivery, want <= %g", per, maxPerDelivery)
	}
}

// TestTreeBroadcastUsesNoChunks pins the queue layout a grounded-tree
// broadcast relies on: every vertex receives once, so no edge ever holds more
// than one message, and the queues' inline front slots carry the whole run.
// A pooled chunk recycled here means a message left the inline slot.
func TestTreeBroadcastUsesNoChunks(t *testing.T) {
	recycled := 0
	msgq.TestingRecycleObserver = func(int) { recycled++ }
	defer func() { msgq.TestingRecycleObserver = nil }()

	g := graph.RandomGroundedTree(2000, 0.2, 7)
	sched, err := sim.NewScheduler("random")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(g, NewTreeBroadcast([]byte("m"), RulePow2), sim.Options{Scheduler: sched, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %v, want terminated", r.Verdict)
	}
	if recycled != 0 {
		t.Fatalf("tree broadcast recycled %d queue chunks, want 0", recycled)
	}
}

// TestMapProtocolAllocsPerDelivery bounds the heap allocations of topology
// extraction, whole run included. Each vertex renders its label's key once,
// records are deduplicated by comparable IDs built from those keys, and the
// terminal updates its closure once per new record, so a delivery costs the
// forwarded messages and the records learned; rebuilding the closure on
// every delivery, as a stopping check over all records, costs thousands.
// The labeling state reuses its message slots, as the node copies each
// labeling message into its own, and the unwrapped message is passed on
// without boxing. The bound is the measured 3.34 plus headroom; boxing the
// labeling messages costs 5.07.
func TestMapProtocolAllocsPerDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	const maxPerDelivery = 3.7
	g := graph.RandomDAG(100, 200, 7)
	sched, err := sim.NewScheduler("random")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Scheduler: sched, Seed: 3}
	var deliveries int
	allocs := testing.AllocsPerRun(2, func() {
		r, err := sim.Run(g, NewMapExtract(nil), opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("verdict %v, want terminated", r.Verdict)
		}
		deliveries = r.Steps
	})
	per := allocs / float64(deliveries)
	t.Logf("%.0f allocations over %d deliveries: %.2f per delivery", allocs, deliveries, per)
	if per > maxPerDelivery {
		t.Fatalf("%.2f allocations per delivery, want <= %g", per, maxPerDelivery)
	}
}

// BenchmarkPow2TreeReceive measures one internal vertex of out-degree 3
// forwarding its commodity. It fills the window of the outs backing the node
// was built with, so it allocates nothing.
func BenchmarkPow2TreeReceive(b *testing.B) {
	p := NewTreeBroadcast([]byte("m"), RulePow2)
	n := p.NewNode(1, 3, protocol.RoleInternal).(*pow2TreeNode)
	hi := n.hi
	in := p.pow2(5)
	b.ReportAllocs()
	for b.Loop() {
		n.hi = hi // re-arm the fire-once node
		if _, err := n.Receive(in, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGCMsgKeyMatchesTwoWriterComposition pins gcMsg.Key to the composition
// it replaced — each union rendered by its own bit writer, joined by '|' —
// because anonshrink timelines and the Alphabet/FirstSymbol maps print keys.
func TestGCMsgKeyMatchesTwoWriterComposition(t *testing.T) {
	render := func(u interval.Union) string {
		var w bitio.Writer
		u.Encode(&w)
		return string(w.Bytes())
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		m := gcMsg{alpha: randUnion(rng, 8, 40, 0), beta: randUnion(rng, 8, 40, 30)}
		if i%7 == 0 {
			m.beta = interval.EmptyUnion()
		}
		if got, want := m.Key(), render(m.alpha)+"|"+render(m.beta); got != want {
			t.Fatalf("Key(%s, %s) = %q, want %q", m.alpha, m.beta, got, want)
		}
		if got, want := m.alpha.Key(), render(m.alpha); got != want {
			t.Fatalf("Union.Key(%s) = %q, want %q", m.alpha, got, want)
		}
	}
}

func BenchmarkGCMsgKey(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := gcMsg{alpha: randUnion(rng, 3, 40, 0), beta: randUnion(rng, 3, 40, 0)}
	b.ReportAllocs()
	for b.Loop() {
		m.Key()
	}
}

// randUnion draws a union of up to n random intervals whose end points are
// multiples of 2^-bits scaled down by 2^-shift, so precisions reach
// bits+shift.
func randUnion(rng *rand.Rand, n int, bits, shift uint) interval.Union {
	den := uint64(1) << bits
	ivs := make([]interval.Interval, rng.Intn(n+1))
	for i := range ivs {
		a, b := rng.Uint64()%den, rng.Uint64()%(den+1)
		ivs[i] = interval.Interval{
			Lo: dyadic.FromFrac(min(a, b), bits).Shr(shift),
			Hi: dyadic.FromFrac(max(a, b), bits).Shr(shift),
		}
	}
	return interval.NewUnion(ivs...)
}

// TestTerminalStateDoesNotAlias shows that the terminal's state leaks in
// neither direction: a message's unions may be written after delivery (they
// are values shared by every copy in flight), whether the terminal staged
// them or absorbed them, and the unions Output, AlphaSeen and BetaSeen
// return may be written by the caller, without changing what the terminal
// has seen. The last receipts carry end points past 64 fraction bits, which
// the terminal absorbs at once.
func TestTerminalStateDoesNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	clobber := interval.Interval{Lo: dyadic.Pow2(3), Hi: dyadic.Pow2(2)}
	overwrite := func(u interval.Union) {
		for i := range u.Intervals() {
			u.Intervals()[i] = clobber
		}
	}
	term := &gcTerminal{}
	var alpha, beta interval.Union
	for i := 0; i < 200; i++ {
		shift := uint(0)
		if i >= 150 {
			shift = 60
		}
		m := &gcMsg{alpha: randUnion(rng, 3, 20, shift), beta: randUnion(rng, 2, 20, shift)}
		alpha, beta = alpha.Union(m.alpha), beta.Union(m.beta)
		if _, err := term.Receive(m, 0); err != nil {
			t.Fatal(err)
		}
		overwrite(m.alpha)
		overwrite(m.beta)
		overwrite(term.Output().(interval.Union))
		overwrite(term.AlphaSeen())
		overwrite(term.BetaSeen())
		if !term.AlphaSeen().Equal(alpha) || !term.BetaSeen().Equal(beta) ||
			!term.Output().(interval.Union).Equal(alpha.Union(beta)) {
			t.Fatalf("receipt %d: a write outside the terminal changed its state", i)
		}
	}
}

// TestNodeStateDoesNotAlias is the internal-vertex twin of
// TestTerminalStateDoesNotAlias. An internal vertex adopts storage from the
// messages it receives and hands its own state to the messages it sends, and
// from its first growth on it grows beta and alpha_d in place. Two nodes are
// fed the same receipts: A gets each message and has it overwritten after
// delivery, B gets a private copy. Every message B has sent must keep its Key
// while B goes on absorbing, and A's state must always equal B's, so neither
// a sent nor a delivered message shares storage the node writes. The first
// receipt is the exception the ownership rule allows: the node adopts that
// message's unions, so, being immutable like every message, it is left as is.
func TestNodeStateDoesNotAlias(t *testing.T) {
	clobber := interval.Interval{Lo: dyadic.Pow2(3), Hi: dyadic.Pow2(2)}
	overwrite := func(u interval.Union) {
		for i := range u.Intervals() {
			u.Intervals()[i] = clobber
		}
	}
	type nodeCase struct {
		name  string
		proto protocol.Protocol
		// state renders the node's whole state; wrap turns gc content into
		// the protocol's message.
		state func(protocol.Node) string
		wrap  func(*gcMsg) protocol.Message
		// gc returns a message's general-broadcast part.
		gc func(protocol.Message) *gcMsg
	}
	gcKey := func(s *gcState) string {
		key := s.beta.Key()
		for _, a := range s.alphas {
			key += "/" + a.Key()
		}
		return key
	}
	labelKey := func(n *labelNode) string { return n.parts[0].Key() + "#" + gcKey(&n.gcState) }
	gcOf := func(m protocol.Message) *gcMsg { return m.(*gcMsg) }
	identity := func(m *gcMsg) protocol.Message { return m }
	cases := []nodeCase{
		{"generalcast", NewGeneralBroadcast([]byte("m")),
			func(n protocol.Node) string { return gcKey(&n.(*gcNode).gcState) }, identity, gcOf},
		{"labelcast", NewLabelAssign(nil),
			func(n protocol.Node) string { return labelKey(n.(*labelNode)) }, identity, gcOf},
		{"mapcast", NewMapExtract(nil),
			func(n protocol.Node) string { return labelKey(&n.(*mapNode).inner) },
			func(m *gcMsg) protocol.Message {
				return mapMsg{gc: *m, sender: Endpoint{Kind: EndpointRoot}, senderDeg: 1}
			},
			func(m protocol.Message) *gcMsg { gc := m.(mapMsg).gc; return &gc }},
	}
	for _, c := range cases {
		for _, outDeg := range []int{0, 1, 3} {
			rng := rand.New(rand.NewSource(int64(17 + outDeg)))
			a := c.proto.NewNode(1, outDeg, protocol.RoleInternal)
			b := c.proto.NewNode(1, outDeg, protocol.RoleInternal)
			var sent []protocol.Message
			var keys []string
			for i := 0; i < 300; i++ {
				// A wide first receipt makes the later, narrow deltas grow
				// the state by splicing rather than by a fresh merge.
				width := 2
				if i == 0 {
					width = 12
				}
				m := &gcMsg{alpha: randUnion(rng, width, 10, 0), beta: randUnion(rng, width, 10, 0)}
				if m.alpha.IsEmpty() {
					m.alpha = interval.FullUnion()
				}
				twin := &gcMsg{alpha: m.alpha.Clone(), beta: m.beta.Clone()}
				if _, err := a.Receive(c.wrap(m), 0); err != nil {
					t.Fatal(err)
				}
				outs, err := b.Receive(c.wrap(twin), 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range outs {
					if o != nil {
						sent, keys = append(sent, o), append(keys, c.gc(o).Key())
					}
				}
				for j, o := range sent {
					if c.gc(o).Key() != keys[j] {
						t.Fatalf("%s d=%d receipt %d: sent message %d changed while the node absorbed", c.name, outDeg, i, j)
					}
				}
				if i > 0 {
					overwrite(m.alpha)
					overwrite(m.beta)
				}
				if gn, ok := a.(*gcNode); ok {
					for _, u := range gn.Alphas() {
						overwrite(u)
					}
					overwrite(gn.Beta())
				}
				if got, want := c.state(a), c.state(b); got != want {
					t.Fatalf("%s d=%d receipt %d: a write outside the node changed its state", c.name, outDeg, i)
				}
			}
		}
	}
}

// TestDyadicTerminalOutputDoesNotAlias shows that the commodity a tree or
// DAG terminal reports stays fixed while the terminal keeps summing in place.
func TestDyadicTerminalOutputDoesNotAlias(t *testing.T) {
	tree := NewTreeBroadcast(nil, RulePow2)
	dag := NewDAGBroadcast(nil)
	for name, c := range map[string]struct {
		term protocol.Node
		msg  func(exp uint) protocol.Message
	}{
		"treecast": {tree.NewNode(1, 0, protocol.RoleTerminal), tree.pow2},
		"dagcast": {dag.NewNode(1, 0, protocol.RoleTerminal), func(exp uint) protocol.Message {
			return dagMsg{x: dyadic.Pow2(exp)}
		}},
	} {
		var outs []dyadic.D
		var want []string
		for exp := uint(1); exp < 200; exp++ {
			if _, err := c.term.Receive(c.msg(exp), 0); err != nil {
				t.Fatal(err)
			}
			out := c.term.(protocol.Terminal).Output().(dyadic.D)
			outs, want = append(outs, out), append(want, out.String())
		}
		for i, out := range outs {
			if out.String() != want[i] {
				t.Fatalf("%s: output %d changed from %s to %s as the terminal received more", name, i, want[i], out)
			}
		}
	}
}
