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
// every Receive, every message key. The protocol state grows by deltas
// computed from the incoming message and the terminal accumulates in place,
// so a delivery costs a handful of allocations; rebuilding the accumulated
// unions on every receipt costs hundreds.
func TestIntervalProtocolAllocsPerDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	const maxPerDelivery = 20
	g, err := scenario.Build("scalefree", map[string]int{"n": 200, "m": 3}, 42)
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
				t.Fatalf("%.2f allocations per delivery, want <= %d", per, maxPerDelivery)
			}
		})
	}
}

// TestTreeProtocolAllocsPerDelivery bounds the heap allocations of
// power-of-2 tree broadcast, whole run included. Its messages come from a
// table built once per protocol, metering finds them in the interner's value
// memo, and the terminal sums in place, so what remains per delivery is the
// engine's share plus one outs slice per firing vertex.
func TestTreeProtocolAllocsPerDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	const maxPerDelivery = 2
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
	t.Logf("%.0f allocations over %d deliveries: %.2f per delivery", allocs, deliveries, per)
	if per > maxPerDelivery {
		t.Fatalf("%.2f allocations per delivery, want <= %d", per, maxPerDelivery)
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
func TestMapProtocolAllocsPerDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	const maxPerDelivery = 16
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
		t.Fatalf("%.2f allocations per delivery, want <= %d", per, maxPerDelivery)
	}
}

// BenchmarkPow2TreeReceive measures one internal vertex of out-degree 3
// forwarding its commodity: the outs slice is its only allocation.
func BenchmarkPow2TreeReceive(b *testing.B) {
	p := NewTreeBroadcast([]byte("m"), RulePow2)
	n := p.NewNode(1, 3, protocol.RoleInternal).(*pow2TreeNode)
	in := p.pow2(5)
	b.ReportAllocs()
	for b.Loop() {
		n.fired = false
		if _, err := n.Receive(in, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGCMsgKeyMatchesTwoWriterComposition pins gcMsg.Key to the composition
// it replaced — each union rendered by its own bit writer, joined by '|' —
// because anontrace timelines and the Alphabet/FirstSymbol maps print keys.
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

// TestTerminalStateDoesNotAlias shows that the terminal's in-place
// accumulators leak in neither direction: a message's unions may be written
// after delivery (they are values shared by every copy in flight), and the
// unions Output, AlphaSeen and BetaSeen return may be written by the caller,
// without changing what the terminal has seen.
func TestTerminalStateDoesNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	clobber := interval.Interval{Lo: dyadic.Pow2(3), Hi: dyadic.Pow2(2)}
	overwrite := func(u interval.Union) {
		for i := range u.Intervals() {
			u.Intervals()[i] = clobber
		}
	}
	term := &gcTerminal{}
	for i := 0; i < 200; i++ {
		m := gcMsg{alpha: randUnion(rng, 3, 20, 0), beta: randUnion(rng, 2, 20, 0)}
		if _, err := term.Receive(m, 0); err != nil {
			t.Fatal(err)
		}
		cover, alpha, beta := term.cover.Key(), term.alpha.Key(), term.beta.Key()
		overwrite(m.alpha)
		overwrite(m.beta)
		overwrite(term.Output().(interval.Union))
		overwrite(term.AlphaSeen())
		overwrite(term.BetaSeen())
		if term.cover.Key() != cover || term.alpha.Key() != alpha || term.beta.Key() != beta {
			t.Fatalf("receipt %d: a write outside the terminal changed its state", i)
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
