package netrun

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/sim"
)

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("disconnect=3, loss=25, delay=2, seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := Chaos{DisconnectEvery: 3, LossPct: 25, DelayMaxMS: 2, Seed: 9}
	if *c != want {
		t.Fatalf("parsed %+v, want %+v", *c, want)
	}
	if !c.active() {
		t.Fatal("parsed spec should be active")
	}
	if c, err := ParseChaos("  "); err != nil || c != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", c, err)
	}
	if c, err := ParseChaos("seed=5"); err != nil || c.active() {
		t.Fatalf("seed-only spec should parse inactive, got (%+v, %v)", c, err)
	}
	for _, bad := range []string{
		"disconnect", "loss=abc", "loss=101", "loss=-1",
		"disconnect=-2", "delay=-1", "jitter=3",
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

// FuzzParseChaos: ParseChaos never panics on user input, every accepted
// spec is in range, and the spec rendered from its fields re-parses to the
// same struct.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"", "disconnect=3, loss=25, delay=2, seed=9", "seed=5", "loss=100",
		"disconnect", "loss=abc", "loss=101", "delay=-1", "jitter=3", ",,loss= 7 ,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaos(spec)
		if err != nil || c == nil {
			return
		}
		if c.DisconnectEvery < 0 || c.LossPct < 0 || c.LossPct > 100 || c.DelayMaxMS < 0 {
			t.Fatalf("ParseChaos(%q) accepted out-of-range %+v", spec, *c)
		}
		canon := fmt.Sprintf("disconnect=%d,loss=%d,delay=%d,seed=%d", c.DisconnectEvery, c.LossPct, c.DelayMaxMS, c.Seed)
		again, err := ParseChaos(canon)
		if err != nil {
			t.Fatalf("rendered spec %q (from %q) rejected: %v", canon, spec, err)
		}
		if *again != *c {
			t.Fatalf("rendered spec %q re-parses to %+v, want %+v", canon, *again, *c)
		}
	})
}

func TestChaosHashDeterministic(t *testing.T) {
	a := chaosHash(42, 7, 13, chaosSaltLoss)
	b := chaosHash(42, 7, 13, chaosSaltLoss)
	if a != b {
		t.Fatal("chaosHash not deterministic")
	}
	if a == chaosHash(42, 7, 13, chaosSaltDelay) {
		t.Fatal("salts should draw independent coins")
	}
	if a == chaosHash(43, 7, 13, chaosSaltLoss) {
		t.Fatal("seed should change the draw")
	}
}

// wirings are the two owner maps of the TCP tier: the identity partition
// (one worker per vertex) and a three-shard partition.
var wirings = []struct {
	name   string
	shards int
}{{"identity", 0}, {"shards=3", 3}}

// chaosRun runs p on g under chaos in every wiring, one subtest each.
func chaosRun(t *testing.T, g *graph.G, newProto func() protocol.Protocol, chaos Chaos, simOpts sim.Options, check func(*testing.T, *sim.Result)) {
	t.Helper()
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			c := chaos
			eng := Engine(core.Codec{}, Options{Timeout: 30 * time.Second, Shards: w.shards, Chaos: &c})
			r, err := eng.Run(g, newProto(), simOpts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, r)
		})
	}
}

// TestTCPChaosTreeBroadcast drives both wirings through forced disconnects,
// lost first writes, and latency jitter at once: the run must reach the same
// verdict, visited set, and message count as an undisturbed run — chaos is
// delay, never protocol-visible loss, and a replayed frame is not new
// traffic.
func TestTCPChaosTreeBroadcast(t *testing.T) {
	g := graph.Chain(6)
	chaosRun(t, g, func() protocol.Protocol { return core.NewTreeBroadcast([]byte("over-the-wire"), core.RulePow2) },
		Chaos{DisconnectEvery: 2, LossPct: 25, DelayMaxMS: 1, Seed: 7}, sim.Options{},
		func(t *testing.T, r *sim.Result) {
			if r.Verdict != sim.Terminated {
				t.Fatalf("verdict %s", r.Verdict)
			}
			if !r.AllVisited() {
				t.Fatal("not all vertices visited")
			}
			if r.Metrics.Messages != g.NumEdges() {
				t.Fatalf("%d messages, want %d (replayed frames must not re-meter)", r.Metrics.Messages, g.NumEdges())
			}
		})
}

// TestTCPChaosKillsEveryLiveConnection is the reconnect stress demanded by
// the resilience contract: disconnect=1 tears every channel's live, in-use
// connection down before every frame after the first, so every worker pair
// reconnects mid-run — and the verdict must still match the sequential
// reference.
func TestTCPChaosKillsEveryLiveConnection(t *testing.T) {
	g := graph.Ring(5)
	ref, err := sim.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chaosRun(t, g, func() protocol.Protocol { return core.NewGeneralBroadcast([]byte("m")) },
		Chaos{DisconnectEvery: 1, Seed: 3}, sim.Options{},
		func(t *testing.T, r *sim.Result) {
			if r.Verdict != ref.Verdict {
				t.Fatalf("chaos verdict %s, sequential reference %s", r.Verdict, ref.Verdict)
			}
			if !r.AllVisited() {
				t.Fatal("not all vertices visited")
			}
			out := r.Output.(interval.Union)
			if !out.IsFull() {
				t.Fatalf("terminal cover %s", out)
			}
		})
}

// TestTCPChaosTotalLoss sets loss=100 — every frame's first write attempt is
// torn down — and the run must still terminate through pure resend.
func TestTCPChaosTotalLoss(t *testing.T) {
	g := graph.Chain(4)
	chaosRun(t, g, func() protocol.Protocol { return core.NewTreeBroadcast([]byte("x"), core.RulePow2) },
		Chaos{LossPct: 100, Seed: 1}, sim.Options{},
		func(t *testing.T, r *sim.Result) {
			if r.Verdict != sim.Terminated || !r.AllVisited() {
				t.Fatalf("verdict %s allVisited %v", r.Verdict, r.AllVisited())
			}
		})
}

// TestTCPChaosSharded drives the sharded muxed wiring through the same
// disturbances: shard-pair streams reconnect and resume without message loss
// or duplication.
func TestTCPChaosSharded(t *testing.T) {
	g := graph.LayeredDigraph(3, 3, 4)
	r, err := Engine(core.Codec{}, Options{
		Timeout: 30 * time.Second,
		Shards:  3,
		Chaos:   &Chaos{DisconnectEvery: 2, LossPct: 30, Seed: 11},
	}).Run(g, core.NewTreeBroadcast([]byte("sharded-chaos"), core.RulePow2), sim.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(g, core.NewTreeBroadcast([]byte("sharded-chaos"), core.RulePow2), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != ref.Verdict {
		t.Fatalf("chaos verdict %s, sequential reference %s", r.Verdict, ref.Verdict)
	}
	if !r.AllVisited() {
		t.Fatal("not all vertices visited")
	}
	if r.Metrics.Messages != ref.Metrics.Messages {
		t.Fatalf("%d messages, reference %d (replayed frames must not re-meter)", r.Metrics.Messages, ref.Metrics.Messages)
	}
}

// TestTCPChaosPreservesFaultPlan runs a message-level fault plan under
// socket chaos and checks the plan's deterministic outcome is untouched:
// fault drops are decided above the socket, chaos below it.
func TestTCPChaosPreservesFaultPlan(t *testing.T) {
	g := graph.Chain(6)
	plan := func() *sim.Faults { return &sim.Faults{CrashAfter: map[graph.VertexID]int{3: 0}} }
	ref, err := sim.Run(g, core.NewTreeBroadcast([]byte("f"), core.RulePow2), sim.Options{Faults: plan()})
	if err != nil {
		t.Fatal(err)
	}
	chaosRun(t, g, func() protocol.Protocol { return core.NewTreeBroadcast([]byte("f"), core.RulePow2) },
		Chaos{DisconnectEvery: 1, LossPct: 50, Seed: 5}, sim.Options{Faults: plan()},
		func(t *testing.T, r *sim.Result) {
			if r.Verdict != ref.Verdict {
				t.Fatalf("chaos verdict %s, reference %s", r.Verdict, ref.Verdict)
			}
			if r.Dropped != ref.Dropped {
				t.Fatalf("chaos dropped %d, reference %d", r.Dropped, ref.Dropped)
			}
			for v := range ref.Visited {
				if r.Visited[v] != ref.Visited[v] {
					t.Fatalf("visited[%d]: chaos %v, reference %v", v, r.Visited[v], ref.Visited[v])
				}
			}
		})
}
