package netrun

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
)

func tcpRun(t *testing.T, g *graph.G, p protocol.Protocol) *sim.Result {
	t.Helper()
	r, err := Run(g, p, core.Codec{}, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("%s on %s over TCP: %v", p.Name(), g, err)
	}
	return r
}

func TestTCPTreeBroadcast(t *testing.T) {
	g := graph.Chain(6)
	r := tcpRun(t, g, core.NewTreeBroadcast([]byte("over-the-wire"), core.RulePow2))
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	if !r.AllVisited() {
		t.Fatal("not all vertices visited")
	}
	if r.Metrics.Messages != g.NumEdges() {
		t.Fatalf("%d messages, want %d", r.Metrics.Messages, g.NumEdges())
	}
}

func TestTCPGeneralBroadcastOnCycle(t *testing.T) {
	g := graph.Ring(5)
	r := tcpRun(t, g, core.NewGeneralBroadcast([]byte("m")))
	if r.Verdict != sim.Terminated || !r.AllVisited() {
		t.Fatalf("verdict %s allVisited %v", r.Verdict, r.AllVisited())
	}
	out := r.Output.(interval.Union)
	if !out.IsFull() {
		t.Fatalf("terminal cover %s", out)
	}
}

func TestTCPLabelingMatchesSimLabels(t *testing.T) {
	// The concrete interval a vertex receives is schedule-dependent (the
	// cross-engine conformance suite demonstrates fifo and lifo already
	// disagree), and the TCP schedule is timing-nondeterministic — so TCP
	// and the in-memory engine are compared on the properties Theorem 5.1
	// makes schedule-independent: the same set of vertices is labeled, and
	// every label is a unique single interval.
	g := graph.LayeredDigraph(3, 3, 4)
	rt := tcpRun(t, g, core.NewLabelAssign(nil))
	if rt.Verdict != sim.Terminated {
		t.Fatalf("tcp verdict %s", rt.Verdict)
	}
	rs, err := sim.Run(g, core.NewLabelAssign(nil), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for v := range rt.Nodes {
		lt, okT := rt.Nodes[v].(core.Labeled)
		ls, okS := rs.Nodes[v].(core.Labeled)
		if okT != okS {
			t.Fatalf("vertex %d labeled-ness differs", v)
		}
		if !okT {
			continue
		}
		ut, hasT := lt.Label()
		_, hasS := ls.Label()
		if hasT != hasS {
			t.Fatalf("vertex %d has-label differs", v)
		}
		if !hasT {
			continue
		}
		if ut.NumIntervals() != 1 {
			t.Fatalf("vertex %d tcp label %s is not a single interval", v, ut)
		}
		if prev, dup := seen[ut.Key()]; dup {
			t.Fatalf("tcp label collision: vertices %d and %d both own %s", prev, v, ut)
		}
		seen[ut.Key()] = v
	}
}

func TestTCPMappingExact(t *testing.T) {
	g := graph.RandomDigraph(10, 6, graph.RandomDigraphOpts{ExtraEdges: 10, TerminalFrac: 0.3})
	r := tcpRun(t, g, core.NewMapExtract(nil))
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	topo := r.Output.(*core.Topology)
	if topo.NumVertices() != g.NumVertices() || topo.NumEdges() != g.NumEdges() {
		t.Fatalf("extracted %d/%d, want %d/%d",
			topo.NumVertices(), topo.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

func TestTCPQuiescenceOnOrphan(t *testing.T) {
	// Vertex with no path to t: the protocol must go quiescent over TCP too.
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(1, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := tcpRun(t, g, core.NewGeneralBroadcast(nil))
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s, want quiescent", r.Verdict)
	}
}

func TestTCPDagcastStallsOnCycle(t *testing.T) {
	g := graph.Ring(3)
	r := tcpRun(t, g, core.NewDAGBroadcast(nil))
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s, want quiescent (deadlocked DAG protocol)", r.Verdict)
	}
}

func TestTCPWideRoot(t *testing.T) {
	b := graph.NewBuilder(4).SetRoot(0).SetTerminal(3).AllowWideRoot()
	b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := tcpRun(t, g, core.NewGeneralBroadcast(nil))
	if r.Verdict != sim.Terminated || !r.AllVisited() {
		t.Fatalf("verdict %s", r.Verdict)
	}
}

func TestTCPBitAccountingMatchesSim(t *testing.T) {
	// Wire bits = Bits() + framing; message counts must agree exactly with
	// the deterministic engine on schedule-independent protocols.
	g := graph.Line(5)
	rt := tcpRun(t, g, core.NewTreeBroadcast([]byte("abc"), core.RulePow2))
	rs, err := sim.Run(g, core.NewTreeBroadcast([]byte("abc"), core.RulePow2), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Metrics.Messages != rs.Metrics.Messages {
		t.Fatalf("message counts differ: tcp %d vs sim %d", rt.Metrics.Messages, rs.Metrics.Messages)
	}
	// TCP bits include framing, so they are strictly larger but close.
	if rt.Metrics.TotalBits <= rs.Metrics.TotalBits {
		t.Fatalf("tcp bits %d not larger than sim bits %d (framing missing?)",
			rt.Metrics.TotalBits, rs.Metrics.TotalBits)
	}
}

// shardedRun runs p on g over a partition of shards vertex groups.
func shardedRun(t *testing.T, g *graph.G, p protocol.Protocol, shards int) *sim.Result {
	t.Helper()
	r, err := Engine(core.Codec{}, Options{Timeout: 60 * time.Second, Shards: shards}).Run(g, p, sim.Options{Seed: 11})
	if err != nil {
		t.Fatalf("%s on %s over sharded TCP: %v", p.Name(), g, err)
	}
	return r
}

// TestTCPShardedTreeBroadcast mirrors TestTCPTreeBroadcast through the
// sharded wiring: same verdict, same coverage, and exact message
// conservation (one frame per edge for the tree wave).
func TestTCPShardedTreeBroadcast(t *testing.T) {
	g := graph.Chain(6)
	r := shardedRun(t, g, core.NewTreeBroadcast([]byte("over-the-wire"), core.RulePow2), 3)
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	if !r.AllVisited() {
		t.Fatal("not all vertices visited")
	}
	if r.Metrics.Messages != g.NumEdges() {
		t.Fatalf("%d messages, want %d", r.Metrics.Messages, g.NumEdges())
	}
}

// TestTCPShardedGeneralBroadcastOnCycle: cyclic traffic crosses shard
// boundaries in both directions and still terminates with a full cover.
func TestTCPShardedGeneralBroadcastOnCycle(t *testing.T) {
	g := graph.Ring(5)
	r := shardedRun(t, g, core.NewGeneralBroadcast([]byte("m")), 2)
	if r.Verdict != sim.Terminated || !r.AllVisited() {
		t.Fatalf("verdict %s allVisited %v", r.Verdict, r.AllVisited())
	}
	out := r.Output.(interval.Union)
	if !out.IsFull() {
		t.Fatalf("terminal cover %s", out)
	}
}

// TestTCPShardedMappingExact: the extracted topology is exact even when the
// map messages ride muxed shard-pair connections.
func TestTCPShardedMappingExact(t *testing.T) {
	g := graph.RandomDigraph(10, 6, graph.RandomDigraphOpts{ExtraEdges: 10, TerminalFrac: 0.3})
	r := shardedRun(t, g, core.NewMapExtract(nil), 3)
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	topo := r.Output.(*core.Topology)
	if topo.NumVertices() != g.NumVertices() || topo.NumEdges() != g.NumEdges() {
		t.Fatalf("extracted %d/%d, want %d/%d",
			topo.NumVertices(), topo.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

// TestTCPShardedQuiescenceOnOrphan: quiescence detection (the in-flight
// counter reaching zero) is unchanged by the sharded wiring.
func TestTCPShardedQuiescenceOnOrphan(t *testing.T) {
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(1, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := shardedRun(t, g, core.NewGeneralBroadcast(nil), 2)
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s, want quiescent", r.Verdict)
	}
}

// TestTCPShardedWiringsMeterTreeLikeSim runs tree broadcast on a grounded
// tree whose internal vertices have parallel edges into t, in the identity
// wiring (parallel edges share one connection) and a three-shard wiring. On
// a tree every edge carries a fixed message under every schedule, so the
// traffic must equal sim.Run's exactly: the same message count per edge, and
// per-edge bits equal to the codec encoding of the messages sim.Run sent.
func TestTCPShardedWiringsMeterTreeLikeSim(t *testing.T) {
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(4)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(1, 3).AddEdge(1, 4).AddEdge(1, 4)
	b.AddEdge(2, 4).AddEdge(2, 4).AddEdge(3, 4).AddEdge(3, 4).AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	newProto := func() protocol.Protocol { return core.NewTreeBroadcast([]byte("parallel"), core.RulePow2) }
	codecBits := &codecBitsObserver{perEdge: make([]int64, g.NumEdges())}
	ref, err := sim.Run(g, newProto(), sim.Options{Observer: codecBits})
	if err != nil {
		t.Fatal(err)
	}
	if codecBits.err != nil {
		t.Fatal(codecBits.err)
	}
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r, err := Engine(core.Codec{}, Options{Timeout: 30 * time.Second, Shards: shards}).Run(g, newProto(), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != sim.Terminated || !r.AllVisited() {
				t.Fatalf("verdict %s allVisited %v", r.Verdict, r.AllVisited())
			}
			if r.Metrics.Messages != ref.Metrics.Messages {
				t.Fatalf("%d messages, sim %d", r.Metrics.Messages, ref.Metrics.Messages)
			}
			if r.Metrics.TotalBits != codecBits.total {
				t.Fatalf("%d bits, sim's messages encode to %d", r.Metrics.TotalBits, codecBits.total)
			}
			for e := range ref.Metrics.PerEdgeMsgs {
				if r.Metrics.PerEdgeMsgs[e] != ref.Metrics.PerEdgeMsgs[e] || r.Metrics.PerEdgeBits[e] != codecBits.perEdge[e] {
					t.Fatalf("edge %d: %d msgs / %d bits, sim %d msgs / %d codec bits", e,
						r.Metrics.PerEdgeMsgs[e], r.Metrics.PerEdgeBits[e], ref.Metrics.PerEdgeMsgs[e], codecBits.perEdge[e])
				}
			}
		})
	}
}

// codecBitsObserver sums the wire-codec size of every message a run sends,
// per edge: the bits the TCP tier meters for the same traffic.
type codecBitsObserver struct {
	perEdge []int64
	total   int64
	err     error
}

func (o *codecBitsObserver) OnSend(e graph.EdgeID, msg protocol.Message) {
	_, bits, err := core.Codec{}.Encode(msg)
	if err != nil {
		o.err = err
	}
	o.perEdge[e] += int64(bits)
	o.total += int64(bits)
}

func (o *codecBitsObserver) OnDeliver(int, graph.EdgeID, protocol.Message) {}

// TestTCPShardedWiringsParallelEdgesAndSelfLoop runs general broadcast on a
// cyclic graph with parallel edges and a self-loop in both wirings. Under
// the identity map the self-loop is an in-worker edge, so this drives the
// in-worker path alongside the socket channels.
func TestTCPShardedWiringsParallelEdgesAndSelfLoop(t *testing.T) {
	b := graph.NewBuilder(4).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 1).AddEdge(1, 2).AddEdge(1, 2).AddEdge(2, 1).AddEdge(2, 2)
	b.AddEdge(2, 3).AddEdge(1, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r, err := Engine(core.Codec{}, Options{Timeout: 30 * time.Second, Shards: shards}).
				Run(g, core.NewGeneralBroadcast([]byte("loop")), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != sim.Terminated || !r.AllVisited() {
				t.Fatalf("verdict %s allVisited %v", r.Verdict, r.AllVisited())
			}
			out := r.Output.(interval.Union)
			if !out.IsFull() {
				t.Fatalf("terminal cover %s", out)
			}
		})
	}
}

// TestTCPShardedLargeConformance drives the socket tier at a size the
// identity wiring cannot reach — >=10k vertices would need >=10k listeners
// and up to |E| connections, past typical fd limits, which is why the
// reduced TCP conformance matrix skips such graphs — and conformance-checks
// the sharded wiring against the sequential reference: same verdict, same
// visited set, same terminal cover.
func TestTCPShardedLargeConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping socket tier")
	}
	g := graph.RandomGroundedTree(12000, 0.2, 5)
	if g.NumVertices() < 10000 {
		t.Fatalf("test graph too small: %d vertices", g.NumVertices())
	}
	ref, err := sim.Run(g, core.NewGeneralBroadcast([]byte("wave")), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := shardedRun(t, g, core.NewGeneralBroadcast([]byte("wave")), shards)
			if r.Verdict != ref.Verdict {
				t.Fatalf("verdict %s, reference %s", r.Verdict, ref.Verdict)
			}
			for v := range ref.Visited {
				if r.Visited[v] != ref.Visited[v] {
					t.Fatalf("vertex %d visited=%v, reference %v", v, r.Visited[v], ref.Visited[v])
				}
			}
			out := r.Output.(interval.Union)
			if !out.IsFull() {
				t.Fatalf("terminal cover %s", out)
			}
			if r.Metrics.PeakInFlight <= 0 {
				t.Fatal("sharded tier reported no in-flight peak")
			}
		})
	}
}

// TestTCPShardedWildReplayByteIdentity: a schedule captured from the sharded
// wiring canonicalizes into a strict-mode trace whose sequential replay
// re-records byte-identically — the same acceptance criterion the
// identity-wired TCP and concurrent engines meet in internal/replay.
func TestTCPShardedWildReplayByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping socket tier")
	}
	cases := []struct {
		name     string
		g        *graph.G
		newProto func() protocol.Protocol
	}{
		{"generalcast-ring", graph.Ring(5),
			func() protocol.Protocol { return core.NewGeneralBroadcast([]byte("m")) }},
		{"labelcast-randnet", graph.RandomDigraph(8, 11, graph.RandomDigraphOpts{ExtraEdges: 8, TerminalFrac: 0.3}),
			func() protocol.Protocol { return core.NewLabelAssign(nil) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := Engine(core.Codec{}, Options{Timeout: 30 * time.Second, Shards: 3})
			r, tr, err := replay.RecordWild(eng, c.g, c.newProto, sim.Options{Seed: 7}, "")
			if err != nil {
				t.Fatalf("RecordWild: %v", err)
			}
			if tr.Scheduler != "wild-tcp" {
				t.Fatalf("scheduler header %q, want wild-tcp", tr.Scheduler)
			}
			if tr.Truncated {
				t.Fatal("canonical trace is marked truncated; strict mode impossible")
			}
			enc := replay.Encode(tr)
			for i := 0; i < 2; i++ {
				dec, err := replay.Decode(enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				rec := replay.NewRecorder()
				r2, err := replay.Run(c.g, c.newProto(), dec, sim.Options{Observer: rec})
				if err != nil {
					t.Fatalf("strict replay %d: %v", i, err)
				}
				re := replay.Encode(rec.Trace(c.g, tr.Protocol, tr.Scheduler, tr.Seed))
				if !bytes.Equal(enc, re) {
					t.Fatalf("strict replay %d is not byte-identical (%d vs %d bytes)", i, len(enc), len(re))
				}
				if r2.Verdict != r.Verdict {
					t.Fatalf("replay verdict %s, wild run %s", r2.Verdict, r.Verdict)
				}
			}
		})
	}
}
