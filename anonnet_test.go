package anonnet

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// specNet builds a registry network for a test table, panicking on a bad
// spec.
func specNet(spec string) *Network {
	n, err := ScenarioNetwork(spec)
	if err != nil {
		panic(err)
	}
	return n
}

func TestBroadcastAutoSelectsProtocol(t *testing.T) {
	cases := []struct {
		net  *Network
		want string
	}{
		{specNet("chain:n=5"), "treecast/pow2"},
		{specNet("randdag:n=15,extra=10,seed=1"), "dagcast"},
		{specNet("ring:n=4"), "generalcast"},
	}
	for _, tc := range cases {
		rep, err := Broadcast(tc.net, []byte("msg"))
		if err != nil {
			t.Fatalf("%s: %v", tc.net, err)
		}
		if rep.Protocol != tc.want {
			t.Fatalf("%s: protocol %s, want %s", tc.net, rep.Protocol, tc.want)
		}
		if !rep.Terminated || !rep.AllReceived {
			t.Fatalf("%s: report %+v", tc.net, rep)
		}
	}
}

func TestBroadcastForcedProtocol(t *testing.T) {
	rep, err := Broadcast(specNet("chain:n=4"), nil, WithProtocol(ProtoGeneral))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "generalcast" {
		t.Fatalf("protocol %s", rep.Protocol)
	}
}

func TestBroadcastOnConcurrentEngine(t *testing.T) {
	rep, err := Broadcast(specNet("layered:layers=3,width=3,seed=5"), []byte("hi"), WithEngine(EngineConcurrent))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Terminated || !rep.AllReceived {
		t.Fatalf("report %+v", rep)
	}
}

func TestBroadcastNotTerminatedError(t *testing.T) {
	// Custom graph with a dead-end vertex.
	b := NewBuilder(5).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(1, 4)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.AllConnectedToTerminal() {
		t.Fatal("test graph should have a dead end")
	}
	rep, err := Broadcast(n, nil)
	if !errors.Is(err, ErrNotTerminated) {
		t.Fatalf("err = %v, want ErrNotTerminated", err)
	}
	if rep == nil || rep.Terminated {
		t.Fatalf("report %+v", rep)
	}
}

func TestAssignLabelsUnique(t *testing.T) {
	n := specNet("randnet:n=25,extra=30,seed=9")
	labels, rep, err := AssignLabels(n, WithScheduler("random"), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Terminated {
		t.Fatal("not terminated")
	}
	if len(labels) != n.NumVertices()-2 {
		t.Fatalf("labeled %d vertices, want %d", len(labels), n.NumVertices()-2)
	}
	seen := map[string]VertexID{}
	for v, lab := range labels {
		if lab.Bits <= 0 {
			t.Fatalf("label of %d has non-positive bit length", v)
		}
		if !strings.HasPrefix(lab.Lo, "0") {
			t.Fatalf("odd label rendering: %s", lab)
		}
		key := lab.String()
		if prev, dup := seen[key]; dup {
			t.Fatalf("vertices %d and %d share label %s", prev, v, key)
		}
		seen[key] = v
	}
}

func TestLabelEqual(t *testing.T) {
	n := specNet("line:n=3")
	l1, _, err := AssignLabels(n)
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := AssignLabels(n)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic protocol on the same graph: labels identical per vertex.
	for v, lab := range l1 {
		if !lab.Equal(l2[v]) {
			t.Fatalf("vertex %d label differs across identical runs: %s vs %s", v, lab, l2[v])
		}
	}
}

func TestExtractTopologyCounts(t *testing.T) {
	n := specNet("randnet:n=20,extra=25,seed=4")
	topo, rep, err := ExtractTopology(n)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Terminated {
		t.Fatal("not terminated")
	}
	if len(topo.Vertices) != n.NumVertices() {
		t.Fatalf("extracted |V| = %d, want %d", len(topo.Vertices), n.NumVertices())
	}
	if len(topo.Edges) != n.NumEdges() {
		t.Fatalf("extracted |E| = %d, want %d", len(topo.Edges), n.NumEdges())
	}
	// Out-degree consistency in the extracted map.
	outCount := map[string]int{}
	for _, e := range topo.Edges {
		outCount[e.From]++
	}
	for _, e := range topo.Edges {
		if outCount[e.From] != e.FromOutDegree {
			t.Fatalf("vertex %s: %d recorded out-edges, declared %d", e.From, outCount[e.From], e.FromOutDegree)
		}
	}
}

func TestNetworkAccessors(t *testing.T) {
	n := specNet("chain:n=3")
	if n.NumVertices() != 5 || n.NumEdges() != 6 {
		t.Fatalf("%s: wrong counts", n)
	}
	if n.Class() != ClassGroundedTree {
		t.Fatalf("class %s", n.Class())
	}
	if n.Root() == n.Terminal() {
		t.Fatal("root == terminal")
	}
	if n.MaxOutDegree() != 2 {
		t.Fatalf("max out-degree %d", n.MaxOutDegree())
	}
	var sb strings.Builder
	if err := n.WriteDOT(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Fatal("DOT output malformed")
	}
	for _, c := range []Class{ClassGroundedTree, ClassDAG, ClassGeneral, Class(99)} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestBuilderAddVertex(t *testing.T) {
	b := NewBuilder(2).SetRoot(0).SetTerminal(1)
	v := b.AddVertex()
	b.AddEdge(0, v).AddEdge(v, 1)
	n, err := b.SetName("custom").Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumVertices() != 3 {
		t.Fatalf("|V| = %d", n.NumVertices())
	}
	if _, err := Broadcast(n, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlphabetTrackingOption(t *testing.T) {
	rep, err := Broadcast(specNet("chain:n=6"), nil, WithAlphabetTracking())
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlphabetSize != 6 {
		t.Fatalf("alphabet %d, want 6", rep.AlphabetSize)
	}
	rep2, err := Broadcast(specNet("chain:n=6"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.AlphabetSize != 0 {
		t.Fatal("alphabet tracked without the option")
	}
}

func TestNaiveProtocolOption(t *testing.T) {
	rep, err := Broadcast(specNet("chain:n=6"), nil, WithProtocol(ProtoTreeNaive))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "treecast/naive" {
		t.Fatalf("protocol %s", rep.Protocol)
	}
}

func TestSynchronousEngine(t *testing.T) {
	n := specNet("ring:n=6")
	rep, err := Broadcast(n, []byte("sync"), WithEngine(EngineSynchronous))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Terminated || rep.Rounds == 0 {
		t.Fatalf("report %+v", rep)
	}
	repAsync, err := Broadcast(n, []byte("sync"))
	if err != nil {
		t.Fatal(err)
	}
	if repAsync.Rounds != 0 {
		t.Fatal("async engine reported rounds")
	}
}

func TestWideRootPublicAPI(t *testing.T) {
	b := NewBuilder(4).SetRoot(0).SetTerminal(3).AllowWideRoot()
	b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Broadcast(n, []byte("wide"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Terminated || !rep.AllReceived {
		t.Fatalf("report %+v", rep)
	}
	labels, _, err := AssignLabels(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 {
		t.Fatalf("labeled %d, want 2", len(labels))
	}
	topo, _, err := ExtractTopology(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Edges) != n.NumEdges() {
		t.Fatalf("extracted %d edges, want %d", len(topo.Edges), n.NumEdges())
	}
}

func TestNetworkFileRoundTrip(t *testing.T) {
	n := specNet("randnet:n=10,extra=12,seed=2")
	data := n.MarshalText()
	got, err := ParseNetwork(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != n.NumVertices() || got.NumEdges() != n.NumEdges() {
		t.Fatalf("round trip changed the network: %s vs %s", got, n)
	}
	// Protocol behaviour must be identical (port numbering preserved).
	l1, _, err := AssignLabels(n)
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := AssignLabels(got)
	if err != nil {
		t.Fatal(err)
	}
	for v, lab := range l1 {
		if !lab.Equal(l2[v]) {
			t.Fatalf("vertex %d label changed after round trip", v)
		}
	}
}

func TestTCPEngine(t *testing.T) {
	n := specNet("ring:n=4")
	rep, err := Broadcast(n, []byte("tcp"), WithEngine(EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Terminated || !rep.AllReceived {
		t.Fatalf("report %+v", rep)
	}
	labels, _, err := AssignLabels(n, WithEngine(EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 4 {
		t.Fatalf("labeled %d, want 4", len(labels))
	}
	topo, _, err := ExtractTopology(n, WithEngine(EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Edges) != n.NumEdges() {
		t.Fatalf("extracted %d edges", len(topo.Edges))
	}
}

func TestTopologyIsomorphicTo(t *testing.T) {
	n := specNet("randnet:n=12,extra=15,seed=8")
	topo, _, err := ExtractTopology(n)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := topo.IsomorphicTo(n)
	if err != nil {
		t.Fatal(err)
	}
	if !iso {
		t.Fatal("extracted topology not isomorphic to its own network")
	}
	other := specNet("randnet:n=12,extra=15,seed=9")
	iso, err = topo.IsomorphicTo(other)
	if err != nil {
		t.Fatal(err)
	}
	if iso {
		t.Fatal("topology isomorphic to an unrelated network")
	}
}

func TestWithSchedulerAllAdversaries(t *testing.T) {
	// On a grounded tree the broadcast sends exactly one message per edge,
	// so message count and total bits are schedule-independent quantities
	// every adversary must reproduce exactly (Theorem 3.1); on general
	// graphs only the verdict is invariant.
	tree := specNet("chain:n=8")
	var want *Report
	for _, name := range SchedulerNames() {
		rep, err := Broadcast(tree, []byte("sched"), WithScheduler(name), WithSeed(11))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Terminated || !rep.AllReceived {
			t.Fatalf("%s: report %+v", name, rep)
		}
		if want == nil {
			want = rep
		} else if rep.Messages != want.Messages || rep.TotalBits != want.TotalBits {
			t.Fatalf("%s: %d msgs / %d bits, want %d / %d (tree broadcast is one message per edge under every schedule)",
				name, rep.Messages, rep.TotalBits, want.Messages, want.TotalBits)
		}
	}
	cyclic := specNet("randnet:n=10,extra=12,seed=4")
	for _, name := range SchedulerNames() {
		rep, err := Broadcast(cyclic, []byte("sched"), WithScheduler(name), WithSeed(11))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Terminated || !rep.AllReceived {
			t.Fatalf("%s: report %+v", name, rep)
		}
	}
}

func TestWithSchedulerUnknownName(t *testing.T) {
	_, err := Broadcast(specNet("line:n=3"), nil, WithScheduler("no-such-adversary"))
	if err == nil {
		t.Fatal("Broadcast accepted an unknown scheduler name")
	}
	if !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEngineByName(t *testing.T) {
	for _, name := range EngineNames() {
		e, err := EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.String() != name {
			t.Fatalf("engine %q round-trips to %q", name, e.String())
		}
	}
	if _, err := EngineByName("quantum"); err == nil {
		t.Fatal("EngineByName accepted an unknown name")
	}
}

func TestSchedulerAcrossEngineMatrix(t *testing.T) {
	// A scheduler option is honored by the sequential and sharded engines
	// (the latter instantiates one copy per shard) and simply ignored by
	// the others; the run must succeed and agree either way.
	n := specNet("ring:n=5")
	for _, eng := range []Engine{EngineSequential, EngineConcurrent, EngineSynchronous, EngineSharded} {
		rep, err := Broadcast(n, []byte("x"), WithEngine(eng), WithScheduler("greedy"), WithSeed(2))
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if !rep.Terminated || !rep.AllReceived {
			t.Fatalf("engine %s: report %+v", eng, rep)
		}
	}
}
