package sim

import (
	"errors"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/protocol"
)

// hopMsg is a minimal test message: a hop counter, gamma-encoded.
type hopMsg struct{ hops uint64 }

func (m hopMsg) Bits() int { return bitio.Gamma0Len(m.hops) }
func (m hopMsg) Key() string {
	var w bitio.Writer
	w.WriteGamma0(m.hops)
	return string(w.Bytes())
}

// floodProto forwards the first message a vertex receives to all out-ports
// (incrementing the hop count) and ignores the rest. The terminal is done
// after receiving `need` messages. It is not a correct broadcast terminator
// — it exists to exercise the engines.
type floodProto struct {
	need int
	// failAt makes the node with this in-degree return an error (failure
	// injection); 0 disables.
	failAt int
}

func (f floodProto) Name() string                     { return "flood" }
func (f floodProto) InitialMessage() protocol.Message { return hopMsg{} }

func (f floodProto) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	switch role {
	case protocol.RoleTerminal:
		return &floodTerm{need: f.need}
	default:
		return &floodNode{outDeg: outDeg, fail: f.failAt != 0 && inDeg == f.failAt}
	}
}

type floodNode struct {
	outDeg int
	seen   bool
	fail   bool
}

var errInjected = errors.New("injected failure")

func (n *floodNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	if n.fail {
		return nil, errInjected
	}
	if n.seen {
		return nil, nil
	}
	n.seen = true
	h := msg.(hopMsg).hops
	outs := make([]protocol.Message, n.outDeg)
	for j := range outs {
		outs[j] = hopMsg{hops: h + 1}
	}
	return outs, nil
}

type floodTerm struct {
	need int
	got  int
	last uint64
}

func (t *floodTerm) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	t.got++
	t.last = msg.(hopMsg).hops
	return nil, nil
}

func (t *floodTerm) Done() bool  { return t.got >= t.need }
func (t *floodTerm) Output() any { return t.last }

func runBoth(t *testing.T, g *graph.G, p protocol.Protocol, opts Options) (*Result, *Result) {
	t.Helper()
	seq, err := Run(g, p, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	con, err := Concurrent().Run(g, p, opts)
	if err != nil {
		t.Fatalf("Concurrent: %v", err)
	}
	return seq, con
}

func TestFloodTerminatesOnLine(t *testing.T) {
	g := graph.Line(5)
	seq, con := runBoth(t, g, floodProto{need: 1}, Options{})
	for name, r := range map[string]*Result{"seq": seq, "con": con} {
		if r.Verdict != Terminated {
			t.Fatalf("%s: verdict = %s", name, r.Verdict)
		}
		if r.Output.(uint64) != 5 { // 5 internal hops: s->v1 is hop 0
			t.Fatalf("%s: output = %v, want 5", name, r.Output)
		}
		if !r.AllVisited() {
			t.Fatalf("%s: not all visited", name)
		}
		if r.Metrics.Messages != 6 {
			t.Fatalf("%s: messages = %d, want 6", name, r.Metrics.Messages)
		}
	}
}

func TestQuiescenceWhenTerminalUnsatisfied(t *testing.T) {
	g := graph.Line(3)
	// Terminal requires 2 messages but only 1 ever arrives.
	seq, con := runBoth(t, g, floodProto{need: 2}, Options{})
	if seq.Verdict != Quiescent || con.Verdict != Quiescent {
		t.Fatalf("verdicts = %s/%s, want quiescent", seq.Verdict, con.Verdict)
	}
}

func TestDeliveryOrders(t *testing.T) {
	g := graph.Chain(6)
	for _, newSched := range []func() Scheduler{NewFIFOScheduler, NewLIFOScheduler, NewRandomScheduler} {
		sched := newSched()
		ord := sched.Name()
		r, err := Run(g, floodProto{need: 6}, Options{Scheduler: sched, Seed: 42})
		if err != nil {
			t.Fatalf("order %s: %v", ord, err)
		}
		if r.Verdict != Terminated {
			t.Fatalf("order %s: verdict = %s", ord, r.Verdict)
		}
		// Flood sends exactly one message per edge on a grounded tree.
		if r.Metrics.Messages != g.NumEdges() {
			t.Fatalf("order %s: messages = %d, want %d", ord, r.Metrics.Messages, g.NumEdges())
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := graph.Line(2) // s -> v1 -> v2 -> t: 3 edges
	r, err := Run(g, floodProto{need: 1}, Options{TrackAlphabet: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Messages != 3 {
		t.Fatalf("messages = %d, want 3", r.Metrics.Messages)
	}
	// Messages carry hops 0,1,2 -> three distinct symbols.
	if got := r.Metrics.AlphabetSize(); got != 3 {
		t.Fatalf("alphabet = %d, want 3", got)
	}
	var want int64
	for h := uint64(0); h < 3; h++ {
		want += int64(bitio.Gamma0Len(h))
	}
	if r.Metrics.TotalBits != want {
		t.Fatalf("total bits = %d, want %d", r.Metrics.TotalBits, want)
	}
	if r.Metrics.MaxEdgeBits() <= 0 || r.Metrics.MaxEdgeMsgs() != 1 {
		t.Fatalf("per-edge metrics wrong: %+v", r.Metrics)
	}
}

func TestStepLimit(t *testing.T) {
	// A two-vertex cycle with flood modified to always forward would loop;
	// flood forwards only once, so instead set an absurdly low limit.
	g := graph.Chain(10)
	_, err := Run(g, floodProto{need: 10}, Options{MaxSteps: 3})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	_, err = Concurrent().Run(g, floodProto{need: 10}, Options{MaxSteps: 3})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("concurrent err = %v, want ErrStepLimit", err)
	}
}

func TestFailureInjection(t *testing.T) {
	// Chain internal vertices have in-degree 1; make them fail.
	g := graph.Line(3)
	_, err := Run(g, floodProto{need: 1, failAt: 1}, Options{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	_, err = Concurrent().Run(g, floodProto{need: 1, failAt: 1}, Options{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("concurrent err = %v, want injected failure", err)
	}
}

func TestVisitedTracking(t *testing.T) {
	// Terminal requires only 1 message: on Chain(3) with FIFO order the run
	// stops before deep vertices are reached.
	g := graph.Chain(3)
	r, err := Run(g, floodProto{need: 1}, Options{Scheduler: NewFIFOScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Terminated {
		t.Fatalf("verdict = %s", r.Verdict)
	}
	if r.AllVisited() {
		t.Fatal("expected early termination to leave vertices unvisited")
	}
}

// badTerminalProto returns a non-Terminal node for the terminal role.
type badTerminalProto struct{ floodProto }

func (b badTerminalProto) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	return &floodNode{outDeg: outDeg}
}

func TestBadTerminalRejected(t *testing.T) {
	g := graph.Line(1)
	if _, err := Run(g, badTerminalProto{}, Options{}); err == nil {
		t.Fatal("seq engine accepted a protocol without a Terminal node")
	}
	if _, err := Concurrent().Run(g, badTerminalProto{}, Options{}); err == nil {
		t.Fatal("concurrent engine accepted a protocol without a Terminal node")
	}
}

// wrongArityProto returns an out slice of the wrong length.
type wrongArityProto struct{ floodProto }

type wrongArityNode struct{}

func (wrongArityNode) Receive(protocol.Message, int) ([]protocol.Message, error) {
	return []protocol.Message{hopMsg{}, hopMsg{}, hopMsg{}}, nil
}

func (w wrongArityProto) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &floodTerm{need: 1}
	}
	return wrongArityNode{}
}

func TestWrongArityRejected(t *testing.T) {
	g := graph.Line(2)
	if _, err := Run(g, wrongArityProto{}, Options{}); err == nil {
		t.Fatal("seq engine accepted wrong output arity")
	}
	if _, err := Concurrent().Run(g, wrongArityProto{}, Options{}); err == nil {
		t.Fatal("concurrent engine accepted wrong output arity")
	}
}

func TestConcurrentManyRuns(t *testing.T) {
	// Hammer the concurrent engine for races (run with -race in CI).
	g := graph.Chain(8)
	for i := 0; i < 50; i++ {
		r, err := Concurrent().Run(g, floodProto{need: 8}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != Terminated {
			t.Fatalf("run %d: verdict = %s", i, r.Verdict)
		}
	}
}

func TestSynchronousAgreesWithAsync(t *testing.T) {
	g := graph.Chain(6)
	rs, err := RunSynchronous(g, floodProto{need: 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Run(g, floodProto{need: 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Verdict != ra.Verdict {
		t.Fatalf("verdicts differ: sync %s vs async %s", rs.Verdict, ra.Verdict)
	}
	if rs.Metrics.Messages != ra.Metrics.Messages {
		t.Fatalf("message counts differ: %d vs %d", rs.Metrics.Messages, ra.Metrics.Messages)
	}
	if rs.Rounds == 0 {
		t.Fatal("synchronous run reported zero rounds")
	}
	if ra.Rounds != 0 {
		t.Fatal("asynchronous run reported rounds")
	}
}

func TestSynchronousRoundsEqualDepth(t *testing.T) {
	// On the line s -> v1 -> ... -> vn -> t the flood takes exactly n+1
	// rounds to reach the terminal.
	for _, n := range []int{1, 3, 8} {
		g := graph.Line(n)
		r, err := RunSynchronous(g, floodProto{need: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != Terminated {
			t.Fatalf("Line(%d): %s", n, r.Verdict)
		}
		if r.Rounds != n+1 {
			t.Fatalf("Line(%d): %d rounds, want %d", n, r.Rounds, n+1)
		}
	}
}

func TestSynchronousQuiescence(t *testing.T) {
	g := graph.Line(3)
	r, err := RunSynchronous(g, floodProto{need: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Quiescent {
		t.Fatalf("verdict %s, want quiescent", r.Verdict)
	}
}

func TestSynchronousStepLimit(t *testing.T) {
	g := graph.Chain(10)
	_, err := RunSynchronous(g, floodProto{need: 10}, Options{MaxSteps: 3})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}
