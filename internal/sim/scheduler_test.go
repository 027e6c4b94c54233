package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// traceObserver serializes the full event stream of a run; two runs are the
// same schedule iff their traces are byte-identical.
type traceObserver struct{ sb strings.Builder }

func (o *traceObserver) OnSend(e graph.EdgeID, msg protocol.Message) {
	fmt.Fprintf(&o.sb, "S %d %q\n", e, msg.Key())
}

func (o *traceObserver) OnDeliver(step int, e graph.EdgeID, msg protocol.Message) {
	fmt.Fprintf(&o.sb, "D %d %d %q\n", step, e, msg.Key())
}

// testGraphs is a spread of shapes: path, diamond-rich chain, cycle, tree,
// cyclic digraph.
func testGraphs() []*graph.G {
	return []*graph.G{
		graph.Line(6),
		graph.Chain(5),
		graph.Ring(6),
		graph.KaryGroundedTree(3, 2),
		graph.RandomDigraph(10, 3, graph.RandomDigraphOpts{ExtraEdges: 10, TerminalFrac: 0.3}),
	}
}

func traceOf(t *testing.T, g *graph.G, schedName string, seed int64) (string, Metrics) {
	t.Helper()
	sched, err := NewScheduler(schedName)
	if err != nil {
		t.Fatal(err)
	}
	obs := &traceObserver{}
	r, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
		Scheduler: sched, Seed: seed, Observer: obs, TrackAlphabet: true,
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", schedName, g, err)
	}
	fmt.Fprintf(&obs.sb, "verdict %s steps %d\n", r.Verdict, r.Steps)
	return obs.sb.String(), r.Metrics
}

// TestSchedulerDeterminism: same graph, same scheduler, same seed — byte
// identical delivery trace and identical metrics, including when the
// scheduler instance is reused across runs (Reset must fully reinitialize).
func TestSchedulerDeterminism(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			for _, g := range testGraphs() {
				for _, seed := range []int64{0, 1, 42} {
					t1, m1 := traceOf(t, g, name, seed)
					t2, m2 := traceOf(t, g, name, seed)
					if t1 != t2 {
						t.Fatalf("%s on %s seed %d: traces differ\n--- first\n%s\n--- second\n%s", name, g, seed, t1, t2)
					}
					if m1.Messages != m2.Messages || m1.TotalBits != m2.TotalBits || m1.MaxMsgBits != m2.MaxMsgBits {
						t.Fatalf("%s on %s seed %d: metrics differ: %+v vs %+v", name, g, seed, m1, m2)
					}
				}
			}
		})
	}
}

// TestSchedulerReuseAcrossRuns reuses one scheduler instance for two
// different graphs and then reruns the first: stale state from a previous
// run must not leak through Reset.
func TestSchedulerReuseAcrossRuns(t *testing.T) {
	for _, name := range SchedulerNames() {
		sched, err := NewScheduler(name)
		if err != nil {
			t.Fatal(err)
		}
		g1, g2 := graph.Ring(6), graph.Chain(4)
		run := func(g *graph.G) string {
			obs := &traceObserver{}
			if _, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
				Scheduler: sched, Seed: 9, Observer: obs,
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return obs.sb.String()
		}
		first := run(g1)
		run(g2)
		if again := run(g1); first != again {
			t.Fatalf("%s: trace changed after instance reuse\n--- first\n%s\n--- again\n%s", name, first, again)
		}
	}
}

// perEdgeFIFOObserver checks the model invariant every scheduler must
// preserve: links are FIFO, so each edge delivers its messages in exactly
// the order they were sent.
type perEdgeFIFOObserver struct {
	t       *testing.T
	sent    map[graph.EdgeID][]string
	nextOut map[graph.EdgeID]int
}

func (o *perEdgeFIFOObserver) OnSend(e graph.EdgeID, msg protocol.Message) {
	o.sent[e] = append(o.sent[e], msg.Key())
}

func (o *perEdgeFIFOObserver) OnDeliver(_ int, e graph.EdgeID, msg protocol.Message) {
	i := o.nextOut[e]
	if i >= len(o.sent[e]) {
		o.t.Errorf("edge %d delivered more messages than were sent", e)
		return
	}
	if o.sent[e][i] != msg.Key() {
		o.t.Errorf("edge %d delivery %d out of send order: got %q want %q", e, i, msg.Key(), o.sent[e][i])
	}
	o.nextOut[e] = i + 1
}

func TestSchedulersPreservePerEdgeFIFO(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			for _, g := range testGraphs() {
				sched, err := NewScheduler(name)
				if err != nil {
					t.Fatal(err)
				}
				obs := &perEdgeFIFOObserver{t: t, sent: map[graph.EdgeID][]string{}, nextOut: map[graph.EdgeID]int{}}
				if _, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
					Scheduler: sched, Seed: 5, Observer: obs,
				}); err != nil {
					t.Fatalf("%s on %s: %v", name, g, err)
				}
			}
		})
	}
}

// TestSchedulerVerdictAgreement: the flood protocol's verdict and message
// count on a fixed graph must not depend on the adversary (every edge
// floods exactly once).
func TestSchedulerVerdictAgreement(t *testing.T) {
	g := graph.Ring(7)
	var wantMsgs int
	for i, name := range SchedulerNames() {
		sched, err := NewScheduler(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{Scheduler: sched, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != Terminated {
			t.Fatalf("%s: verdict %s", name, r.Verdict)
		}
		if i == 0 {
			wantMsgs = r.Metrics.Messages
		} else if r.Metrics.Messages != wantMsgs {
			t.Fatalf("%s: %d messages, want %d (flood sends once per edge regardless of schedule)",
				name, r.Metrics.Messages, wantMsgs)
		}
	}
}

func TestNewSchedulerUnknown(t *testing.T) {
	if _, err := NewScheduler("no-such-adversary"); err == nil {
		t.Fatal("NewScheduler accepted an unknown name")
	}
	names := SchedulerNames()
	if len(names) < 7 {
		t.Fatalf("expected at least 7 registered schedulers, have %v", names)
	}
	for _, name := range names {
		s, err := NewScheduler(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("scheduler %q reports name %q", name, s.Name())
		}
	}
}

// TestNilSchedulerIsFIFO pins the zero-value default: a run without a
// scheduler delivers exactly the fifo adversary's schedule.
func TestNilSchedulerIsFIFO(t *testing.T) {
	g := graph.RandomDigraph(12, 11, graph.RandomDigraphOpts{ExtraEdges: 10})
	var def, fifo scheduleLog
	p := echoProto{ttl: 7, need: 2}
	if _, err := Run(g, p, Options{Observer: &def}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, p, Options{Scheduler: NewFIFOScheduler(), Observer: &fifo}); err != nil {
		t.Fatal(err)
	}
	if len(def.edges) == 0 || !def.equal(&fifo) {
		t.Fatalf("nil scheduler delivered %v, fifo %v", def.edges, fifo.edges)
	}
}

// TestGreedyPrefersUnvisitedFanout pins the greedy adversary's defining
// property on a hand-built graph: with both a high-fanout virgin vertex and
// an already-visited one pending, the virgin vertex is served first.
func TestGreedyPrefersUnvisitedFanout(t *testing.T) {
	// s -> a; a -> {b, t}; b -> {c, d, t}; c -> t; d -> t.
	b := graph.NewBuilder(0)
	s := b.AddVertex()
	a := b.AddVertex()
	bb := b.AddVertex()
	c := b.AddVertex()
	d := b.AddVertex()
	tt := b.AddVertex()
	b.AddEdge(s, a)
	b.AddEdge(a, bb).AddEdge(a, tt)
	b.AddEdge(bb, c).AddEdge(bb, d).AddEdge(bb, tt)
	b.AddEdge(c, tt).AddEdge(d, tt)
	b.SetRoot(s).SetTerminal(tt)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler("greedy")
	if err != nil {
		t.Fatal(err)
	}
	obs := &traceObserver{}
	r, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{Scheduler: sched, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	// Step 1 delivers s->a; a's flood leaves a->b (virgin b, fan-out 3) and
	// a->t (fan-out 0) pending, so greedy must deliver a->b (edge 1) at
	// step 2 — the choice that maximizes the in-flight count.
	trace := obs.sb.String()
	if !strings.Contains(trace, "D 2 1 ") {
		t.Fatalf("greedy did not deliver a->b at step 2:\n%s", trace)
	}
}
