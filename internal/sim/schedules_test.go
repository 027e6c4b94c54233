package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// scheduleLog records the delivery sequence of a run: step, edge and
// message key of every delivery.
type scheduleLog struct {
	steps []int
	edges []graph.EdgeID
	keys  []string
}

func (l *scheduleLog) OnSend(graph.EdgeID, protocol.Message) {}
func (l *scheduleLog) OnDeliver(step int, e graph.EdgeID, msg protocol.Message) {
	l.steps = append(l.steps, step)
	l.edges = append(l.edges, e)
	l.keys = append(l.keys, msg.Key())
}

func (l *scheduleLog) equal(o *scheduleLog) bool {
	if len(l.edges) != len(o.edges) {
		return false
	}
	for i := range l.edges {
		if l.steps[i] != o.steps[i] || l.edges[i] != o.edges[i] || l.keys[i] != o.keys[i] {
			return false
		}
	}
	return true
}

// pin renders a run as its pinned form: the FNV-1a digest of the delivery
// log (one "step edge key" line per delivery) with the run's steps,
// messages and drops.
func (l *scheduleLog) pin(r *Result) string {
	h := fnv.New64a()
	for i := range l.edges {
		fmt.Fprintf(h, "%d %d %s\n", l.steps[i], l.edges[i], l.keys[i])
	}
	return fmt.Sprintf("%016x steps=%d msgs=%d dropped=%d", h.Sum64(), r.Steps, r.Metrics.Messages, r.Dropped)
}

// checkPin runs one cell of a pinned-schedule test and compares it with
// pins[the subtest's name below the top-level test].
func checkPin(t *testing.T, pins map[string]string, g *graph.G, p protocol.Protocol, sched string, opts Options) *Result {
	t.Helper()
	s, err := NewScheduler(sched)
	if err != nil {
		t.Fatal(err)
	}
	log := &scheduleLog{}
	opts.Scheduler, opts.Observer = s, log
	r, err := Run(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, name, _ := strings.Cut(t.Name(), "/")
	if got, want := log.pin(r), pins[name]; got != want {
		t.Errorf("schedule moved:\n got  %s\n want %s", got, want)
	}
	return r
}

// echoProto forwards *every* received message (ttl-bounded), unlike
// floodProto's forward-once rule, so fan-in vertices queue several messages
// on one out-edge: runs of deliveries from one edge, whose order shows when
// an edge is re-registered with the scheduler. The terminal stops after
// `need` receipts.
type echoProto struct {
	ttl  uint64
	need int
}

func (p echoProto) Name() string                     { return "echo" }
func (p echoProto) InitialMessage() protocol.Message { return hopMsg{hops: p.ttl} }
func (p echoProto) NewNode(_, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &echoTerminal{need: p.need}
	}
	return &echoNode{outDeg: outDeg}
}

type echoNode struct{ outDeg int }

func (n *echoNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	h := msg.(hopMsg).hops
	if h == 0 {
		return nil, nil
	}
	outs := make([]protocol.Message, n.outDeg)
	for j := range outs {
		outs[j] = hopMsg{hops: h - 1}
	}
	return outs, nil
}

type echoTerminal struct{ got, need int }

func (t *echoTerminal) Receive(protocol.Message, int) ([]protocol.Message, error) {
	t.got++
	return nil, nil
}
func (t *echoTerminal) Done() bool  { return t.got >= t.need }
func (t *echoTerminal) Output() any { return t.got }

// diamondGraph fans one message out over two branches that reconverge, so
// the reconvergence vertex's single out-edge queues two messages — the
// smallest run of deliveries from one edge.
func diamondGraph() *graph.G {
	b := graph.NewBuilder(0)
	s := b.AddVertex()
	a := b.AddVertex()
	b1 := b.AddVertex()
	b2 := b.AddVertex()
	c := b.AddVertex()
	tt := b.AddVertex()
	b.AddEdge(s, a)
	b.AddEdge(a, b1).AddEdge(a, b2)
	b.AddEdge(b1, c)
	b.AddEdge(b2, c)
	b.AddEdge(c, tt)
	b.SetRoot(s).SetTerminal(tt).SetName("diamond")
	return b.MustBuild()
}

// cycleTrapGraph buries the terminal-bound edge under a 2-cycle's chatter:
// under depth-first adversaries (lifo) the c->d->c cycle runs dry while the
// c->t queue accumulates, to be drained in one run at the end.
func cycleTrapGraph() *graph.G {
	b := graph.NewBuilder(0)
	s := b.AddVertex()
	a := b.AddVertex()
	c := b.AddVertex()
	d := b.AddVertex()
	tt := b.AddVertex()
	b.AddEdge(s, a)
	b.AddEdge(a, c)
	b.AddEdge(c, tt).AddEdge(c, d)
	b.AddEdge(d, c)
	b.SetRoot(s).SetTerminal(tt).SetName("cycle-trap")
	return b.MustBuild()
}

// cycleRelayGraph is cycleTrapGraph with a relay x in front of the
// terminal: the c->x queue fills while the c->d->c cycle runs, and each of
// its deliveries makes x register its own empty out-edge. Under lifo, that
// registration and c->x's own re-registration decide which edge is popped
// next, so the graph shows a re-registration made at the wrong moment.
func cycleRelayGraph() *graph.G {
	b := graph.NewBuilder(0)
	s := b.AddVertex()
	a := b.AddVertex()
	c := b.AddVertex()
	d := b.AddVertex()
	x := b.AddVertex()
	tt := b.AddVertex()
	b.AddEdge(s, a)
	b.AddEdge(a, c)
	b.AddEdge(c, x).AddEdge(c, d)
	b.AddEdge(d, c)
	b.AddEdge(x, tt)
	b.SetRoot(s).SetTerminal(tt).SetName("cycle-relay")
	return b.MustBuild()
}

// funnelGraph fans out over three parallel edges into one relay whose single
// out-edge feeds the terminal: the relay's three receives queue three
// messages on the terminal edge, whose drain is then the only choice left —
// the endgame of priority adversaries (greedy, latency).
func funnelGraph() *graph.G {
	b := graph.NewBuilder(0)
	s := b.AddVertex()
	a := b.AddVertex()
	r := b.AddVertex()
	tt := b.AddVertex()
	b.AddEdge(s, a)
	b.AddEdge(a, r).AddEdge(a, r).AddEdge(a, r)
	b.AddEdge(r, tt)
	b.SetRoot(s).SetTerminal(tt).SetName("funnel")
	return b.MustBuild()
}

// TestBatchDrainScheduleEquivalence pins the delivery schedule of every
// registered scheduler on graphs spanning trees, cycles, fan-in and dense
// digraphs, under a forward-once and a forward-everything protocol. The
// pins are the schedules of the engine that still batch-drained forced
// choices, where batched and unbatched runs were equal, so the test keeps
// its name: one delivery per Pop, with an edge re-registered before its
// message is processed, must reproduce them exactly.
func TestBatchDrainScheduleEquivalence(t *testing.T) {
	graphs := []*graph.G{
		graph.Line(6),
		diamondGraph(),
		cycleTrapGraph(),
		funnelGraph(),
		graph.Chain(5),
		graph.KaryGroundedTree(2, 3),
		graph.Ring(7),
		graph.RandomDigraph(12, 11, graph.RandomDigraphOpts{ExtraEdges: 14, TerminalFrac: 0.3}),
		cycleRelayGraph(),
	}
	protos := []protocol.Protocol{
		floodProto{need: 1},
		echoProto{ttl: 7, need: 2},
		echoProto{ttl: 12, need: 6},
	}
	for _, name := range SchedulerNames() {
		for _, p := range protos {
			for gi, g := range graphs {
				t.Run(fmt.Sprintf("%s/%s/%s-%d", name, p.Name(), g.Name(), gi), func(t *testing.T) {
					checkPin(t, schedulePins, g, p, name, Options{Seed: int64(gi)*31 + 5})
				})
			}
		}
	}
}

// TestBatchDrainRespectsFaultPlan pins the schedules of fault-injected runs:
// a first-message drop, Bernoulli loss and a vertex crash on the diamond,
// whose reconvergence edge carries both a run of two deliveries and the
// injected drop. The pins, like TestBatchDrainScheduleEquivalence's, are
// the batch-draining engine's schedules; every plan must also drop
// something, or the cell would not test the fault path.
func TestBatchDrainRespectsFaultPlan(t *testing.T) {
	g := diamondGraph()
	c := graph.VertexID(4) // reconvergence vertex
	runEdge := g.OutEdgeIDs(c)[0]
	plans := []*Faults{
		{DropFirst: map[graph.EdgeID]int{runEdge: 1}},
		{LossRate: 0.4, Seed: 3},
		{CrashAfter: map[graph.VertexID]int{c: 1}},
	}
	for pi, plan := range plans {
		for _, name := range SchedulerNames() {
			t.Run(fmt.Sprintf("plan%d/%s", pi, name), func(t *testing.T) {
				r := checkPin(t, faultPlanPins, g, echoProto{ttl: 7, need: 2}, name, Options{Seed: 9, Faults: plan})
				if r.Dropped == 0 {
					t.Fatalf("fault plan %d never engaged", pi)
				}
			})
		}
	}
}

// TestBatchDrainDiamondForcedRun pins the diamond echo under fifo: the
// reconvergence vertex's out-edge queues two messages while nothing else is
// pending, and the run takes exactly 7 deliveries.
func TestBatchDrainDiamondForcedRun(t *testing.T) {
	r, err := Run(diamondGraph(), echoProto{ttl: 7, need: 2}, Options{Scheduler: NewFIFOScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	if r.Steps != 7 {
		t.Fatalf("diamond echo under fifo: %d steps, want 7", r.Steps)
	}
}

// schedulePins and faultPlanPins are keyed by subtest name: the delivery
// log's FNV-1a digest, then steps, messages and drops.
var schedulePins = map[string]string{
	"fifo/flood/line(6)-0":                             "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"fifo/flood/diamond-1":                             "410b8341de0d222f steps=6 msgs=6 dropped=0",
	"fifo/flood/cycle-trap-2":                          "125e453bf50a2c14 steps=3 msgs=4 dropped=0",
	"fifo/flood/funnel-3":                              "dbad355674b6305e steps=5 msgs=5 dropped=0",
	"fifo/flood/chain(5)-4":                            "12cb053bf5669134 steps=3 msgs=5 dropped=0",
	"fifo/flood/karyTree(h=2,d=3)-5":                   "3ed015fe8e2bf572 steps=14 msgs=22 dropped=0",
	"fifo/flood/ring(7)-6":                             "12cb053bf5669134 steps=3 msgs=5 dropped=0",
	"fifo/flood/randDigraph(12,seed=11)-7":             "7073386b42511b07 steps=5 msgs=16 dropped=0",
	"fifo/flood/cycle-relay-8":                         "c6b7a81061eaf133 steps=5 msgs=6 dropped=0",
	"fifo/echo/line(6)-0":                              "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"fifo/echo/diamond-1":                              "ab8471aacb62b63f steps=7 msgs=7 dropped=0",
	"fifo/echo/cycle-trap-2":                           "4a9c9c07b148c57c steps=6 msgs=7 dropped=0",
	"fifo/echo/funnel-3":                               "0d95f4ac6a9d4982 steps=6 msgs=7 dropped=0",
	"fifo/echo/chain(5)-4":                             "7b59bd45737e746e steps=5 msgs=7 dropped=0",
	"fifo/echo/karyTree(h=2,d=3)-5":                    "6da707646d6393d9 steps=15 msgs=22 dropped=0",
	"fifo/echo/ring(7)-6":                              "7b59bd45737e746e steps=5 msgs=7 dropped=0",
	"fifo/echo/randDigraph(12,seed=11)-7":              "72acc4984a309110 steps=12 msgs=26 dropped=0",
	"fifo/echo/cycle-relay-8":                          "42ac4b98063bd93f steps=9 msgs=10 dropped=0",
	"fifo/echo/line(6)-0#01":                           "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"fifo/echo/diamond-1#01":                           "ffa3624cd7e39fad steps=7 msgs=7 dropped=0",
	"fifo/echo/cycle-trap-2#01":                        "ce7fa4dca8a8444f steps=18 msgs=19 dropped=0",
	"fifo/echo/funnel-3#01":                            "84195eb9c5e281c7 steps=7 msgs=7 dropped=0",
	"fifo/echo/chain(5)-4#01":                          "d5d50794b234717c steps=10 msgs=10 dropped=0",
	"fifo/echo/karyTree(h=2,d=3)-5#01":                 "1941e0b141f79e99 steps=19 msgs=22 dropped=0",
	"fifo/echo/ring(7)-6#01":                           "6e3db661d99e7717 steps=13 msgs=15 dropped=0",
	"fifo/echo/randDigraph(12,seed=11)-7#01":           "e04dd9f025825e30 steps=34 msgs=71 dropped=0",
	"fifo/echo/cycle-relay-8#01":                       "e13d8ebace270b61 steps=24 msgs=24 dropped=0",
	"greedy/flood/line(6)-0":                           "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"greedy/flood/diamond-1":                           "ee1c4182af26bf53 steps=5 msgs=6 dropped=0",
	"greedy/flood/cycle-trap-2":                        "fca45b783b08800d steps=4 msgs=5 dropped=0",
	"greedy/flood/funnel-3":                            "7f3ed14ddd9f9a52 steps=3 msgs=5 dropped=0",
	"greedy/flood/chain(5)-4":                          "22d7b3fcf9346418 steps=6 msgs=10 dropped=0",
	"greedy/flood/karyTree(h=2,d=3)-5":                 "3ed015fe8e2bf572 steps=14 msgs=22 dropped=0",
	"greedy/flood/ring(7)-6":                           "9ccd367cebb0a4a0 steps=8 msgs=15 dropped=0",
	"greedy/flood/randDigraph(12,seed=11)-7":           "6dae6b394294d6c0 steps=13 msgs=32 dropped=0",
	"greedy/flood/cycle-relay-8":                       "c6b7a81061eaf133 steps=5 msgs=6 dropped=0",
	"greedy/echo/line(6)-0":                            "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"greedy/echo/diamond-1":                            "4267eafdb68544bb steps=7 msgs=7 dropped=0",
	"greedy/echo/cycle-trap-2":                         "4e682501da23ce40 steps=6 msgs=7 dropped=0",
	"greedy/echo/funnel-3":                             "5be247605ca5d03e steps=6 msgs=7 dropped=0",
	"greedy/echo/chain(5)-4":                           "819a53fdab3a4de1 steps=7 msgs=10 dropped=0",
	"greedy/echo/karyTree(h=2,d=3)-5":                  "6da707646d6393d9 steps=15 msgs=22 dropped=0",
	"greedy/echo/ring(7)-6":                            "2af08eee63b4b1df steps=9 msgs=15 dropped=0",
	"greedy/echo/randDigraph(12,seed=11)-7":            "8ca335e2c7b5bdef steps=16 msgs=34 dropped=0",
	"greedy/echo/cycle-relay-8":                        "42ac4b98063bd93f steps=9 msgs=10 dropped=0",
	"greedy/echo/line(6)-0#01":                         "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"greedy/echo/diamond-1#01":                         "731e0a7bc1352581 steps=7 msgs=7 dropped=0",
	"greedy/echo/cycle-trap-2#01":                      "4489b9bc796502e3 steps=18 msgs=19 dropped=0",
	"greedy/echo/funnel-3#01":                          "ab0b4da259445d73 steps=7 msgs=7 dropped=0",
	"greedy/echo/chain(5)-4#01":                        "12caf81daeed4ea4 steps=10 msgs=10 dropped=0",
	"greedy/echo/karyTree(h=2,d=3)-5#01":               "1941e0b141f79e99 steps=19 msgs=22 dropped=0",
	"greedy/echo/ring(7)-6#01":                         "c6c3f48cc4a015a9 steps=13 msgs=15 dropped=0",
	"greedy/echo/randDigraph(12,seed=11)-7#01":         "a3216beb55fa4550 steps=26 msgs=57 dropped=0",
	"greedy/echo/cycle-relay-8#01":                     "e13d8ebace270b61 steps=24 msgs=24 dropped=0",
	"latency/flood/line(6)-0":                          "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"latency/flood/diamond-1":                          "ee1c4182af26bf53 steps=5 msgs=6 dropped=0",
	"latency/flood/cycle-trap-2":                       "125e453bf50a2c14 steps=3 msgs=4 dropped=0",
	"latency/flood/funnel-3":                           "dbad355674b6305e steps=5 msgs=5 dropped=0",
	"latency/flood/chain(5)-4":                         "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"latency/flood/karyTree(h=2,d=3)-5":                "111953792d06a3dd steps=4 msgs=8 dropped=0",
	"latency/flood/ring(7)-6":                          "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"latency/flood/randDigraph(12,seed=11)-7":          "fe715a17dcbb8b9b steps=9 msgs=22 dropped=0",
	"latency/flood/cycle-relay-8":                      "c6b7a81061eaf133 steps=5 msgs=6 dropped=0",
	"latency/echo/line(6)-0":                           "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"latency/echo/diamond-1":                           "4267eafdb68544bb steps=7 msgs=7 dropped=0",
	"latency/echo/cycle-trap-2":                        "4a9c9c07b148c57c steps=6 msgs=7 dropped=0",
	"latency/echo/funnel-3":                            "0d95f4ac6a9d4982 steps=6 msgs=7 dropped=0",
	"latency/echo/chain(5)-4":                          "8a7fba4bca923a9d steps=6 msgs=9 dropped=0",
	"latency/echo/karyTree(h=2,d=3)-5":                 "4644104458cb3d17 steps=10 msgs=17 dropped=0",
	"latency/echo/ring(7)-6":                           "8a7fba4bca923a9d steps=6 msgs=9 dropped=0",
	"latency/echo/randDigraph(12,seed=11)-7":           "13ddac54da167f57 steps=11 msgs=27 dropped=0",
	"latency/echo/cycle-relay-8":                       "42ac4b98063bd93f steps=9 msgs=10 dropped=0",
	"latency/echo/line(6)-0#01":                        "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"latency/echo/diamond-1#01":                        "731e0a7bc1352581 steps=7 msgs=7 dropped=0",
	"latency/echo/cycle-trap-2#01":                     "ce7fa4dca8a8444f steps=18 msgs=19 dropped=0",
	"latency/echo/funnel-3#01":                         "84195eb9c5e281c7 steps=7 msgs=7 dropped=0",
	"latency/echo/chain(5)-4#01":                       "6fabf5c871949056 steps=10 msgs=10 dropped=0",
	"latency/echo/karyTree(h=2,d=3)-5#01":              "e058bad0fc496900 steps=18 msgs=21 dropped=0",
	"latency/echo/ring(7)-6#01":                        "5f3a5cd70eef51b9 steps=14 msgs=17 dropped=0",
	"latency/echo/randDigraph(12,seed=11)-7#01":        "692f0d3d892a3e7b steps=24 msgs=53 dropped=0",
	"latency/echo/cycle-relay-8#01":                    "e13d8ebace270b61 steps=24 msgs=24 dropped=0",
	"latency-pareto/flood/line(6)-0":                   "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"latency-pareto/flood/diamond-1":                   "d56e97abeb7a4abf steps=6 msgs=6 dropped=0",
	"latency-pareto/flood/cycle-trap-2":                "125e453bf50a2c14 steps=3 msgs=4 dropped=0",
	"latency-pareto/flood/funnel-3":                    "dc3c6c2d01ff1d2a steps=5 msgs=5 dropped=0",
	"latency-pareto/flood/chain(5)-4":                  "12cb053bf5669134 steps=3 msgs=5 dropped=0",
	"latency-pareto/flood/karyTree(h=2,d=3)-5":         "a8c24413dccb2296 steps=10 msgs=18 dropped=0",
	"latency-pareto/flood/ring(7)-6":                   "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"latency-pareto/flood/randDigraph(12,seed=11)-7":   "7073386b42511b07 steps=5 msgs=16 dropped=0",
	"latency-pareto/flood/cycle-relay-8":               "c6b7a81061eaf133 steps=5 msgs=6 dropped=0",
	"latency-pareto/echo/line(6)-0":                    "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"latency-pareto/echo/diamond-1":                    "1265c817892d0b8f steps=7 msgs=7 dropped=0",
	"latency-pareto/echo/cycle-trap-2":                 "4a9c9c07b148c57c steps=6 msgs=7 dropped=0",
	"latency-pareto/echo/funnel-3":                     "8c97290540dcce5e steps=6 msgs=7 dropped=0",
	"latency-pareto/echo/chain(5)-4":                   "7b59bd45737e746e steps=5 msgs=7 dropped=0",
	"latency-pareto/echo/karyTree(h=2,d=3)-5":          "c5a24733434aaf94 steps=11 msgs=18 dropped=0",
	"latency-pareto/echo/ring(7)-6":                    "b0f84ac096b596fe steps=4 msgs=5 dropped=0",
	"latency-pareto/echo/randDigraph(12,seed=11)-7":    "72acc4984a309110 steps=12 msgs=26 dropped=0",
	"latency-pareto/echo/cycle-relay-8":                "42ac4b98063bd93f steps=9 msgs=10 dropped=0",
	"latency-pareto/echo/line(6)-0#01":                 "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"latency-pareto/echo/diamond-1#01":                 "28d4d3305c54102d steps=7 msgs=7 dropped=0",
	"latency-pareto/echo/cycle-trap-2#01":              "ce7fa4dca8a8444f steps=18 msgs=19 dropped=0",
	"latency-pareto/echo/funnel-3#01":                  "c8f9ad9bcc3409e3 steps=7 msgs=7 dropped=0",
	"latency-pareto/echo/chain(5)-4#01":                "05dfffba0a3bdfd6 steps=10 msgs=10 dropped=0",
	"latency-pareto/echo/karyTree(h=2,d=3)-5#01":       "09e3091148d99247 steps=18 msgs=21 dropped=0",
	"latency-pareto/echo/ring(7)-6#01":                 "e04ba0dd85bf0c97 steps=13 msgs=15 dropped=0",
	"latency-pareto/echo/randDigraph(12,seed=11)-7#01": "13994ee36c449817 steps=32 msgs=67 dropped=0",
	"latency-pareto/echo/cycle-relay-8#01":             "e13d8ebace270b61 steps=24 msgs=24 dropped=0",
	"lifo/flood/line(6)-0":                             "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"lifo/flood/diamond-1":                             "f0cc385286615f3e steps=4 msgs=5 dropped=0",
	"lifo/flood/cycle-trap-2":                          "275c059706f167ca steps=5 msgs=5 dropped=0",
	"lifo/flood/funnel-3":                              "29d8d1d459ebbc68 steps=3 msgs=5 dropped=0",
	"lifo/flood/chain(5)-4":                            "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"lifo/flood/karyTree(h=2,d=3)-5":                   "5a8ea42710450862 steps=4 msgs=8 dropped=0",
	"lifo/flood/ring(7)-6":                             "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"lifo/flood/randDigraph(12,seed=11)-7":             "3eaeded84c54341e steps=2 msgs=5 dropped=0",
	"lifo/flood/cycle-relay-8":                         "caa74ec63923768b steps=6 msgs=6 dropped=0",
	"lifo/echo/line(6)-0":                              "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"lifo/echo/diamond-1":                              "aa77d6684cc15c33 steps=7 msgs=7 dropped=0",
	"lifo/echo/cycle-trap-2":                           "f5d49d6ddfeb7589 steps=10 msgs=11 dropped=0",
	"lifo/echo/funnel-3":                               "551fe2e8ef90622b steps=5 msgs=6 dropped=0",
	"lifo/echo/chain(5)-4":                             "b0f84ac096b596fe steps=4 msgs=5 dropped=0",
	"lifo/echo/karyTree(h=2,d=3)-5":                    "d0bcef8fb4666045 steps=6 msgs=9 dropped=0",
	"lifo/echo/ring(7)-6":                              "b0f84ac096b596fe steps=4 msgs=5 dropped=0",
	"lifo/echo/randDigraph(12,seed=11)-7":              "a42767d834900106 steps=5 msgs=11 dropped=0",
	"lifo/echo/cycle-relay-8":                          "2af9e41371cc9546 steps=12 msgs=13 dropped=0",
	"lifo/echo/line(6)-0#01":                           "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"lifo/echo/diamond-1#01":                           "6541e8f9c40b6339 steps=7 msgs=7 dropped=0",
	"lifo/echo/cycle-trap-2#01":                        "eec827792ccc90d6 steps=19 msgs=19 dropped=0",
	"lifo/echo/funnel-3#01":                            "24cf4f1616e2602f steps=7 msgs=7 dropped=0",
	"lifo/echo/chain(5)-4#01":                          "83225d0634a13bdc steps=10 msgs=10 dropped=0",
	"lifo/echo/karyTree(h=2,d=3)-5#01":                 "95fd974a41cb0da5 steps=15 msgs=16 dropped=0",
	"lifo/echo/ring(7)-6#01":                           "58f28ba0aa194fa1 steps=12 msgs=13 dropped=0",
	"lifo/echo/randDigraph(12,seed=11)-7#01":           "20368358f9780999 steps=15 msgs=31 dropped=0",
	"lifo/echo/cycle-relay-8#01":                       "f5071d3f0615d78d steps=24 msgs=24 dropped=0",
	"random/flood/line(6)-0":                           "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"random/flood/diamond-1":                           "ee1c4182af26bf53 steps=5 msgs=6 dropped=0",
	"random/flood/cycle-trap-2":                        "275c059706f167ca steps=5 msgs=5 dropped=0",
	"random/flood/funnel-3":                            "9263f81d5f72a66c steps=4 msgs=5 dropped=0",
	"random/flood/chain(5)-4":                          "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"random/flood/karyTree(h=2,d=3)-5":                 "3d4cdd8ab6d9e2a2 steps=9 msgs=15 dropped=0",
	"random/flood/ring(7)-6":                           "d456e5c9a0f07d4d steps=5 msgs=9 dropped=0",
	"random/flood/randDigraph(12,seed=11)-7":           "a9975735f797e22e steps=3 msgs=12 dropped=0",
	"random/flood/cycle-relay-8":                       "0226b7e01f79b10f steps=6 msgs=6 dropped=0",
	"random/echo/line(6)-0":                            "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"random/echo/diamond-1":                            "4267eafdb68544bb steps=7 msgs=7 dropped=0",
	"random/echo/cycle-trap-2":                         "317287ff5454b735 steps=10 msgs=11 dropped=0",
	"random/echo/funnel-3":                             "e2ef385e8bfa34b2 steps=6 msgs=7 dropped=0",
	"random/echo/chain(5)-4":                           "0936252b16a23f30 steps=5 msgs=7 dropped=0",
	"random/echo/karyTree(h=2,d=3)-5":                  "3818c5ff9cccf94e steps=12 msgs=19 dropped=0",
	"random/echo/ring(7)-6":                            "bbe43102dfbefb11 steps=7 msgs=11 dropped=0",
	"random/echo/randDigraph(12,seed=11)-7":            "fa3230c03ccf3786 steps=7 msgs=17 dropped=0",
	"random/echo/cycle-relay-8":                        "e41ae242dbd8b0bf steps=8 msgs=9 dropped=0",
	"random/echo/line(6)-0#01":                         "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"random/echo/diamond-1#01":                         "731e0a7bc1352581 steps=7 msgs=7 dropped=0",
	"random/echo/cycle-trap-2#01":                      "16df591f53ec510b steps=18 msgs=19 dropped=0",
	"random/echo/funnel-3#01":                          "e8b430e6487d4ea7 steps=7 msgs=7 dropped=0",
	"random/echo/chain(5)-4#01":                        "afb690ec4277f8ea steps=10 msgs=10 dropped=0",
	"random/echo/karyTree(h=2,d=3)-5#01":               "045eb7454a640e85 steps=19 msgs=22 dropped=0",
	"random/echo/ring(7)-6#01":                         "9317cbe3e6b0d04e steps=15 msgs=19 dropped=0",
	"random/echo/randDigraph(12,seed=11)-7#01":         "b858964464081db8 steps=25 msgs=51 dropped=0",
	"random/echo/cycle-relay-8#01":                     "f1833e6ed838d971 steps=24 msgs=24 dropped=0",
	"rr-vertex/flood/line(6)-0":                        "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"rr-vertex/flood/diamond-1":                        "410b8341de0d222f steps=6 msgs=6 dropped=0",
	"rr-vertex/flood/cycle-trap-2":                     "125e453bf50a2c14 steps=3 msgs=4 dropped=0",
	"rr-vertex/flood/funnel-3":                         "9bc204dd7c7a0e62 steps=4 msgs=5 dropped=0",
	"rr-vertex/flood/chain(5)-4":                       "12cb053bf5669134 steps=3 msgs=5 dropped=0",
	"rr-vertex/flood/karyTree(h=2,d=3)-5":              "3ed015fe8e2bf572 steps=14 msgs=22 dropped=0",
	"rr-vertex/flood/ring(7)-6":                        "12cb053bf5669134 steps=3 msgs=5 dropped=0",
	"rr-vertex/flood/randDigraph(12,seed=11)-7":        "7073386b42511b07 steps=5 msgs=16 dropped=0",
	"rr-vertex/flood/cycle-relay-8":                    "c6b7a81061eaf133 steps=5 msgs=6 dropped=0",
	"rr-vertex/echo/line(6)-0":                         "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"rr-vertex/echo/diamond-1":                         "ab8471aacb62b63f steps=7 msgs=7 dropped=0",
	"rr-vertex/echo/cycle-trap-2":                      "4a9c9c07b148c57c steps=6 msgs=7 dropped=0",
	"rr-vertex/echo/funnel-3":                          "6ed8d73e0ee7fc1e steps=6 msgs=7 dropped=0",
	"rr-vertex/echo/chain(5)-4":                        "7b59bd45737e746e steps=5 msgs=7 dropped=0",
	"rr-vertex/echo/karyTree(h=2,d=3)-5":               "6da707646d6393d9 steps=15 msgs=22 dropped=0",
	"rr-vertex/echo/ring(7)-6":                         "7b59bd45737e746e steps=5 msgs=7 dropped=0",
	"rr-vertex/echo/randDigraph(12,seed=11)-7":         "68d8553f28252493 steps=13 msgs=36 dropped=0",
	"rr-vertex/echo/cycle-relay-8":                     "42ac4b98063bd93f steps=9 msgs=10 dropped=0",
	"rr-vertex/echo/line(6)-0#01":                      "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"rr-vertex/echo/diamond-1#01":                      "ffa3624cd7e39fad steps=7 msgs=7 dropped=0",
	"rr-vertex/echo/cycle-trap-2#01":                   "ce7fa4dca8a8444f steps=18 msgs=19 dropped=0",
	"rr-vertex/echo/funnel-3#01":                       "7d915d1f570b3eb3 steps=7 msgs=7 dropped=0",
	"rr-vertex/echo/chain(5)-4#01":                     "d5d50794b234717c steps=10 msgs=10 dropped=0",
	"rr-vertex/echo/karyTree(h=2,d=3)-5#01":            "1941e0b141f79e99 steps=19 msgs=22 dropped=0",
	"rr-vertex/echo/ring(7)-6#01":                      "6e3db661d99e7717 steps=13 msgs=15 dropped=0",
	"rr-vertex/echo/randDigraph(12,seed=11)-7#01":      "c346f585b9028e55 steps=61 msgs=151 dropped=0",
	"rr-vertex/echo/cycle-relay-8#01":                  "e13d8ebace270b61 steps=24 msgs=24 dropped=0",
	"starve-oldest/flood/line(6)-0":                    "aec6a84ca0289680 steps=7 msgs=7 dropped=0",
	"starve-oldest/flood/diamond-1":                    "f0cc385286615f3e steps=4 msgs=5 dropped=0",
	"starve-oldest/flood/cycle-trap-2":                 "275c059706f167ca steps=5 msgs=5 dropped=0",
	"starve-oldest/flood/funnel-3":                     "29d8d1d459ebbc68 steps=3 msgs=5 dropped=0",
	"starve-oldest/flood/chain(5)-4":                   "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"starve-oldest/flood/karyTree(h=2,d=3)-5":          "5a8ea42710450862 steps=4 msgs=8 dropped=0",
	"starve-oldest/flood/ring(7)-6":                    "91858d16b079aaa4 steps=2 msgs=3 dropped=0",
	"starve-oldest/flood/randDigraph(12,seed=11)-7":    "3eaeded84c54341e steps=2 msgs=5 dropped=0",
	"starve-oldest/flood/cycle-relay-8":                "caa74ec63923768b steps=6 msgs=6 dropped=0",
	"starve-oldest/echo/line(6)-0":                     "2e35cfe2d331f5a0 steps=7 msgs=7 dropped=0",
	"starve-oldest/echo/diamond-1":                     "aa77d6684cc15c33 steps=7 msgs=7 dropped=0",
	"starve-oldest/echo/cycle-trap-2":                  "f5d49d6ddfeb7589 steps=10 msgs=11 dropped=0",
	"starve-oldest/echo/funnel-3":                      "551fe2e8ef90622b steps=5 msgs=6 dropped=0",
	"starve-oldest/echo/chain(5)-4":                    "b0f84ac096b596fe steps=4 msgs=5 dropped=0",
	"starve-oldest/echo/karyTree(h=2,d=3)-5":           "d0bcef8fb4666045 steps=6 msgs=9 dropped=0",
	"starve-oldest/echo/ring(7)-6":                     "b0f84ac096b596fe steps=4 msgs=5 dropped=0",
	"starve-oldest/echo/randDigraph(12,seed=11)-7":     "a42767d834900106 steps=5 msgs=11 dropped=0",
	"starve-oldest/echo/cycle-relay-8":                 "2af9e41371cc9546 steps=12 msgs=13 dropped=0",
	"starve-oldest/echo/line(6)-0#01":                  "af7939070b5ddcfa steps=7 msgs=7 dropped=0",
	"starve-oldest/echo/diamond-1#01":                  "6541e8f9c40b6339 steps=7 msgs=7 dropped=0",
	"starve-oldest/echo/cycle-trap-2#01":               "eec827792ccc90d6 steps=19 msgs=19 dropped=0",
	"starve-oldest/echo/funnel-3#01":                   "24cf4f1616e2602f steps=7 msgs=7 dropped=0",
	"starve-oldest/echo/chain(5)-4#01":                 "83225d0634a13bdc steps=10 msgs=10 dropped=0",
	"starve-oldest/echo/karyTree(h=2,d=3)-5#01":        "95fd974a41cb0da5 steps=15 msgs=16 dropped=0",
	"starve-oldest/echo/ring(7)-6#01":                  "58f28ba0aa194fa1 steps=12 msgs=13 dropped=0",
	"starve-oldest/echo/randDigraph(12,seed=11)-7#01":  "20368358f9780999 steps=15 msgs=31 dropped=0",
	"starve-oldest/echo/cycle-relay-8#01":              "f5071d3f0615d78d steps=24 msgs=24 dropped=0",
}

var faultPlanPins = map[string]string{
	"plan0/fifo":           "e50116a54f9d2b57 steps=6 msgs=7 dropped=1",
	"plan0/greedy":         "e50116a54f9d2b57 steps=6 msgs=7 dropped=1",
	"plan0/latency":        "c461b58596e32143 steps=6 msgs=7 dropped=1",
	"plan0/latency-pareto": "c461b58596e32143 steps=6 msgs=7 dropped=1",
	"plan0/lifo":           "c3a15fd103100db3 steps=6 msgs=7 dropped=1",
	"plan0/random":         "c461b58596e32143 steps=6 msgs=7 dropped=1",
	"plan0/rr-vertex":      "e50116a54f9d2b57 steps=6 msgs=7 dropped=1",
	"plan0/starve-oldest":  "c3a15fd103100db3 steps=6 msgs=7 dropped=1",
	"plan1/fifo":           "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan1/greedy":         "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan1/latency":        "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan1/latency-pareto": "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan1/lifo":           "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan1/random":         "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan1/rr-vertex":      "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan1/starve-oldest":  "4e7e42ab2d73c6d6 steps=4 msgs=5 dropped=1",
	"plan2/fifo":           "e50116a54f9d2b57 steps=6 msgs=6 dropped=1",
	"plan2/greedy":         "c77a28e94fa8ed03 steps=6 msgs=6 dropped=1",
	"plan2/latency":        "c461b58596e32143 steps=6 msgs=6 dropped=1",
	"plan2/latency-pareto": "c461b58596e32143 steps=6 msgs=6 dropped=1",
	"plan2/lifo":           "e5cf40be5201a71b steps=6 msgs=6 dropped=1",
	"plan2/random":         "18e78d591e22a913 steps=6 msgs=6 dropped=1",
	"plan2/rr-vertex":      "e50116a54f9d2b57 steps=6 msgs=6 dropped=1",
	"plan2/starve-oldest":  "e5cf40be5201a71b steps=6 msgs=6 dropped=1",
}
