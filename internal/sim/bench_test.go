package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// runSeedReference is a faithful copy of the seed repository's sequential
// engine inner loop: per-edge []Message queues popped by reslicing, and a
// flat pending []EdgeID slice the adversary indexes into, with removal by
// append(pending[:idx], pending[idx+1:]...). Both the FIFO pick (idx 0) and
// the middle removal copy the tail, so a delivery step costs O(|pending|)
// and a broadcast costs O(steps · |pending|) — the quadratic behaviour the
// indexed scheduler replaces. Kept verbatim, test-only, as the benchmark
// baseline.
func runSeedReference(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	nV, nE := g.NumVertices(), g.NumEdges()
	nodes, term, err := BuildNodes(g, p)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Visited: make([]bool, nV),
		Nodes:   nodes,
		Metrics: Metrics{
			PerEdgeBits: make([]int64, nE),
			PerEdgeMsgs: make([]int, nE),
		},
	}
	res.Visited[g.Root()] = true

	queues := make([][]protocol.Message, nE)
	var pending []graph.EdgeID
	inPending := make([]bool, nE)
	push := func(e graph.EdgeID, msg protocol.Message) {
		queues[e] = append(queues[e], msg)
		if !inPending[e] {
			inPending[e] = true
			pending = append(pending, e)
		}
	}

	order := "fifo"
	if opts.Scheduler != nil {
		order = opts.Scheduler.Name()
	}
	var rng *rand.Rand
	if order == "random" {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	inits, err := InitialMessages(g, p)
	if err != nil {
		return nil, err
	}
	for j, init := range inits {
		if init == nil {
			continue
		}
		rootEdge := g.OutEdge(g.Root(), j)
		res.Metrics.record(rootEdge.ID, init)
		push(rootEdge.ID, init)
	}

	for len(pending) > 0 {
		if res.Steps >= maxSteps {
			return res, fmt.Errorf("%w (%d steps)", ErrStepLimit, res.Steps)
		}
		res.Steps++

		var idx int
		switch order {
		case "lifo":
			idx = len(pending) - 1
		case "random":
			idx = rng.Intn(len(pending))
		default:
			idx = 0
		}
		e := pending[idx]
		msg := queues[e][0]
		queues[e] = queues[e][1:]
		if len(queues[e]) == 0 {
			inPending[e] = false
			pending = append(pending[:idx], pending[idx+1:]...)
		}

		edge := g.Edge(e)
		res.Visited[edge.To] = true
		outs, err := nodes[edge.To].Receive(msg, edge.ToPort)
		if err != nil {
			return res, err
		}
		for j, out := range outs {
			if out == nil {
				continue
			}
			oe := g.OutEdge(edge.To, j)
			res.Metrics.record(oe.ID, out)
			push(oe.ID, out)
		}
		if edge.To == g.Terminal() && term.Done() {
			res.Verdict = Terminated
			res.Output = term.Output()
			return res, nil
		}
	}
	res.Verdict = Quiescent
	return res, nil
}

// benchGraph is a 100k+-vertex grounded tree: the ISSUE's target scale for
// the pending-edge refactor. Built once; the generator is seeded, so every
// benchmark sees the same instance.
var benchGraph = func() *graph.G {
	return graph.RandomGroundedTree(100_000, 0.2, 1)
}()

// BenchmarkPendingEdge100k contrasts the seed engine's linear-scan pending
// slice with the indexed scheduler structure on a >=100k-vertex broadcast.
// The flood protocol keeps per-delivery protocol work at a minimum, and the
// step count is schedule-independent (each sent message is delivered exactly
// once), so the gap is pending-edge bookkeeping. Caveat per pair:
//
//   - lifo: the two engines execute the *identical* schedule (the seed's
//     last-index pick and the stack re-push agree step for step), so this
//     pair isolates the data structures exactly;
//   - fifo: the seed's "FIFO" drains pending[0]'s edge fully while the
//     indexed fifo delivers in true global send order, so the pending-set
//     trajectory (and with it the seed loop's per-step scan cost) differs
//     along with the structure;
//   - random: same multiset of choices, but insertion-order removal vs
//     swap-with-last consume the RNG differently.
func BenchmarkPendingEdge100k(b *testing.B) {
	g := benchGraph
	need := g.InDegree(g.Terminal())
	b.Logf("graph: |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	b.Run("seed-fifo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := runSeedReference(g, floodProto{need: need}, Options{Scheduler: NewFIFOScheduler()})
			if err != nil {
				b.Fatal(err)
			}
			if r.Verdict != Terminated {
				b.Fatal("did not terminate")
			}
		}
	})
	b.Run("indexed-fifo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := Run(g, floodProto{need: need}, Options{Scheduler: NewFIFOScheduler()})
			if err != nil {
				b.Fatal(err)
			}
			if r.Verdict != Terminated {
				b.Fatal("did not terminate")
			}
		}
	})
	b.Run("seed-lifo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := runSeedReference(g, floodProto{need: need}, Options{Scheduler: NewLIFOScheduler()})
			if err != nil {
				b.Fatal(err)
			}
			if r.Verdict != Terminated {
				b.Fatal("did not terminate")
			}
		}
	})
	b.Run("indexed-lifo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := Run(g, floodProto{need: need}, Options{Scheduler: NewLIFOScheduler()})
			if err != nil {
				b.Fatal(err)
			}
			if r.Verdict != Terminated {
				b.Fatal("did not terminate")
			}
		}
	})
	b.Run("seed-random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runSeedReference(g, floodProto{need: need}, Options{Scheduler: NewRandomScheduler(), Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed-random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, floodProto{need: need}, Options{Scheduler: NewRandomScheduler(), Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedulers100k measures every adversary's bookkeeping cost on the
// same 100k-vertex broadcast: all of them must stay near the fifo/lifo
// baseline, since each operation is O(1) or O(log n).
func BenchmarkSchedulers100k(b *testing.B) {
	g := benchGraph
	need := g.InDegree(g.Terminal())
	for _, name := range SchedulerNames() {
		b.Run(name, func(b *testing.B) {
			sched, err := NewScheduler(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				r, err := Run(g, floodProto{need: need}, Options{Scheduler: sched, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != Terminated {
					b.Fatal("did not terminate")
				}
			}
		})
	}
}

// --- steady-state delivery: the zero-allocation contract --------------------

// pumpMsg is a comparable one-value message with a 64-symbol alphabet, so
// the interner's value memo covers all traffic after one lap.
type pumpMsg struct{ h uint8 }

func (m pumpMsg) Bits() int   { return 6 }
func (m pumpMsg) Key() string { return string([]byte{'p', m.h}) }

// pumpMsgs is the shared boxed-message table: nodes forward values from it,
// so the hot loop never boxes a fresh interface value.
var pumpMsgs = func() *[64]protocol.Message {
	var t [64]protocol.Message
	for i := range t {
		t[i] = pumpMsg{h: uint8(i)}
	}
	return &t
}()

// pumpProto circulates a message around a cycle forever (one tap edge to the
// terminal per lap), keeping a small constant number of messages in flight
// however long the run is: the steady-state delivery workload. Nodes reuse
// their outs slice across Receive calls — the engine consumes it before the
// next call — so a delivery's allocation count is exactly the engine's own.
type pumpProto struct{ need int }

func (p pumpProto) Name() string                     { return "pump" }
func (p pumpProto) InitialMessage() protocol.Message { return pumpMsgs[0] }

func (p pumpProto) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &pumpTerm{need: p.need}
	}
	return &pumpNode{outs: make([]protocol.Message, outDeg)}
}

type pumpNode struct{ outs []protocol.Message }

func (n *pumpNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	next := pumpMsgs[(msg.(pumpMsg).h+1)&63]
	for j := range n.outs {
		n.outs[j] = next
	}
	return n.outs, nil
}

type pumpTerm struct{ need, got int }

func (t *pumpTerm) Receive(protocol.Message, int) ([]protocol.Message, error) {
	t.got++
	return nil, nil
}
func (t *pumpTerm) Done() bool  { return t.got >= t.need }
func (t *pumpTerm) Output() any { return t.got }

// pumpGraph builds root -> a0 -> a1 -> ... -> ak -> a0 with a tap a0 -> t:
// one message laps the cycle while the tap feeds the terminal once per lap.
func pumpGraph(k int) *graph.G {
	b := graph.NewBuilder(0)
	s := b.AddVertex()
	tt := b.AddVertex()
	a0 := b.AddVertex()
	b.AddEdge(s, a0)
	prev := a0
	for i := 1; i <= k; i++ {
		v := b.AddVertex()
		b.AddEdge(prev, v)
		prev = v
	}
	b.AddEdge(prev, a0)
	b.AddEdge(a0, tt)
	b.SetRoot(s).SetTerminal(tt).SetName(fmt.Sprintf("pump(%d)", k))
	return b.MustBuild()
}

// pumpDeliveriesPerLap is the delivery count one full lap of pumpGraph(k)
// executes: k+1 cycle edges plus the tap edge.
func pumpDeliveriesPerLap(k int) int { return k + 2 }

// BenchmarkSteadyDelivery measures the per-delivery cost of the sequential
// engine once a run is in steady state, with the full metered path enabled
// (alphabet tracking, first-symbol tracking, peak accounting). One op is one
// lap of the pump cycle — pumpDeliveriesPerLap(8) deliveries — so allocs/op
// must be 0: the interned metrics path, pooled queue chunks, and pre-sized
// scheduler structures leave nothing to allocate per delivery.
func BenchmarkSteadyDelivery(b *testing.B) {
	const k = 8
	g := pumpGraph(k)
	for _, sched := range []string{"fifo", "random"} {
		b.Run(sched, func(b *testing.B) {
			s, err := NewScheduler(sched)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Scheduler: s, Seed: 3, TrackAlphabet: true, TrackFirstSymbol: true}
			// Long -benchtime drives b.N laps past the engine's default step
			// budget; size the budget to the workload.
			opts.MaxSteps = (b.N + 64) * pumpDeliveriesPerLap(k) * 2
			// Warm-up primes the chunk pool and allocator size classes.
			if _, err := Run(g, pumpProto{need: 64}, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			r, err := Run(g, pumpProto{need: b.N}, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if r.Verdict != Terminated {
				b.Fatal("pump did not terminate")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.Steps), "ns/delivery")
		})
	}
}

// TestSteadyDeliveryZeroAllocs is the benchmark-asserted form of the
// zero-allocation contract: with the garbage collector held off (so pool
// evictions cannot inject noise), a run executing ~100k steady-state
// deliveries with metrics enabled must allocate no more than its O(1) setup
// — nodes, queues, result, interner — independent of the delivery count.
func TestSteadyDeliveryZeroAllocs(t *testing.T) {
	const k, laps = 8, 10_000
	g := pumpGraph(k)
	sched, err := NewScheduler("random")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scheduler: sched, Seed: 3, TrackAlphabet: true, TrackFirstSymbol: true}
	if _, err := Run(g, pumpProto{need: 256}, opts); err != nil { // warm-up
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(need int) (allocs uint64, deliveries int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Run(g, pumpProto{need: need}, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != Terminated {
			t.Fatal("pump did not terminate")
		}
		return after.Mallocs - before.Mallocs, r.Steps
	}

	allocs1, d1 := measure(laps)
	allocs2, d2 := measure(4 * laps)
	if d1 < laps*pumpDeliveriesPerLap(k)/2 || d2 < 3*d1 {
		t.Fatalf("suspiciously few deliveries: %d then %d", d1, d2)
	}
	if raceEnabled {
		// The runs above still drive the metering goroutine under the race
		// detector; only the counts below need a plain build.
		t.Skip("race mode: sync.Pool intentionally drops puts, so pop-side chunk reuse cannot be allocation-free")
	}
	// The direct form of the contract: allocations are a function of setup
	// (nodes, queues, result, the 64-symbol intern table), not of delivery
	// count — quadrupling the run must not move them beyond jitter.
	const jitter = 16
	if allocs2 > allocs1+jitter {
		t.Errorf("allocations grew with deliveries: %d allocs at %d deliveries, %d at %d — %.4f allocs per extra delivery",
			allocs1, d1, allocs2, d2, float64(allocs2-allocs1)/float64(d2-d1))
	}
	// And a generous absolute ceiling so setup itself cannot quietly bloat.
	const setupBudget = 400
	if allocs1 > setupBudget {
		t.Errorf("run setup allocated %d times (budget %d)", allocs1, setupBudget)
	}
}

// --- peak in-flight equivalence ---------------------------------------------

// peakObserver recomputes the in-flight high-water mark the slow way — from
// the event stream itself — to cross-check the engines' O(1) counters.
type peakObserver struct {
	cur, peak int
}

func (o *peakObserver) OnSend(graph.EdgeID, protocol.Message) {
	o.cur++
	if o.cur > o.peak {
		o.peak = o.cur
	}
}

func (o *peakObserver) OnDeliver(int, graph.EdgeID, protocol.Message) { o.cur-- }

// TestPeakInFlightMatchesEventStream asserts the equivalence the O(1)
// counter replaced queue-walking with: on the deterministic engines, the
// running-counter peak must equal the peak recomputed from the full
// send/deliver event stream, across schedulers and graph shapes.
func TestPeakInFlightMatchesEventStream(t *testing.T) {
	graphs := []*graph.G{
		graph.KaryGroundedTree(2, 6),
		graph.RandomGroundedTree(400, 0.3, 5),
		graph.Chain(9),
	}
	for _, g := range graphs {
		need := g.InDegree(g.Terminal())
		for _, name := range SchedulerNames() {
			sched, err := NewScheduler(name)
			if err != nil {
				t.Fatal(err)
			}
			obs := &peakObserver{}
			r, err := Run(g, floodProto{need: need}, Options{Scheduler: sched, Seed: 11, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			if r.Metrics.PeakInFlight != obs.peak {
				t.Errorf("%s/%s: counter peak %d, event-stream peak %d",
					g.Name(), name, r.Metrics.PeakInFlight, obs.peak)
			}
			if r.Metrics.PeakInFlight <= 0 {
				t.Errorf("%s/%s: peak %d, want positive", g.Name(), name, r.Metrics.PeakInFlight)
			}
		}
		// Synchronous engine: same equivalence, one fixed schedule.
		obs := &peakObserver{}
		r, err := Synchronous().Run(g, floodProto{need: need}, Options{Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.PeakInFlight != obs.peak {
			t.Errorf("%s/sync: counter peak %d, event-stream peak %d",
				g.Name(), r.Metrics.PeakInFlight, obs.peak)
		}
	}
}
