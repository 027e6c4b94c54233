package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/replay/fuzz"
	"repro/internal/scenario"
	"repro/internal/sim"
)

type protoCase struct {
	name string
	make func() protocol.Protocol
}

func protoCases() []protoCase {
	return []protoCase{
		{"treecast", func() protocol.Protocol { return core.NewTreeBroadcast([]byte("m"), core.RulePow2) }},
		{"generalcast", func() protocol.Protocol { return core.NewGeneralBroadcast([]byte("m")) }},
		{"labelcast", func() protocol.Protocol { return core.NewLabelAssign(nil) }},
		{"mapcast", func() protocol.Protocol { return core.NewMapExtract(nil) }},
	}
}

func graphFor(proto string) *graph.G {
	if proto == "treecast" {
		return graph.RandomGroundedTree(40, 0.3, 5)
	}
	return graph.RandomDigraph(24, 11, graph.RandomDigraphOpts{ExtraEdges: 30, TerminalFrac: 0.3})
}

// TestShardMatchesSequentialOutcome: across protocols, shard counts and
// schedulers, the sharded engine must reproduce the sequential engine's
// schedule-independent outcome (verdict, visited set, labeled-vertex set,
// topology isomorphism) — the same oracle the conformance matrix uses.
func TestShardMatchesSequentialOutcome(t *testing.T) {
	for _, pc := range protoCases() {
		g := graphFor(pc.name)
		ref, err := sim.Sequential().Run(g, pc.make(), sim.Options{})
		if err != nil {
			t.Fatalf("%s: reference: %v", pc.name, err)
		}
		want, problems := fuzz.Compute(g, ref)
		if len(problems) > 0 {
			t.Fatalf("%s: reference problems: %v", pc.name, problems)
		}
		for _, shards := range []int{1, 2, 4, 9} {
			for _, sched := range []string{"fifo", "lifo", "random", "greedy"} {
				name := fmt.Sprintf("%s/shards=%d/%s", pc.name, shards, sched)
				s, err := sim.NewScheduler(sched)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Engine(shards).Run(g, pc.make(), sim.Options{Scheduler: s, Seed: 3})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				got, problems := fuzz.Compute(g, r)
				for _, p := range problems {
					t.Errorf("%s: %s", name, p)
				}
				if got != want {
					t.Errorf("%s: outcome diverges\n got: %s\nwant: %s", name, got, want)
				}
			}
		}
	}
}

// resultFingerprint flattens everything deterministic about a run —
// including schedule-dependent metrics — for exact comparison.
func resultFingerprint(r *sim.Result) string {
	return fmt.Sprintf("v=%v steps=%d msgs=%d bits=%d maxmsg=%d peak=%d visited=%v perEdge=%v alpha=%v first=%v",
		r.Verdict, r.Steps, r.Metrics.Messages, r.Metrics.TotalBits,
		r.Metrics.MaxMsgBits, r.Metrics.PeakInFlight, r.Visited, r.Metrics.PerEdgeMsgs,
		len(r.Metrics.Alphabet), len(r.Metrics.FirstSymbol))
}

// TestShardDeterministic: the sharded engine is a pure function of (graph,
// protocol, scheduler, seed, shard count) — repeated runs agree on every
// field, including metrics, in spite of parallel drains.
func TestShardDeterministic(t *testing.T) {
	g := graph.RandomDigraph(30, 7, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.3})
	for _, sched := range sim.SchedulerNames() {
		var prints []string
		var alphas []map[string]int
		for i := 0; i < 3; i++ {
			s, err := sim.NewScheduler(sched)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Engine(4).Run(g, core.NewLabelAssign(nil), sim.Options{
				Scheduler: s, Seed: 11, TrackAlphabet: true, TrackFirstSymbol: true,
			})
			if err != nil {
				t.Fatalf("%s run %d: %v", sched, i, err)
			}
			prints = append(prints, resultFingerprint(r))
			alphas = append(alphas, r.Metrics.Alphabet)
		}
		if prints[0] != prints[1] || prints[1] != prints[2] {
			t.Errorf("%s: nondeterministic results:\n%s\n%s\n%s", sched, prints[0], prints[1], prints[2])
		}
		if !reflect.DeepEqual(alphas[0], alphas[1]) || !reflect.DeepEqual(alphas[1], alphas[2]) {
			t.Errorf("%s: nondeterministic alphabet", sched)
		}
	}
}

// TestShardAlphabetMatchesSequential: for treecast the transmitted alphabet
// Sigma_G is schedule-independent (every edge carries the flow value its
// subtree dictates), so the sharded engine's merged per-shard intern tables
// must reproduce the sequential engine's key set and |Sigma_G| exactly. The
// general-graph protocols transmit schedule-dependent intermediate symbols
// (their alphabets legitimately differ across schedules, sequential
// adversaries included), so for those the guarantee is determinism —
// asserted by TestShardDeterministic — plus the byte-identical replay of a
// recorded shard schedule in internal/replay's wild-capture tests.
func TestShardAlphabetMatchesSequential(t *testing.T) {
	pc := protoCases()[0] // treecast
	g := graphFor(pc.name)
	ref, err := sim.Sequential().Run(g, pc.make(), sim.Options{TrackAlphabet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		r, err := Engine(shards).Run(g, pc.make(), sim.Options{TrackAlphabet: true, Seed: 5})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got, want := keys(r.Metrics.Alphabet), keys(ref.Metrics.Alphabet); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: treecast alphabet diverges from sequential\n got: %v\nwant: %v", shards, got, want)
		}
		if r.Metrics.AlphabetSize() != ref.Metrics.AlphabetSize() {
			t.Errorf("shards=%d: |Sigma_G| %d, sequential %d", shards, r.Metrics.AlphabetSize(), ref.Metrics.AlphabetSize())
		}
	}
}

func keys(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// TestShardBatchDrainEquivalence pins, for every scheduler, general
// broadcast and mapping at one and three shards: each edge's delivery
// sequence and the full result fingerprint. The pins are the schedules of
// the engine that still batch-drained forced choices within each shard,
// where batched and unbatched runs were equal, so the test keeps its name.
func TestShardBatchDrainEquivalence(t *testing.T) {
	g := graph.RandomDigraph(30, 7, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.3})
	protos := []protoCase{protoCases()[1], protoCases()[3]} // generalcast, mapcast
	for _, pc := range protos {
		for _, shards := range []int{1, 3} {
			for _, sched := range sim.SchedulerNames() {
				name := fmt.Sprintf("%s/shards=%d/%s", pc.name, shards, sched)
				s, err := sim.NewScheduler(sched)
				if err != nil {
					t.Fatal(err)
				}
				log := &shardScheduleLog{}
				r, err := Engine(shards).Run(g, pc.make(), sim.Options{Scheduler: s, Seed: 2, Observer: log})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := log.perEdgePin(r), shardSchedulePins[name]; got != want {
					t.Errorf("%s: schedule moved:\n got  %s\n want %s", name, got, want)
				}
			}
		}
	}
}

// TestShardStepLimit: exceeding the budget surfaces ErrStepLimit, exactly
// like the sequential engine.
func TestShardStepLimit(t *testing.T) {
	g := graph.RandomDigraph(20, 3, graph.RandomDigraphOpts{ExtraEdges: 25, TerminalFrac: 0.3})
	_, err := Engine(3).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{MaxSteps: 5, Seed: 1})
	if !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// deliveryCounter counts OnDeliver events — the ground truth Result.Steps
// must match on every exit path.
type deliveryCounter struct{ n int }

func (c *deliveryCounter) OnSend(graph.EdgeID, protocol.Message) {}
func (c *deliveryCounter) OnDeliver(int, graph.EdgeID, protocol.Message) {
	c.n++
}

// TestShardStepLimitSweep sweeps MaxSteps across the whole range of a run,
// at 1 and 3 shards: every configuration
// must return (a budget-exhausted drain that forgets its step count would
// loop forever re-granting the same budget — a past bug), Result.Steps must
// equal the observed delivery count exactly, and the overshoot past
// MaxSteps is bounded by the shard count.
func TestShardStepLimitSweep(t *testing.T) {
	g := graph.Ring(6)
	full, err := Engine(1).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		for m := 1; m <= full.Steps+2; m++ {
			obs := &deliveryCounter{}
			r, err := Engine(shards).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
				MaxSteps: m, Observer: obs,
			})
			name := fmt.Sprintf("shards=%d MaxSteps=%d", shards, m)
			if err != nil && !errors.Is(err, sim.ErrStepLimit) {
				t.Fatalf("%s: %v", name, err)
			}
			if r.Steps != obs.n {
				t.Fatalf("%s: Result.Steps=%d but %d deliveries observed", name, r.Steps, obs.n)
			}
			if r.Steps > m+shards-1 {
				t.Fatalf("%s: %d deliveries, budget overshoot beyond K-1", name, r.Steps)
			}
			if err == nil && r.Verdict == 0 {
				t.Fatalf("%s: no verdict and no error", name)
			}
		}
	}
}

// TestShardDropFirstSafety: dropped messages may cost liveness but never
// safety — the terminal must not declare termination, and the run must
// still be deterministic.
func TestShardDropFirstSafety(t *testing.T) {
	g := graph.Line(6)
	// Drop the first message on the root's only out-edge: nothing can ever
	// reach the rest of the line.
	rootEdge := g.OutEdge(g.Root(), 0)
	r, err := Engine(2).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
		Faults: &sim.Faults{DropFirst: map[graph.EdgeID]int{rootEdge.ID: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s with the injection dropped, want quiescent", r.Verdict)
	}
	if r.Steps != 0 {
		t.Fatalf("%d deliveries happened after the only injection was dropped", r.Steps)
	}
}

// TestShardArgumentErrors pins the error paths: invalid shard count and a
// scheduler that cannot be re-instantiated per shard.
func TestShardArgumentErrors(t *testing.T) {
	g := graph.Line(3)
	if _, err := Engine(0).Run(g, core.NewGeneralBroadcast(nil), sim.Options{}); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if _, err := Engine(2).Run(g, core.NewGeneralBroadcast(nil), sim.Options{Scheduler: fakeSched{}}); err == nil {
		t.Fatal("non-registry scheduler accepted")
	}
	// More shards than vertices is fine: the partitioner caps K at |V|.
	if _, err := Engine(64).Run(g, core.NewGeneralBroadcast(nil), sim.Options{}); err != nil {
		t.Fatalf("shards > |V|: %v", err)
	}
}

type fakeSched struct{}

func (fakeSched) Name() string           { return "no-such-adversary" }
func (fakeSched) Reset(sim.SchedContext) {}
func (fakeSched) Push(sim.PendingEdge)   {}
func (fakeSched) Pop() graph.EdgeID      { return 0 }
func (fakeSched) Len() int               { return 0 }

// scalefreeGraph builds the workload the ghost/steal features exist for: a
// preferential-attachment digraph whose hubs concentrate cut-edge fan-in
// (ghost territory) and whose skewed degree distribution unbalances the
// per-shard pending sets (steal territory).
func scalefreeGraph(t *testing.T, n int) *graph.G {
	t.Helper()
	g, err := scenario.Build("scalefree", map[string]int{"n": n, "m": 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardStealEquivalence: barrier-time work donation must not change any
// schedule-independent outcome — steal-on and steal-off runs of the same
// configuration agree on the conformance oracle — and must actually engage
// on a skewed workload (otherwise the equivalence is vacuous). The steal-on
// run is additionally re-run to pin determinism with donations happening.
func TestShardStealEquivalence(t *testing.T) {
	g := scalefreeGraph(t, 200)
	for _, shards := range []int{2, 4} {
		for _, sched := range []string{"fifo", "random", "rr-vertex", "greedy"} {
			name := fmt.Sprintf("shards=%d/%s", shards, sched)
			runOnce := func(noSteal bool) *sim.Result {
				s, err := sim.NewScheduler(sched)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Engine(shards).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
					Scheduler: s, Seed: 3, NoWorkSteal: noSteal,
				})
				if err != nil {
					t.Fatalf("%s noSteal=%v: %v", name, noSteal, err)
				}
				return r
			}
			on, off := runOnce(false), runOnce(true)
			if on.Steals == 0 || on.StolenEdges == 0 {
				t.Errorf("%s: stealing never engaged (steals=%d stolen=%d)", name, on.Steals, on.StolenEdges)
			}
			if off.Steals != 0 || off.StolenEdges != 0 {
				t.Errorf("%s: NoWorkSteal run reports steals=%d stolen=%d", name, off.Steals, off.StolenEdges)
			}
			gotOn, problems := fuzz.Compute(g, on)
			for _, p := range problems {
				t.Errorf("%s steal-on: %s", name, p)
			}
			gotOff, problems := fuzz.Compute(g, off)
			for _, p := range problems {
				t.Errorf("%s steal-off: %s", name, p)
			}
			if gotOn != gotOff {
				t.Errorf("%s: steal-on outcome diverges from steal-off\n got: %s\nwant: %s", name, gotOn, gotOff)
			}
			if again := runOnce(false); resultFingerprint(on) != resultFingerprint(again) {
				t.Errorf("%s: steal-on run nondeterministic\n got: %s\nwant: %s",
					name, resultFingerprint(again), resultFingerprint(on))
			}
		}
	}
}

// TestShardGhostEquivalence: ghost routing must not change any
// schedule-independent outcome — ghost-on and ghost-off runs agree on the
// conformance oracle — and the partition must actually mark ghost edges on
// the scale-free workload so the equivalence is exercised for real.
func TestShardGhostEquivalence(t *testing.T) {
	g := scalefreeGraph(t, 200)
	for _, shards := range []int{2, 4} {
		if p := graph.PartitionGraph(g, shards, 3); p.GhostEdges == 0 {
			t.Fatalf("shards=%d: scale-free partition has no ghost edges — workload too tame", shards)
		}
		for _, sched := range []string{"fifo", "lifo", "greedy"} {
			name := fmt.Sprintf("shards=%d/%s", shards, sched)
			var outs [2]fuzz.Outcome
			for i, noGhosts := range []bool{false, true} {
				s, err := sim.NewScheduler(sched)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Engine(shards).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
					Scheduler: s, Seed: 3, NoGhosts: noGhosts,
				})
				if err != nil {
					t.Fatalf("%s noGhosts=%v: %v", name, noGhosts, err)
				}
				o, problems := fuzz.Compute(g, r)
				for _, p := range problems {
					t.Errorf("%s noGhosts=%v: %s", name, noGhosts, p)
				}
				outs[i] = o
			}
			if outs[0] != outs[1] {
				t.Errorf("%s: ghost-on outcome diverges from ghost-off\n got: %s\nwant: %s", name, outs[0], outs[1])
			}
		}
	}
}

// barrierPeakObserver reconstructs the barrier-sampled global peak from the
// event stream alone: in-flight is sends minus deliveries (exact on a
// fault-free run), and OnBarrier marks the instants the engine samples.
type barrierPeakObserver struct {
	sends, delivers int
	barriers        int
	peak            int
}

func (o *barrierPeakObserver) OnSend(graph.EdgeID, protocol.Message)         { o.sends++ }
func (o *barrierPeakObserver) OnDeliver(int, graph.EdgeID, protocol.Message) { o.delivers++ }
func (o *barrierPeakObserver) OnBarrier(int) {
	o.barriers++
	if f := o.sends - o.delivers; f > o.peak {
		o.peak = f
	}
}

// TestShardPeakInFlightBarrierEquivalence: Metrics.PeakInFlight must equal
// the peak an event-stream observer reconstructs at the OnBarrier marks —
// with ghosts and stealing enabled, on a workload where both engage. This
// extends the sequential O(1)-counter equivalence test
// (TestPeakInFlightMatchesEventStream) to the sharded engine: donation moves
// queued messages between shards, but the global sends-minus-deliveries
// count at a barrier is invariant under ownership, so the sample stays a
// pure function of the schedule.
func TestShardPeakInFlightBarrierEquivalence(t *testing.T) {
	g := scalefreeGraph(t, 200)
	for _, shards := range []int{1, 2, 4} {
		for _, sched := range []string{"fifo", "random", "greedy"} {
			name := fmt.Sprintf("shards=%d/%s", shards, sched)
			s, err := sim.NewScheduler(sched)
			if err != nil {
				t.Fatal(err)
			}
			ob := &barrierPeakObserver{}
			r, err := Engine(shards).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
				Scheduler: s, Seed: 3, Observer: ob,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ob.barriers == 0 {
				t.Fatalf("%s: no OnBarrier events reached the observer", name)
			}
			if r.Metrics.PeakInFlight != ob.peak {
				t.Errorf("%s: PeakInFlight=%d, event-stream barrier peak=%d (barriers=%d steals=%d)",
					name, r.Metrics.PeakInFlight, ob.peak, ob.barriers, r.Steals)
			}
		}
	}
}

// TestShardPartitionMemoized: one engine value reuses the partition for a
// repeated (graph, shards, seed) triple and distinguishes different seeds —
// the amortization benchmark repeats and server rebuilds rely on.
func TestShardPartitionMemoized(t *testing.T) {
	g := scalefreeGraph(t, 200)
	eng := Engine(4).(*engine)
	p1 := eng.partition(g, 4, 3)
	p2 := eng.partition(g, 4, 3)
	if p1 != p2 {
		t.Error("same (graph, k, seed) did not hit the partition memo")
	}
	if p3 := eng.partition(g, 4, 4); p3 == p1 {
		t.Error("different seed returned the memoized partition")
	}
	if fresh := Engine(4).(*engine).partition(g, 4, 3); fresh == p1 {
		t.Error("distinct engines share partition storage")
	}
}

// shardScheduleLog records the linearized delivery sequence the engine's
// SerializedObserver emits. Only a one-shard run fixes that order; at any
// shard count each edge's own sequence is fixed.
type shardScheduleLog struct {
	edges []graph.EdgeID
	keys  []string
}

func (l *shardScheduleLog) OnSend(graph.EdgeID, protocol.Message) {}
func (l *shardScheduleLog) OnDeliver(_ int, e graph.EdgeID, msg protocol.Message) {
	l.edges = append(l.edges, e)
	l.keys = append(l.keys, msg.Key())
}

// pin renders a one-shard run as the FNV-1a digest of its delivery log with
// its steps, messages and drops.
func (l *shardScheduleLog) pin(r *sim.Result) string {
	h := fnv.New64a()
	for i := range l.edges {
		fmt.Fprintf(h, "%d %s\n", l.edges[i], l.keys[i])
	}
	return fmt.Sprintf("%016x steps=%d msgs=%d dropped=%d", h.Sum64(), r.Steps, r.Metrics.Messages, r.Dropped)
}

// perEdgePin is pin for any shard count: the digest covers each edge's
// delivery sequence, edges in ID order, and the result fingerprint.
func (l *shardScheduleLog) perEdgePin(r *sim.Result) string {
	perEdge := map[graph.EdgeID][]string{}
	for i, e := range l.edges {
		perEdge[e] = append(perEdge[e], l.keys[i])
	}
	edges := slices.Sorted(maps.Keys(perEdge))
	h := fnv.New64a()
	for _, e := range edges {
		fmt.Fprintf(h, "%d %s\n", e, strings.Join(perEdge[e], " "))
	}
	fmt.Fprintln(h, resultFingerprint(r))
	return fmt.Sprintf("%016x steps=%d msgs=%d dropped=%d", h.Sum64(), r.Steps, r.Metrics.Messages, r.Dropped)
}

// TestShardBatchDrainRespectsFaultPlan pins the one-shard delivery schedule
// of general broadcast on a chain under a first-message drop and under a
// crash (the batch-draining engine's schedules, like
// TestShardBatchDrainEquivalence's), and checks that four shards agree with
// one on every deterministic aggregate: steps, messages, drops, verdict and
// visited set.
func TestShardBatchDrainRespectsFaultPlan(t *testing.T) {
	g := graph.Chain(5)
	midEdge := g.OutEdge(graph.VertexID(2), 0)
	plans := []*sim.Faults{
		{DropFirst: map[graph.EdgeID]int{midEdge.ID: 1}},
		{CrashAfter: map[graph.VertexID]int{3: 0}},
	}
	for pi, plan := range plans {
		log := &shardScheduleLog{}
		ref, err := Engine(1).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
			Observer: log, Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := log.pin(ref), shardFaultPlanPins[pi]; got != want {
			t.Errorf("plan %d: one-shard schedule moved:\n got  %s\n want %s", pi, got, want)
		}
		if ref.Dropped == 0 {
			t.Fatalf("plan %d never engaged", pi)
		}

		r, err := Engine(4).Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if r.Steps != ref.Steps || r.Metrics.Messages != ref.Metrics.Messages ||
			r.Dropped != ref.Dropped || r.Verdict != ref.Verdict ||
			!reflect.DeepEqual(r.Visited, ref.Visited) {
			t.Fatalf("plan %d: four-shard aggregates diverge from one-shard: steps %d/%d msgs %d/%d dropped %d/%d verdict %s/%s",
				pi, r.Steps, ref.Steps, r.Metrics.Messages, ref.Metrics.Messages,
				r.Dropped, ref.Dropped, r.Verdict, ref.Verdict)
		}
	}
}

// shardSchedulePins (by protocol, shard count and scheduler) and shardFaultPlanPins (by plan) are the
// pins of the two tests above.
var shardSchedulePins = map[string]string{
	"generalcast/shards=1/fifo":           "416c7ccc5de4f51c steps=285 msgs=339 dropped=0",
	"generalcast/shards=1/greedy":         "afea85ac1ab94195 steps=301 msgs=370 dropped=0",
	"generalcast/shards=1/latency":        "6c244f6485d21cee steps=555 msgs=555 dropped=0",
	"generalcast/shards=1/latency-pareto": "6d68f968cb954285 steps=352 msgs=366 dropped=0",
	"generalcast/shards=1/lifo":           "04760772a3a94444 steps=1266 msgs=1281 dropped=0",
	"generalcast/shards=1/random":         "5145733dfb48cfb7 steps=468 msgs=475 dropped=0",
	"generalcast/shards=1/rr-vertex":      "c74752bb19ab30b7 steps=394 msgs=394 dropped=0",
	"generalcast/shards=1/starve-oldest":  "04760772a3a94444 steps=1266 msgs=1281 dropped=0",
	"generalcast/shards=3/fifo":           "ae1f0913b86fcdf9 steps=361 msgs=370 dropped=0",
	"generalcast/shards=3/greedy":         "344bf0dcebe78b1c steps=422 msgs=433 dropped=0",
	"generalcast/shards=3/latency":        "7e896d2d0ebb942c steps=411 msgs=426 dropped=0",
	"generalcast/shards=3/latency-pareto": "3a9de2ce479a6655 steps=511 msgs=527 dropped=0",
	"generalcast/shards=3/lifo":           "6538d79e6b18f538 steps=470 msgs=475 dropped=0",
	"generalcast/shards=3/random":         "bbf1dbd1b2ab6324 steps=352 msgs=366 dropped=0",
	"generalcast/shards=3/rr-vertex":      "ac8b5e83dcc86e8d steps=361 msgs=370 dropped=0",
	"generalcast/shards=3/starve-oldest":  "4258dbab7a0d20ac steps=460 msgs=474 dropped=0",
	"mapcast/shards=1/fifo":               "2abfea7046630127 steps=881 msgs=1338 dropped=0",
	"mapcast/shards=1/greedy":             "2832d61ffa7b8e96 steps=571 msgs=1025 dropped=0",
	"mapcast/shards=1/latency":            "6f68aca6f52793ef steps=1584 msgs=1952 dropped=0",
	"mapcast/shards=1/latency-pareto":     "2d988766dfe85253 steps=1200 msgs=1638 dropped=0",
	"mapcast/shards=1/lifo":               "86d8a9da36fa4b07 steps=2600 msgs=2635 dropped=0",
	"mapcast/shards=1/random":             "3996b8144c6df7f0 steps=1138 msgs=1579 dropped=0",
	"mapcast/shards=1/rr-vertex":          "9827ededa90654ba steps=2641 msgs=2883 dropped=0",
	"mapcast/shards=1/starve-oldest":      "86d8a9da36fa4b07 steps=2600 msgs=2635 dropped=0",
	"mapcast/shards=3/fifo":               "48b03841de3389db steps=1879 msgs=2235 dropped=0",
	"mapcast/shards=3/greedy":             "3e4e80f7ed71cc70 steps=1805 msgs=2162 dropped=0",
	"mapcast/shards=3/latency":            "a6f305f08b180a59 steps=2175 msgs=2392 dropped=0",
	"mapcast/shards=3/latency-pareto":     "84adbb9b702683ec steps=1891 msgs=2219 dropped=0",
	"mapcast/shards=3/lifo":               "1fb225ca8e5227c0 steps=1340 msgs=1670 dropped=0",
	"mapcast/shards=3/random":             "d1536bdf583aaebe steps=1855 msgs=2207 dropped=0",
	"mapcast/shards=3/rr-vertex":          "c98753583cc2f8bd steps=1489 msgs=2153 dropped=0",
	"mapcast/shards=3/starve-oldest":      "85c22ccef20c9757 steps=1414 msgs=1695 dropped=0",
}

var shardFaultPlanPins = []string{
	"8b4af18fdda9902c steps=4 msgs=5 dropped=1",
	"8ab3fcd20e693523 steps=5 msgs=5 dropped=1",
}
