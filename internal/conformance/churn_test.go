package conformance

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// diamondGraph builds s=0 -> 1 -> {2,3} -> 4 -> t=5: vertex 4 receives two
// deliveries, so crash-and-recover plans on it are actually exercised — the
// first delivery can be consumed by the crash window and the second
// processed after recovery, on every schedule.
func diamondGraph() *graph.G {
	b := graph.NewBuilder(6).SetName("diamond")
	b.SetRoot(0).SetTerminal(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2).AddEdge(1, 3)
	b.AddEdge(2, 4).AddEdge(3, 4)
	b.AddEdge(4, 5)
	return b.MustBuild()
}

// sortedChurnKinds projects a churn report onto its schedule-independent
// part: the (kind, vertex, edge, at) tuples, ignoring the clock (which is a
// linearization on the wild engines).
func sortedChurnKinds(rep *sim.ChurnReport) []sim.ChurnEvent {
	if rep == nil {
		return nil
	}
	evs := make([]sim.ChurnEvent, len(rep.Events))
	for i, e := range rep.Events {
		e.Clock = 0
		evs[i] = e
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Vertex != b.Vertex {
			return a.Vertex < b.Vertex
		}
		if a.Edge != b.Edge {
			return a.Edge < b.Edge
		}
		return a.At < b.At
	})
	return evs
}

// TestCrossEngineChurnConformance extends the fault-conformance contract to
// dynamic plans: every engine must apply churn terms (recovery windows, edge
// cut/join, loss steps) identically. On a line each edge carries exactly one
// message, so the plans below have exact engine-independent outcomes; the
// churn report's event set (ignoring the clock) must also agree with the
// sequential reference everywhere.
func TestCrossEngineChurnConformance(t *testing.T) {
	g := graph.Line(5) // s=0 -> 1 -> 2 -> 3 -> 4 -> 5 -> t=6
	rootEdge := g.OutEdge(g.Root(), 0)

	plans := []struct {
		name    string
		faults  func() *sim.Faults
		dropped int
		visited int // exact number of visited non-root vertices
	}{
		// The root edge was cut before the run began: sigma0 is dropped.
		{"cut-root", func() *sim.Faults {
			return &sim.Faults{CutAfter: map[graph.EdgeID]int{rootEdge.ID: 0}}
		}, 1, 0},
		// The root edge joins only after its first send: too late for the
		// one message it would ever carry.
		{"join-late", func() *sim.Faults {
			return &sim.Faults{JoinAfter: map[graph.EdgeID]int{rootEdge.ID: 1}}
		}, 1, 0},
		// Vertex 3 crashes immediately and would recover after delivery 1 —
		// but its only delivery is consumed by the crash window, so recovery
		// is never observable and the line stays cut.
		{"recover-too-late", func() *sim.Faults {
			return &sim.Faults{
				CrashAfter:   map[graph.VertexID]int{3: 0},
				RecoverAfter: map[graph.VertexID]int{3: 1},
			}
		}, 1, 2},
		// An adversarial loss schedule that goes total from send 0 on.
		{"lossat-total", func() *sim.Faults {
			return &sim.Faults{LossSteps: []sim.LossStep{{AfterSend: 0, Rate: 1}}}
		}, 1, 0},
	}

	for _, plan := range plans {
		ref, err := sim.Sequential().Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{Faults: plan.faults()})
		if err != nil {
			t.Fatal(err)
		}
		refEvents := sortedChurnKinds(ref.Churn)
		for _, eng := range faultEngines(t) {
			t.Run(plan.name+"/"+eng.Name(), func(t *testing.T) {
				r, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{Faults: plan.faults()})
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict != sim.Quiescent {
					t.Errorf("verdict %s, want quiescent — the plan cuts the terminal off", r.Verdict)
				}
				if r.Dropped != plan.dropped {
					t.Errorf("Dropped = %d, want %d", r.Dropped, plan.dropped)
				}
				visited := 0
				for v, ok := range r.Visited {
					if graph.VertexID(v) != g.Root() && ok {
						visited++
					}
				}
				if visited != plan.visited {
					t.Errorf("%d non-root vertices visited, want %d (visited: %v)", visited, plan.visited, r.Visited)
				}
				if r.Churn == nil {
					t.Fatal("Result.Churn == nil: engine did not surface the churn report")
				}
				if got := sortedChurnKinds(r.Churn); !reflect.DeepEqual(got, refEvents) {
					t.Errorf("churn events %+v, sequential reference %+v", got, refEvents)
				}
			})
		}
	}

	// A churn plan whose triggers are never reached must report an empty
	// event list (events fire at first observable effect, never for merely
	// being configured) and leave the run untouched, on every engine.
	t.Run("unexercised", func(t *testing.T) {
		lastEdge := g.InEdge(g.Terminal(), 0)
		for _, eng := range faultEngines(t) {
			t.Run(eng.Name(), func(t *testing.T) {
				r, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{Faults: &sim.Faults{
					JoinAfter: map[graph.EdgeID]int{rootEdge.ID: 0}, // join at 0: no-op
					CutAfter:  map[graph.EdgeID]int{lastEdge.ID: 5}, // cut after send 5: the edge carries one
				}})
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict != sim.Terminated || !r.AllVisited() || r.Dropped != 0 {
					t.Errorf("unexercised plan disturbed the run: verdict %s allVisited %v dropped %d",
						r.Verdict, r.AllVisited(), r.Dropped)
				}
				if r.Churn == nil {
					t.Fatal("churn-tracked plan must surface a (possibly empty) report")
				}
				if len(r.Churn.Events) != 0 {
					t.Errorf("unexercised triggers fired events: %+v", r.Churn.Events)
				}
			})
		}
	})
}

// TestCrashRecoveryDeterminismMatrix is the resumption contract: a vertex
// that crashes and recovers resumes with its pre-crash state, and the run's
// observable outcome — verdict, dropped count, visited set, and the churn
// event set — is identical across the deterministic engines, for every
// scheduler and multiple seeds. seq and shard(1) execute the identical
// schedule, so their churn reports must match byte for byte, clocks
// included; shard(3) runs another schedule, so its report must match its
// own, run after run.
func TestCrashRecoveryDeterminismMatrix(t *testing.T) {
	g := diamondGraph()
	plan := func() *sim.Faults {
		return &sim.Faults{
			CrashAfter:   map[graph.VertexID]int{4: 0},
			RecoverAfter: map[graph.VertexID]int{4: 1},
		}
	}
	run := func(t *testing.T, eng sim.Engine, schedName string, seed int64) *sim.Result {
		t.Helper()
		sched, err := sim.NewScheduler(schedName)
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
			Scheduler: sched, Seed: seed, Faults: plan(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	for _, schedName := range sim.SchedulerNames() {
		for _, seed := range []int64{42, 123, 456} {
			t.Run(schedName, func(t *testing.T) {
				seq := run(t, sim.Sequential(), schedName, seed)
				// Vertex 4 consumes exactly one of its two deliveries and
				// processes the other with pre-crash (fresh) state: it and
				// the terminal are visited, one interval half is lost, so
				// the run is quiescent with exactly one drop.
				if seq.Verdict != sim.Quiescent || seq.Dropped != 1 || !seq.Visited[4] || !seq.Visited[5] {
					t.Fatalf("sequential reference: verdict %s dropped %d visited %v",
						seq.Verdict, seq.Dropped, seq.Visited)
				}
				if len(seq.Churn.Events) != 2 {
					t.Fatalf("churn events %+v, want crash+recover", seq.Churn.Events)
				}

				for name, eng := range map[string]sim.Engine{
					"sync":     sim.Synchronous(),
					"shard(1)": shard.Engine(1),
					"shard(3)": shard.Engine(3),
				} {
					r := run(t, eng, schedName, seed)
					if r.Verdict != seq.Verdict || r.Dropped != seq.Dropped {
						t.Errorf("%s: verdict %s dropped %d, sequential %s %d",
							name, r.Verdict, r.Dropped, seq.Verdict, seq.Dropped)
					}
					if !reflect.DeepEqual(r.Visited, seq.Visited) {
						t.Errorf("%s: visited %v, sequential %v", name, r.Visited, seq.Visited)
					}
					if !reflect.DeepEqual(sortedChurnKinds(r.Churn), sortedChurnKinds(seq.Churn)) {
						t.Errorf("%s: churn events %+v, sequential %+v", name, r.Churn, seq.Churn)
					}
				}

				// seq and shard(1) execute the identical schedule: clocks
				// and event order must agree exactly, run after run.
				sh1 := run(t, shard.Engine(1), schedName, seed)
				if !reflect.DeepEqual(sh1.Churn, seq.Churn) {
					t.Errorf("shard(1) churn %+v, sequential %+v", sh1.Churn, seq.Churn)
				}
				again := run(t, sim.Sequential(), schedName, seed)
				if !reflect.DeepEqual(again.Churn, seq.Churn) {
					t.Error("sequential churn report not reproducible across runs")
				}
				sh3, sh3again := run(t, shard.Engine(3), schedName, seed), run(t, shard.Engine(3), schedName, seed)
				if !reflect.DeepEqual(sh3.Churn, sh3again.Churn) {
					t.Errorf("shard(3) churn %+v, then %+v", sh3.Churn, sh3again.Churn)
				}
			})
		}
	}
}

// TestChurnTimelineDeterminism: the telemetry determinism contract holds
// with a churn plan armed — seq and shard(1) must still render byte-identical
// Timeline JSON (the crash/recover counters ride the same deterministic
// schedule).
func TestChurnTimelineDeterminism(t *testing.T) {
	g := diamondGraph()
	for _, schedName := range sim.SchedulerNames() {
		t.Run(schedName, func(t *testing.T) {
			run := func(eng sim.Engine) []byte {
				sched, err := sim.NewScheduler(schedName)
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(2)
				if _, err := eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
					Scheduler: sched, Seed: 7,
					Faults: &sim.Faults{
						CrashAfter:   map[graph.VertexID]int{4: 0},
						RecoverAfter: map[graph.VertexID]int{4: 1},
					},
					Obs: rec,
				}); err != nil {
					t.Fatal(err)
				}
				data, err := rec.Timeline().JSON()
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			seq := run(sim.Sequential())
			sh := run(shard.Engine(1))
			if string(seq) != string(sh) {
				t.Errorf("churned timelines differ:\n--- seq ---\n%s\n--- shard(1) ---\n%s", seq, sh)
			}
		})
	}
}

// TestShardChurnClocksDeterministic: the sharded engine stamps churn events
// with the deliveries before the superstep plus the delivering shard's
// own, so its churn report is a pure function of the run's configuration
// however the shards' threads interleave. Repeated shard(3) runs must
// report one churn report (each run's drains race differently), and
// shard(1) must still report the sequential engine's byte for byte. The
// plans cover crash, recover and cut events, fired on the delivery and on
// the send side, and loss steps, which shards reach concurrently.
func TestShardChurnClocksDeterministic(t *testing.T) {
	cells := []struct{ spec, plan, sched string }{
		{"layered:layers=4,width=3,seed=3", "crash=2:1,recover=2:4,cut=1:2", "greedy"},
		{"torus:w=5,h=5", "crash=8:2,recover=8:5,cut=20:1,join=30:1,lossat=2:50,lossat=4:100,seed=5", "random"},
		{"randnet:n=30,extra=30,seed=2", "lossat=1:30,lossat=3:60,seed=4,crash=10:1,recover=10:3", "lifo"},
	}
	for _, c := range cells {
		g, err := scenario.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		faults, _, err := scenario.CompileSpec(c.plan, g)
		if err != nil {
			t.Fatal(err)
		}
		run := func(eng sim.Engine) *sim.Result {
			t.Helper()
			sched, err := sim.NewScheduler(c.sched)
			if err != nil {
				t.Fatal(err)
			}
			r, err := eng.Run(g, core.NewGeneralBroadcast(nil), sim.Options{Scheduler: sched, Seed: 1, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		name := c.spec + " " + c.plan
		seq, sh1 := run(sim.Sequential()), run(shard.Engine(1))
		if !reflect.DeepEqual(sh1.Churn, seq.Churn) {
			t.Errorf("%s: shard(1) churn %+v, sequential %+v", name, sh1.Churn, seq.Churn)
		}
		if seq.Churn == nil || len(seq.Churn.Events) == 0 {
			t.Fatalf("%s: no churn event fired", name)
		}
		first := run(shard.Engine(3))
		for i := 1; i < 20; i++ {
			if r := run(shard.Engine(3)); !reflect.DeepEqual(r.Churn, first.Churn) {
				t.Fatalf("%s: shard(3) run %d churn %+v, run 0 %+v", name, i, r.Churn, first.Churn)
			}
		}
		if first.Churn.Deliveries != int64(first.Steps) {
			t.Errorf("%s: shard(3) churn clock ends at %d, the run delivered %d", name, first.Churn.Deliveries, first.Steps)
		}
	}
}
