package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netrun"
	"repro/internal/par"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/replay/fuzz"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// protoCase is one protocol under test, with a factory so every run gets
// fresh node state.
type protoCase struct {
	name string
	make func() protocol.Protocol
}

var protoCases = []protoCase{
	{"treecast", func() protocol.Protocol { return core.NewTreeBroadcast([]byte("m"), core.RulePow2) }},
	{"dagcast", func() protocol.Protocol { return core.NewDAGBroadcast([]byte("m")) }},
	{"generalcast", func() protocol.Protocol { return core.NewGeneralBroadcast([]byte("m")) }},
	{"labelcast", func() protocol.Protocol { return core.NewLabelAssign(nil) }},
	{"mapcast", func() protocol.Protocol { return core.NewMapExtract(nil) }},
}

// graphsFor returns the graph-family instances a protocol is applicable to,
// spanning every generator in internal/graph/gen.go. Sizes are small: the
// matrix below multiplies them by engines × schedulers.
func graphsFor(proto string) []*graph.G {
	trees := []*graph.G{
		graph.Line(4),
		graph.Chain(4),
		graph.KaryGroundedTree(2, 2),
		graph.RandomGroundedTree(9, 0.3, 5),
	}
	dags := append([]*graph.G{
		graph.RandomDAG(8, 5, 3),
	}, trees...)
	general := append([]*graph.G{
		graph.Ring(5),
		graph.RandomDigraph(8, 11, graph.RandomDigraphOpts{ExtraEdges: 8, TerminalFrac: 0.3}),
		graph.LayeredDigraph(3, 3, 7),
	}, dags...)
	switch proto {
	case "treecast":
		return trees
	case "dagcast":
		return dags
	default:
		return general
	}
}

// outcomeOf computes the schedule-independent footprint (fuzz.Outcome —
// the oracle this suite shares with the schedule fuzzer) and reports every
// invariant violation as a test error.
func outcomeOf(t *testing.T, g *graph.G, r *sim.Result) fuzz.Outcome {
	t.Helper()
	o, problems := fuzz.Compute(g, r)
	for _, p := range problems {
		t.Error(p)
	}
	return o
}

// saveMinimalRepro is the on-divergence hook: when a sequential-engine cell
// of the matrix diverges from the reference, delta-debug the recorded
// schedule down to a minimal failing prefix and save it as a self-contained
// trace, turning the flaky matrix failure into a committed regression case.
// Enabled by setting ANON_REPRO_DIR (CI points it at an artifact directory);
// replay a saved trace with: go run ./cmd/anonshrink replay -in <file>.
//
// The shrink oracle demands that a candidate reproduce the *observed*
// diverging outcome, not merely differ from the reference — "differs from
// the reference" is trivially true of truncated schedules (an empty replay
// is quiescent with nothing visited), which would shrink every divergence
// to a useless empty trace.
//
// faultSpec is the canonical fault/churn plan the diverging run executed
// under ("" = fault-free): it is pinned into the trace header, so the shrink
// search re-arms it in every oracle run and the saved witness replays under
// the same plan — a divergence found under churn stays reproducible.
func saveMinimalRepro(t *testing.T, g *graph.G, makeProto func() protocol.Protocol,
	rec *replay.Recorder, schedName string, seed int64, faultSpec string, divergent *sim.Result, runErr error) {
	t.Helper()
	dir := os.Getenv("ANON_REPRO_DIR")
	if dir == "" {
		return
	}
	tr := rec.Trace(g, makeProto().Name(), schedName, seed)
	tr.Faults = faultSpec
	var pred replay.Predicate
	if runErr != nil || divergent == nil {
		// The diverging run errored; minimize toward any erroring schedule.
		pred = func(r *sim.Result, err error) bool { return err != nil }
	} else {
		bad, badProblems := fuzz.Compute(g, divergent)
		pred = func(r *sim.Result, err error) bool {
			if err != nil || r == nil {
				return false
			}
			got, problems := fuzz.Compute(g, r)
			return got == bad && fmt.Sprint(problems) == fmt.Sprint(badProblems)
		}
	}
	res, err := replay.Shrink(g, makeProto, tr, pred)
	if err != nil {
		t.Logf("repro hook: shrink failed (%v); saving the full trace instead", err)
		res = &replay.ShrinkResult{Trace: tr, Before: len(tr.Deliveries()), After: len(tr.Deliveries())}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("repro hook: %v", err)
		return
	}
	sanitize := func(s string) string { return strings.NewReplacer("/", "-", " ", "-").Replace(s) }
	name := fmt.Sprintf("%s-%s-%s-seed%d.trace", sanitize(makeProto().Name()), sanitize(g.Name()), sanitize(schedName), seed)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, replay.Encode(res.Trace), 0o644); err != nil {
		t.Logf("repro hook: %v", err)
		return
	}
	t.Logf("repro hook: saved minimized trace (%d -> %d deliveries) to %s", res.Before, res.After, path)
}

// seqVariants returns one sequential-engine run configuration per scheduler.
func seqVariants(seed int64) []struct {
	name string
	opts sim.Options
} {
	var vs []struct {
		name string
		opts sim.Options
	}
	for _, name := range sim.SchedulerNames() {
		sched, err := sim.NewScheduler(name)
		if err != nil {
			panic(err)
		}
		vs = append(vs, struct {
			name string
			opts sim.Options
		}{"seq/" + name, sim.Options{Scheduler: sched, Seed: seed}})
	}
	return vs
}

// TestCrossEngineConformance is the differential matrix: protocol × graph
// family × (every scheduler of the sequential engine, the concurrent engine,
// the synchronous engine). All runs must agree on verdict, visited set
// completeness, label assignment, and extracted-topology isomorphism.
func TestCrossEngineConformance(t *testing.T) {
	for _, pc := range protoCases {
		for gi, g := range graphsFor(pc.name) {
			t.Run(fmt.Sprintf("%s/%s-%d", pc.name, g.Name(), gi), func(t *testing.T) {
				// Reference: sequential engine, default adversary.
				ref, err := sim.Sequential().Run(g, pc.make(), sim.Options{})
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				want := outcomeOf(t, g, ref)
				if want.Verdict == sim.Terminated && !want.AllVisited {
					t.Fatalf("reference terminated without full broadcast on %s", g)
				}
				if _, isMap := ref.Output.(*core.Topology); isMap && !want.TopoOK {
					t.Fatalf("reference extracted topology not isomorphic on %s", g)
				}

				check := func(name string, r *sim.Result, err error) bool {
					t.Helper()
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return true
					}
					got, problems := fuzz.Compute(g, r)
					for _, p := range problems {
						t.Errorf("%s: %s", name, p)
					}
					diverged := len(problems) > 0
					if got.Verdict != want.Verdict {
						t.Errorf("%s: verdict %s, reference %s", name, got.Verdict, want.Verdict)
						diverged = true
					}
					if got.AllVisited != want.AllVisited {
						t.Errorf("%s: allVisited %v, reference %v", name, got.AllVisited, want.AllVisited)
						diverged = true
					}
					if got.Labeled != want.Labeled {
						t.Errorf("%s: labeled-vertex set diverges\n got: %s\nwant: %s", name, got.Labeled, want.Labeled)
						diverged = true
					}
					if got.TopoOK != want.TopoOK {
						t.Errorf("%s: topology isomorphism %v, reference %v", name, got.TopoOK, want.TopoOK)
						diverged = true
					}
					return diverged
				}

				// Run every scheduler cell of the matrix through the bounded
				// worker pool: each cell owns its scheduler, recorder, and
				// fresh protocol state, writes only its own slot, and is
				// checked serially below in matrix order — identical results
				// and identical failure output, just wall-clock scaled by
				// cores. The shrink-on-divergence hook still fires per cell.
				variants := seqVariants(int64(gi)*37 + 1)
				type cell struct {
					r   *sim.Result
					err error
					rec *replay.Recorder
				}
				cells := make([]cell, len(variants))
				par.Map(0, len(variants), func(i int) {
					rec := replay.NewRecorder()
					opts := variants[i].opts
					opts.Observer = rec
					r, err := sim.Sequential().Run(g, pc.make(), opts)
					cells[i] = cell{r: r, err: err, rec: rec}
				})
				for i, v := range variants {
					if check(v.name, cells[i].r, cells[i].err) {
						saveMinimalRepro(t, g, pc.make, cells[i].rec,
							v.opts.Scheduler.Name(), v.opts.Seed, "", cells[i].r, cells[i].err)
					}
				}
				r, err := sim.Concurrent().Run(g, pc.make(), sim.Options{})
				check("concurrent", r, err)
				r, err = sim.Synchronous().Run(g, pc.make(), sim.Options{})
				check("sync", r, err)
			})
		}
	}
}

// TestReproHookSavesMinimalTrace drives the on-divergence hook directly,
// treating a real run as if the matrix had flagged it: the hook must write a
// decodable, truncated, minimized trace whose lenient replay reproduces the
// observed outcome exactly — the witness pins the divergence, not just "some
// schedule that differs from the reference".
func TestReproHookSavesMinimalTrace(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("ANON_REPRO_DIR", dir)

	g := graph.Ring(5)
	makeProto := func() protocol.Protocol { return core.NewLabelAssign(nil) }
	sched, err := sim.NewScheduler("random")
	if err != nil {
		t.Fatal(err)
	}
	rec := replay.NewRecorder()
	r, err := sim.Sequential().Run(g, makeProto(), sim.Options{Scheduler: sched, Seed: 3, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	observed, _ := fuzz.Compute(g, r)

	saveMinimalRepro(t, g, makeProto, rec, "random", 3, "", r, nil)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("hook wrote %d files, want 1", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := replay.Decode(data)
	if err != nil {
		t.Fatalf("saved repro does not decode: %v", err)
	}
	if !tr.Truncated {
		t.Error("saved repro is not marked truncated")
	}
	g2, err := tr.Graph()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := replay.Run(g2, makeProto(), tr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fuzz.Compute(g2, r2)
	if got != observed {
		t.Errorf("replayed repro does not reproduce the observed outcome\n got: %+v\nwant: %+v", got, observed)
	}
	// Reproducing a terminated labeled run takes real deliveries: the
	// witness must be non-empty and no longer than the original run.
	if n := len(tr.Deliveries()); n == 0 || n > r.Steps {
		t.Errorf("minimized trace has %d deliveries, original run had %d", n, r.Steps)
	}
}

// TestReproHookCarriesFaultPlan: a divergence flagged under a churn plan must
// save a witness that replays under the same plan — the spec lands in the
// trace header, survives the shrink search, and is re-armed on replay. The
// observed outcome here (terminal never visited) only exists because of the
// crash, so a hook that lost the plan would fail to shrink or save a witness
// that replays to a different outcome.
func TestReproHookCarriesFaultPlan(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("ANON_REPRO_DIR", dir)

	g := graph.Line(5)
	makeProto := func() protocol.Protocol { return core.NewGeneralBroadcast([]byte("m")) }
	spec := "crash=3:0"
	faults, plan, err := scenario.CompileSpec(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sim.NewScheduler("fifo")
	if err != nil {
		t.Fatal(err)
	}
	rec := replay.NewRecorder()
	r, err := sim.Sequential().Run(g, makeProto(), sim.Options{
		Scheduler: sched, Seed: 9, Faults: faults, Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Visited[graph.VertexID(g.Terminal())] {
		t.Fatal("crash plan did not cut the line; the outcome would not depend on it")
	}
	observed, _ := fuzz.Compute(g, r)

	saveMinimalRepro(t, g, makeProto, rec, "fifo", 9, plan.Canonical(), r, nil)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("hook wrote %d files, want 1", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := replay.Decode(data)
	if err != nil {
		t.Fatalf("saved repro does not decode: %v", err)
	}
	if tr.Faults != plan.Canonical() {
		t.Fatalf("saved repro Faults = %q, want %q", tr.Faults, plan.Canonical())
	}
	g2, err := tr.Graph()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := replay.Run(g2, makeProto(), tr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fuzz.Compute(g2, r2)
	if got != observed {
		t.Errorf("replayed repro does not reproduce the churned outcome\n got: %+v\nwant: %+v", got, observed)
	}
}

// deadEndGraph builds a network with a 2-cycle that cannot reach the
// terminal: the exact condition under which the paper's protocols must
// refuse to terminate, on every engine and schedule.
func deadEndGraph(t *testing.T) *graph.G {
	t.Helper()
	b := graph.NewBuilder(0)
	s := b.AddVertex()
	a := b.AddVertex()
	x := b.AddVertex()
	y := b.AddVertex()
	tt := b.AddVertex()
	b.AddEdge(s, a)
	b.AddEdge(a, x).AddEdge(a, tt)
	b.AddEdge(x, y)
	b.AddEdge(y, x)
	b.SetRoot(s).SetTerminal(tt).SetName("dead-end")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCrossEngineQuiescence checks the negative half of Theorem 4.2 on the
// full matrix: when some vertex cannot reach the terminal, every engine and
// every scheduler must report quiescence, never termination.
func TestCrossEngineQuiescence(t *testing.T) {
	g := deadEndGraph(t)
	if g.AllConnectedToTerminal() {
		t.Fatal("test graph unexpectedly fully connected to terminal")
	}
	for _, pc := range protoCases {
		if pc.name == "treecast" || pc.name == "dagcast" {
			continue // the graph is cyclic; those protocols don't apply
		}
		t.Run(pc.name, func(t *testing.T) {
			variants := seqVariants(17)
			type cell struct {
				r   *sim.Result
				err error
			}
			cells := make([]cell, len(variants))
			par.Map(0, len(variants), func(i int) {
				r, err := sim.Sequential().Run(g, pc.make(), variants[i].opts)
				cells[i] = cell{r: r, err: err}
			})
			for i, v := range variants {
				if cells[i].err != nil {
					t.Fatalf("%s: %v", v.name, cells[i].err)
				}
				if cells[i].r.Verdict != sim.Quiescent {
					t.Errorf("%s: verdict %s, want quiescent", v.name, cells[i].r.Verdict)
				}
			}
			r, err := sim.Concurrent().Run(g, pc.make(), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != sim.Quiescent {
				t.Errorf("concurrent: verdict %s, want quiescent", r.Verdict)
			}
			r, err = sim.Synchronous().Run(g, pc.make(), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != sim.Quiescent {
				t.Errorf("sync: verdict %s, want quiescent", r.Verdict)
			}
		})
	}
}

// TestTCPConformance runs a reduced matrix over the real-socket tier: one
// graph per protocol, compared against the sequential reference. Kept small
// because the per-vertex wiring opens up to |V| listeners and |E|
// connections.
func TestTCPConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping socket tier")
	}
	cases := []struct {
		pc protoCase
		g  *graph.G
	}{
		{protoCases[0], graph.KaryGroundedTree(2, 2)},
		{protoCases[1], graph.RandomDAG(6, 4, 3)},
		{protoCases[2], graph.Ring(4)},
		{protoCases[3], graph.RandomDigraph(6, 11, graph.RandomDigraphOpts{ExtraEdges: 5, TerminalFrac: 0.3})},
		{protoCases[4], graph.Ring(4)},
	}
	// Both owner maps of the socket tier run the same matrix: the identity
	// partition ("per-vertex": one worker and listener per vertex) and a
	// three-shard partition (one worker and listener per shard).
	modes := []struct {
		name string
		eng  sim.Engine
	}{
		{"per-vertex", netrun.Engine(core.Codec{}, netrun.Options{})},
		{"sharded", netrun.Engine(core.Codec{}, netrun.Options{Shards: 3})},
	}
	for _, m := range modes {
		for _, c := range cases {
			t.Run(m.name+"/"+c.pc.name+"/"+c.g.Name(), func(t *testing.T) {
				ref, err := sim.Sequential().Run(c.g, c.pc.make(), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := outcomeOf(t, c.g, ref)
				r, err := m.eng.Run(c.g, c.pc.make(), sim.Options{})
				if err != nil {
					t.Fatalf("tcp: %v", err)
				}
				got := outcomeOf(t, c.g, r)
				if got.Verdict != want.Verdict {
					t.Errorf("tcp: verdict %s, reference %s", got.Verdict, want.Verdict)
				}
				if got.Labeled != want.Labeled {
					t.Errorf("tcp: labeled-vertex set diverges\n got: %s\nwant: %s", got.Labeled, want.Labeled)
				}
				if got.TopoOK != want.TopoOK {
					t.Errorf("tcp: topology isomorphism %v, reference %v", got.TopoOK, want.TopoOK)
				}
			})
		}
		t.Run(m.name+"/quiescence", func(t *testing.T) {
			g := deadEndGraph(t)
			r, err := m.eng.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != sim.Quiescent {
				t.Errorf("tcp: verdict %s, want quiescent", r.Verdict)
			}
		})
	}
}
