package sim

import (
	"testing"

	"repro/internal/graph"
)

// The fault tests run floodProto (sim_test.go) on graph.Line, where the
// message count per edge is exactly predictable: each edge carries exactly
// one message, so drop and crash quotas have unambiguous effects.
func lineGraph(n int) *graph.G { return graph.Line(n) }

// TestFaultStateDropSemantics: DropFirst drops exactly the first k sends on
// an edge, LossRate 1 drops everything, and the decisions are deterministic.
func TestFaultStateDropSemantics(t *testing.T) {
	g := lineGraph(3)
	e := g.OutEdgeIDs(g.Root())[0]

	fs, err := NewFaultState(g, &Options{Faults: &Faults{DropFirst: map[graph.EdgeID]int{e: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !fs.DropSend(e) || !fs.DropSend(e) {
		t.Fatal("first two sends not dropped")
	}
	if fs.DropSend(e) {
		t.Fatal("third send dropped, quota was 2")
	}
	if fs.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", fs.Dropped())
	}

	all, err := NewFaultState(g, &Options{Faults: &Faults{LossRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !all.DropSend(e) {
			t.Fatalf("send %d survived LossRate 1", i)
		}
	}

	none, err := NewFaultState(g, &Options{Faults: &Faults{LossRate: 0, CrashAfter: map[graph.VertexID]int{1: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if none.DropSend(e) {
			t.Fatalf("send %d dropped with no send faults configured", i)
		}
	}
}

// TestFaultStateBernoulliDeterminism: the per-message loss decision is a
// pure function of (seed, edge, send index) — two states with the same plan
// agree on every message, a different seed disagrees somewhere, and the
// empirical rate is in the right ballpark.
func TestFaultStateBernoulliDeterminism(t *testing.T) {
	g := lineGraph(3)
	e := g.OutEdgeIDs(g.Root())[0]
	mk := func(seed int64) *FaultState {
		fs, err := NewFaultState(g, &Options{Faults: &Faults{LossRate: 0.3, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	const n = 2000
	a, b, c := mk(7), mk(7), mk(8)
	dropsA, differ := 0, false
	for i := 0; i < n; i++ {
		da, db, dc := a.DropSend(e), b.DropSend(e), c.DropSend(e)
		if da != db {
			t.Fatalf("same plan disagrees at send %d", i)
		}
		if da != dc {
			differ = true
		}
		if da {
			dropsA++
		}
	}
	if !differ {
		t.Fatal("seeds 7 and 8 produced identical loss patterns over 2000 sends")
	}
	if dropsA < n*20/100 || dropsA > n*40/100 {
		t.Fatalf("LossRate 0.3 dropped %d of %d", dropsA, n)
	}
}

// TestFaultStateValidation: plans naming nonexistent edges or vertices, or
// out-of-range rates, are rejected; an empty plan compiles to nil.
func TestFaultStateValidation(t *testing.T) {
	g := lineGraph(2)
	if fs, err := NewFaultState(g, &Options{}); err != nil || fs != nil {
		t.Fatalf("empty plan: %v, %v", fs, err)
	}
	bad := []Options{
		{Faults: &Faults{DropFirst: map[graph.EdgeID]int{graph.EdgeID(99): 1}}},
		{Faults: &Faults{DropFirst: map[graph.EdgeID]int{0: -1}}},
		{Faults: &Faults{LossRate: 1.5}},
		{Faults: &Faults{LossRate: -0.1}},
		{Faults: &Faults{CrashAfter: map[graph.VertexID]int{99: 0}}},
		{Faults: &Faults{CrashAfter: map[graph.VertexID]int{1: -2}}},
	}
	for i := range bad {
		if _, err := NewFaultState(g, &bad[i]); err == nil {
			t.Fatalf("plan %d accepted: %+v", i, bad[i])
		}
	}
}

// TestFaultStateCrash: CrashAfter lets exactly k deliveries through, then
// swallows the rest; unconfigured vertices never crash.
func TestFaultStateCrash(t *testing.T) {
	g := lineGraph(3)
	fs, err := NewFaultState(g, &Options{Faults: &Faults{CrashAfter: map[graph.VertexID]int{2: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	v := graph.VertexID(2)
	if fs.CrashDelivery(v) || fs.CrashDelivery(v) {
		t.Fatal("delivery within the quota swallowed")
	}
	if !fs.CrashDelivery(v) || !fs.CrashDelivery(v) {
		t.Fatal("delivery past the quota processed")
	}
	if fs.CrashDelivery(graph.VertexID(1)) {
		t.Fatal("unconfigured vertex crashed")
	}
	if fs.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", fs.Dropped())
	}
}

// TestDropMeteringSemantics: on the sequential engine, a dropped message is
// recorded as traffic and observed as a send, but never counted in flight,
// queued, or delivered — the metering contract DropFirst has always had,
// now restated over the generalized plan.
func TestDropMeteringSemantics(t *testing.T) {
	g := lineGraph(2) // s -> v1 -> v2 -> t
	e0 := g.OutEdgeIDs(g.Root())[0]
	obs := &scheduleLog{}
	r, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
		Observer: obs,
		Faults:   &Faults{DropFirst: map[graph.EdgeID]int{e0: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Quiescent {
		t.Fatalf("verdict %v, want quiescent: sigma0 was dropped", r.Verdict)
	}
	if r.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped)
	}
	if r.Metrics.Messages != 1 {
		t.Fatalf("Messages = %d, want 1 (the dropped send is still metered)", r.Metrics.Messages)
	}
	if r.Steps != 0 {
		t.Fatalf("Steps = %d, want 0 (nothing was deliverable)", r.Steps)
	}
	if r.Metrics.PeakInFlight != 0 {
		t.Fatalf("PeakInFlight = %d, want 0 (dropped sends are never in flight)", r.Metrics.PeakInFlight)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if r.Visited[v] {
			t.Fatalf("vertex %d visited although sigma0 was dropped", v)
		}
	}
}

// TestFaultStateRecoverSemantics: RecoverAfter k processes deliveries up to
// the crash quota, consumes the ones between quota and k, and resumes from
// k+1 with the pre-crash state — and the churn report records the crash and
// the recovery at their first observable deliveries.
func TestFaultStateRecoverSemantics(t *testing.T) {
	g := lineGraph(3)
	fs, err := NewFaultState(g, &Options{Faults: &Faults{
		CrashAfter:   map[graph.VertexID]int{2: 1},
		RecoverAfter: map[graph.VertexID]int{2: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	v := graph.VertexID(2)
	want := []bool{false, true, true, false, false} // process 1, consume 2..3, resume 4+
	for i, w := range want {
		if got := fs.CrashDelivery(v); got != w {
			t.Fatalf("delivery %d: crashed=%v, want %v", i+1, got, w)
		}
	}
	if fs.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 consumed deliveries", fs.Dropped())
	}
	rep := fs.ChurnReport()
	if rep == nil || len(rep.Events) != 2 {
		t.Fatalf("churn report %+v, want crash+recover", rep)
	}
	crash, rec := rep.Events[0], rep.Events[1]
	if crash.Kind != ChurnCrash || crash.Vertex != 2 || crash.At != 1 || crash.Clock != 2 {
		t.Fatalf("crash event %+v", crash)
	}
	if rec.Kind != ChurnRecover || rec.Vertex != 2 || rec.At != 3 || rec.Clock != 4 {
		t.Fatalf("recover event %+v", rec)
	}
	if rep.Deliveries != 5 {
		t.Fatalf("Deliveries = %d, want 5", rep.Deliveries)
	}
	if rep.Restabilize(0) != 3 || rep.Restabilize(1) != 1 {
		t.Fatalf("restabilize %d/%d, want 3/1", rep.Restabilize(0), rep.Restabilize(1))
	}
}

// TestFaultStateCutJoinSemantics: JoinAfter k drops sends before index k
// (the edge does not exist yet), CutAfter k drops sends at k and after (the
// edge was removed), and both windows compose on one edge.
func TestFaultStateCutJoinSemantics(t *testing.T) {
	g := lineGraph(3)
	e := g.OutEdgeIDs(g.Root())[0]

	join, err := NewFaultState(g, &Options{Faults: &Faults{JoinAfter: map[graph.EdgeID]int{e: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, true, false, false} {
		if got := join.DropSend(e); got != want {
			t.Fatalf("join: send %d dropped=%v, want %v", i, got, want)
		}
	}
	rep := join.ChurnReport()
	if len(rep.Events) != 1 || rep.Events[0].Kind != ChurnJoin || rep.Events[0].Edge != int(e) || rep.Events[0].At != 2 {
		t.Fatalf("join events %+v", rep.Events)
	}

	cut, err := NewFaultState(g, &Options{Faults: &Faults{CutAfter: map[graph.EdgeID]int{e: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, false, true, true} {
		if got := cut.DropSend(e); got != want {
			t.Fatalf("cut: send %d dropped=%v, want %v", i, got, want)
		}
	}
	rep = cut.ChurnReport()
	if len(rep.Events) != 1 || rep.Events[0].Kind != ChurnCut || rep.Events[0].At != 2 {
		t.Fatalf("cut events %+v", rep.Events)
	}

	// CutAfter 0: the edge never existed.
	never, err := NewFaultState(g, &Options{Faults: &Faults{CutAfter: map[graph.EdgeID]int{e: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !never.DropSend(e) || !never.DropSend(e) {
		t.Fatal("cut=0 edge carried a send")
	}

	both, err := NewFaultState(g, &Options{Faults: &Faults{
		JoinAfter: map[graph.EdgeID]int{e: 1},
		CutAfter:  map[graph.EdgeID]int{e: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, false, true, true} {
		if got := both.DropSend(e); got != want {
			t.Fatalf("join+cut: send %d dropped=%v, want %v", i, got, want)
		}
	}
}

// TestFaultStateLossStepsSemantics: LossSteps is an adversarial schedule of
// rate changes by per-edge send index, replacing the base rate from each
// trigger on.
func TestFaultStateLossStepsSemantics(t *testing.T) {
	g := lineGraph(3)
	e := g.OutEdgeIDs(g.Root())[0]

	// Rate jumps to 1 at send 4: the first four survive, the rest die.
	fs, err := NewFaultState(g, &Options{Faults: &Faults{
		LossSteps: []LossStep{{AfterSend: 4, Rate: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if fs.DropSend(e) {
			t.Fatalf("send %d dropped before the loss step", i)
		}
	}
	for i := 4; i < 8; i++ {
		if !fs.DropSend(e) {
			t.Fatalf("send %d survived rate 1", i)
		}
	}
	rep := fs.ChurnReport()
	if len(rep.Events) != 1 || rep.Events[0].Kind != ChurnLoss || rep.Events[0].At != 4 {
		t.Fatalf("loss events %+v", rep.Events)
	}

	// A step can also heal: base rate 1 until send 2, then rate 0.
	heal, err := NewFaultState(g, &Options{Faults: &Faults{
		LossRate:  1,
		LossSteps: []LossStep{{AfterSend: 2, Rate: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, true, false, false} {
		if got := heal.DropSend(e); got != want {
			t.Fatalf("heal: send %d dropped=%v, want %v", i, got, want)
		}
	}
}

// TestFaultStateChurnValidation: churn terms naming unknown elements,
// inverted windows, or unsorted loss schedules are rejected at compile time.
func TestFaultStateChurnValidation(t *testing.T) {
	g := lineGraph(2)
	bad := []Options{
		{Faults: &Faults{RecoverAfter: map[graph.VertexID]int{1: 2}}},                                            // recover without crash
		{Faults: &Faults{CrashAfter: map[graph.VertexID]int{1: 3}, RecoverAfter: map[graph.VertexID]int{1: 2}}},  // recover before crash
		{Faults: &Faults{CrashAfter: map[graph.VertexID]int{1: 0}, RecoverAfter: map[graph.VertexID]int{1: -1}}}, // negative recover
		{Faults: &Faults{CrashAfter: map[graph.VertexID]int{1: 0}, RecoverAfter: map[graph.VertexID]int{99: 1}}}, // unknown vertex
		{Faults: &Faults{JoinAfter: map[graph.EdgeID]int{99: 1}}},                                                // unknown edge
		{Faults: &Faults{JoinAfter: map[graph.EdgeID]int{0: -1}}},                                                // negative join
		{Faults: &Faults{CutAfter: map[graph.EdgeID]int{0: -1}}},                                                 // negative cut
		{Faults: &Faults{JoinAfter: map[graph.EdgeID]int{0: 3}, CutAfter: map[graph.EdgeID]int{0: 2}}},           // join at/after cut
		{Faults: &Faults{LossSteps: []LossStep{{AfterSend: 0, Rate: 1.5}}}},                                      // rate out of range
		{Faults: &Faults{LossSteps: []LossStep{{AfterSend: -1, Rate: 0.5}}}},                                     // negative trigger
		{Faults: &Faults{LossSteps: []LossStep{{AfterSend: 3, Rate: 0.5}, {AfterSend: 3, Rate: 0.2}}}},           // not strictly ascending
	}
	for i := range bad {
		if _, err := NewFaultState(g, &bad[i]); err == nil {
			t.Fatalf("plan %d accepted: %+v", i, bad[i].Faults)
		}
	}
}

// TestChurnReportEngineWiring: a run with churn terms reports its churn
// through Result.Churn (clocked by the global delivery counter), a plain
// loss plan reports nil, and two identical seq runs agree byte for byte.
func TestChurnReportEngineWiring(t *testing.T) {
	g := lineGraph(3) // s=0 -> 1 -> 2 -> 3 -> t=4
	run := func() *Result {
		r, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
			Faults: &Faults{CrashAfter: map[graph.VertexID]int{2: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Churn == nil || len(a.Churn.Events) != 1 {
		t.Fatalf("churn report %+v, want one crash event", a.Churn)
	}
	ev := a.Churn.Events[0]
	if ev.Kind != ChurnCrash || ev.Vertex != 2 {
		t.Fatalf("event %+v", ev)
	}
	if a.Churn.Deliveries != int64(a.Steps) {
		t.Fatalf("churn clock %d, steps %d — every delivery must tick the clock", a.Churn.Deliveries, a.Steps)
	}
	if got := a.Churn.Restabilize(0); got != a.Churn.Deliveries-ev.Clock {
		t.Fatalf("Restabilize = %d", got)
	}
	if len(b.Churn.Events) != 1 || b.Churn.Events[0] != ev || b.Churn.Deliveries != a.Churn.Deliveries {
		t.Fatalf("seq churn not deterministic: %+v vs %+v", a.Churn, b.Churn)
	}

	plain, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
		Faults: &Faults{LossRate: 0.5, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Churn != nil {
		t.Fatalf("plain loss plan reported churn %+v", plain.Churn)
	}
}

// TestCrashedVertexRun: a crash-stopped vertex blocks the broadcast behind
// it — the run goes quiescent (the protocol correctly refuses to terminate)
// and downstream vertices stay unvisited.
func TestCrashedVertexRun(t *testing.T) {
	g := lineGraph(3) // s=0 -> 1 -> 2 -> 3 -> t=4
	r, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
		Faults: &Faults{CrashAfter: map[graph.VertexID]int{2: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Quiescent {
		t.Fatalf("verdict %v, want quiescent behind the crash", r.Verdict)
	}
	if r.Visited[2] || r.Visited[3] {
		t.Fatalf("crashed vertex or its downstream marked visited: %v", r.Visited)
	}
	if !r.Visited[1] {
		t.Fatal("vertex before the crash should be visited")
	}
	if r.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 swallowed delivery", r.Dropped)
	}
}
