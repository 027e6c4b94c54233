package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestNilSafety: every Recorder and Track method must be a no-op on a nil
// receiver — the engines hook the hot path unconditionally and pay only the
// nil check when telemetry is off.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Configure("p", "s", 1, 2)
	if r.SampleEvery() != 0 {
		t.Error("nil recorder SampleEvery != 0")
	}
	if r.Tracks(3) != nil {
		t.Error("nil recorder Tracks != nil")
	}
	r.Superstep([]int64{1})
	stop := r.StartPhase("x")
	if stop == nil {
		t.Fatal("nil recorder StartPhase returned nil stop")
	}
	stop()
	if r.Timeline() != nil || r.Report() != nil {
		t.Error("nil recorder Timeline/Report != nil")
	}

	var tr *Track
	tr.Send()
	tr.Dropped()
	tr.Enqueued()
	tr.Delivered(true)
}

// TestSampling: a sample lands on every stride-th delivery and carries the
// cumulative counters plus the instantaneous in-flight count.
func TestSampling(t *testing.T) {
	r := NewRecorder(2)
	r.Configure("proto", "fifo", 7, 1)
	tr := r.Tracks(1)[0]
	for i := 0; i < 5; i++ {
		tr.Send()
		tr.Enqueued()
		tr.Delivered(false)
	}
	tl := r.Timeline()
	if len(tl.Tracks) != 1 {
		t.Fatalf("tracks = %d, want 1", len(tl.Tracks))
	}
	s := tl.Tracks[0].Samples
	if len(s) != 2 {
		t.Fatalf("5 deliveries at stride 2: %d samples, want 2", len(s))
	}
	if s[0].Step != 2 || s[1].Step != 4 {
		t.Errorf("sample steps %d, %d, want 2, 4", s[0].Step, s[1].Step)
	}
	if s[0].Sends != 2 || s[0].InFlight != 0 {
		t.Errorf("first sample %+v: want sends=2 in_flight=0", s[0])
	}
	tot := tl.Tracks[0].Totals
	if tot.Deliveries != 5 || tot.Sends != 5 || tot.PeakInFlight != 1 {
		t.Errorf("totals %+v: want deliveries=5 sends=5 peak=1", tot)
	}
}

// TestTrackCounters: drops and crashes are counted separately,
// and the peak in-flight is the high-water mark of enqueued minus delivered.
func TestTrackCounters(t *testing.T) {
	r := NewRecorder(100)
	tr := r.Tracks(1)[0]
	for i := 0; i < 4; i++ {
		tr.Send()
		tr.Enqueued()
	}
	tr.Send()
	tr.Dropped()
	tr.Delivered(false)
	tr.Delivered(true)
	tot := r.Timeline().Tracks[0].Totals
	want := Totals{Deliveries: 2, Sends: 5, Drops: 1, Crashes: 1, PeakInFlight: 4}
	if tot != want {
		t.Errorf("totals %+v, want %+v", tot, want)
	}
}

// TestConfigureFirstCallWins: the canonicalizing replay of a wild capture must
// not overwrite the wild run's identity.
func TestConfigureFirstCallWins(t *testing.T) {
	r := NewRecorder(0)
	r.Configure("p1", "wild-tcp", 0, 1)
	r.Configure("p2", "fifo", 9, 4)
	tl := r.Timeline()
	if tl.Protocol != "p1" || tl.Scheduler != "wild-tcp" || tl.Seed != 0 || tl.Shards != 1 {
		t.Errorf("second Configure overwrote identity: %+v", tl)
	}
}

// TestTracksSecondCallThrowaway: a second Tracks call returns live tracks
// that are NOT registered, so an accidental re-run cannot corrupt the series.
func TestTracksSecondCallThrowaway(t *testing.T) {
	r := NewRecorder(0)
	first := r.Tracks(1)
	second := r.Tracks(1)
	second[0].Send()
	first[0].Delivered(false)
	tl := r.Timeline()
	if len(tl.Tracks) != 1 {
		t.Fatalf("tracks = %d, want 1", len(tl.Tracks))
	}
	if tl.Totals.Sends != 0 || tl.Totals.Deliveries != 1 {
		t.Errorf("throwaway track leaked into timeline: %+v", tl.Totals)
	}
}

// TestDefaultStride: non-positive strides fall back to DefaultSampleEvery.
func TestDefaultStride(t *testing.T) {
	if got := NewRecorder(0).SampleEvery(); got != DefaultSampleEvery {
		t.Errorf("stride %d, want %d", got, DefaultSampleEvery)
	}
	if got := NewRecorder(-5).SampleEvery(); got != DefaultSampleEvery {
		t.Errorf("stride %d, want %d", got, DefaultSampleEvery)
	}
}

// TestSuperstepCopies: the occupancy slice is copied, so an engine reusing
// its scratch row cannot mutate recorded history.
func TestSuperstepCopies(t *testing.T) {
	r := NewRecorder(0)
	row := []int64{3, 4}
	r.Superstep(row)
	row[0] = 99
	r.Superstep(row)
	tl := r.Timeline()
	if len(tl.Supersteps) != 2 {
		t.Fatalf("supersteps = %d, want 2", len(tl.Supersteps))
	}
	if tl.Supersteps[0].Deliveries[0] != 3 || tl.Supersteps[0].Index != 0 || tl.Supersteps[1].Index != 1 {
		t.Errorf("superstep rows corrupted: %+v", tl.Supersteps)
	}
}

// TestPhasesAccumulate: repeated phases accumulate duration and count, stay
// out of the Timeline, and appear in the Report.
func TestPhasesAccumulate(t *testing.T) {
	r := NewRecorder(0)
	r.StartPhase("drain")()
	r.StartPhase("drain")()
	r.StartPhase("merge")()
	rep := r.Report()
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(rep.Phases))
	}
	if rep.Phases[0].Name != "drain" || rep.Phases[0].Count != 2 {
		t.Errorf("drain phase %+v, want count 2", rep.Phases[0])
	}
	data, err := rep.Timeline.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "drain") {
		t.Error("wall-clock phase leaked into the deterministic timeline")
	}
}

// TestTimelineJSONStable: the JSON layout is fixed — non-nil slices, the
// schema version tag, and byte-identical output for identical recorder state.
func TestTimelineJSONStable(t *testing.T) {
	mk := func() *Recorder {
		r := NewRecorder(2)
		r.Configure("treecast/pow2", "fifo", 3, 1)
		tr := r.Tracks(1)[0]
		for i := 0; i < 3; i++ {
			tr.Send()
			tr.Enqueued()
			tr.Delivered(false)
		}
		r.Superstep([]int64{3})
		return r
	}
	a, err := mk().Timeline().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().Timeline().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("identical state, different bytes:\n%s\nvs\n%s", a, b)
	}
	var decoded map[string]any
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["schema_version"].(float64) != TimelineSchemaVersion {
		t.Errorf("schema_version = %v", decoded["schema_version"])
	}
	// An empty recorder still renders arrays, never null — tooling depends on
	// the stable layout.
	empty, err := NewRecorder(0).Timeline().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(empty), "null") {
		t.Errorf("empty timeline renders null:\n%s", empty)
	}
}

// TestRenderTable: width alignment and the dashed header separator.
func TestRenderTable(t *testing.T) {
	out := RenderTable([][]string{{"metric", "v"}, {"deliveries", "12"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "------") {
		t.Errorf("no dashed separator: %q", lines[1])
	}
	if !strings.HasPrefix(lines[0], "metric  ") {
		t.Errorf("header not width-aligned: %q", lines[0])
	}
}

// TestReportRenderers: the table and Prometheus renderers carry the identity
// line, the counters, and the phases; nil reports render empty.
func TestReportRenderers(t *testing.T) {
	r := NewRecorder(1)
	r.Configure("generalcast", "greedy", 11, 2)
	tracks := r.Tracks(2)
	for _, tr := range tracks {
		tr.Send()
		tr.Enqueued()
		tr.Delivered(false)
	}
	r.Superstep([]int64{1, 1})
	r.StartPhase("drain")()
	rep := r.Report()

	table := rep.Table()
	for _, want := range []string{
		"protocol=generalcast", "scheduler=greedy", "seed=11", "shards=2",
		"shard 0", "shard 1", "total", "deliveries", "peak in-flight",
		"in-flight p50", "supersteps", "occupancy imbalance", "drain",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}

	prom := rep.Prometheus()
	for _, want := range []string{
		`anonnet_run_info{protocol="generalcast",scheduler="greedy",seed="11",shards="2"} 1`,
		`anonnet_deliveries_total{shard="0"} 1`,
		`anonnet_deliveries_total{shard="1"} 1`,
		"anonnet_supersteps_total 1",
		`anonnet_phase_wall_seconds{phase="drain"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom)
		}
	}

	var nilRep *Report
	if nilRep.Table() != "" || nilRep.Prometheus() != "" {
		t.Error("nil report renders non-empty")
	}
}
