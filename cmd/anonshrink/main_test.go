package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dyadic"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
)

// render returns a view's timeline and summary.
func render(t *testing.T, g *graph.G, run func(o sim.Observer)) (string, string) {
	t.Helper()
	var tl, sum strings.Builder
	v := newView(g, &tl)
	run(v)
	if err := v.writeSummary(&sum); err != nil {
		t.Fatal(err)
	}
	return tl.String(), sum.String()
}

func TestViewCountsMatchMetrics(t *testing.T) {
	g := graph.Ring(5)
	var tl strings.Builder
	v := newView(g, &tl)
	r, err := sim.Run(g, core.NewGeneralBroadcast(nil), sim.Options{Observer: v})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	sends, delivers := 0, 0
	for _, a := range v.acts {
		sends += a.sent
		delivers += a.recv
	}
	if sends != r.Metrics.Messages || delivers != r.Steps {
		t.Fatalf("view tallied %d sends, %d deliveries; metrics %d messages, %d steps",
			sends, delivers, r.Metrics.Messages, r.Steps)
	}
	if n := strings.Count(tl.String(), " send "); n != sends {
		t.Fatalf("timeline has %d send lines, want %d", n, sends)
	}
	if n := strings.Count(tl.String(), " deliver "); n != delivers {
		t.Fatalf("timeline has %d deliver lines, want %d", n, delivers)
	}
}

func TestViewPerVertexAggregation(t *testing.T) {
	g := graph.Line(2) // s -> v1 -> v2 -> t
	v := newView(g, nil)
	if _, err := sim.Run(g, core.NewTreeBroadcast(nil, core.RulePow2), sim.Options{Observer: v}); err != nil {
		t.Fatal(err)
	}
	// The root sends one message (the engine's injection is attributed to
	// it) and never receives.
	if a := v.acts[g.Root()]; a.recv != 0 || a.sent != 1 || a.first != -1 {
		t.Fatalf("root activity %+v", a)
	}
	// The terminal receives one and sends none.
	if a := v.acts[g.Terminal()]; a.recv != 1 || a.sent != 0 || a.first <= 0 {
		t.Fatalf("terminal activity %+v", a)
	}
	// Internal vertices relay: one in, one out.
	for _, u := range []graph.VertexID{1, 2} {
		if a := v.acts[u]; a.recv != 1 || a.sent != 1 || a.bitsIn != a.bitsOut {
			t.Fatalf("vertex %d activity %+v", u, a)
		}
	}
}

func TestViewRendersRoleMarkers(t *testing.T) {
	g := graph.Line(3)
	tl, sum := render(t, g, func(o sim.Observer) {
		if _, err := sim.Run(g, core.NewTreeBroadcast([]byte("m"), core.RulePow2), sim.Options{Observer: o}); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"send", "deliver", "bits"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	if !strings.Contains(sum, "v0     (s)") || !strings.Contains(sum, fmt.Sprintf("v%-5d (t)", g.Terminal())) {
		t.Fatalf("summary missing role markers:\n%s", sum)
	}
}

func TestViewTruncatesKeys(t *testing.T) {
	long := strings.Repeat("k", keyLimit+5)
	if got := trimKey(long); got != long[:keyLimit]+"…" {
		t.Fatalf("trimKey(%d bytes) = %q", len(long), got)
	}
	if short := "abc"; trimKey(short) != short {
		t.Fatalf("trimKey(%q) = %q", short, trimKey(short))
	}
	// Mapping messages carry long keys: every one the timeline prints is
	// cut to keyLimit bytes, and some are cut.
	g := graph.Ring(4)
	tl, _ := render(t, g, func(o sim.Observer) {
		if _, err := sim.Run(g, core.NewMapExtract(nil), sim.Options{Observer: o}); err != nil {
			t.Fatal(err)
		}
	})
	cut := 0
	for _, line := range strings.Split(tl, "\n") {
		i := strings.Index(line, "bits  ")
		if i < 0 {
			continue
		}
		key, err := strconv.Unquote(line[i+len("bits  "):])
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if len(key) > keyLimit+len("…") {
			t.Fatalf("key not truncated: %d bytes in %q", len(key), line)
		}
		if strings.HasSuffix(key, "…") {
			cut++
		}
	}
	if cut == 0 {
		t.Fatalf("no key was truncated:\n%s", tl)
	}
}

// TestRecordEncodeDecodeReplayRoundTrip pins the pipeline the trace tool
// promises: record a run with the view and the replay recorder side by
// side, encode the schedule, decode it from bytes alone, replay it on the
// graph rebuilt from the trace, and render again — the timeline and
// summary come back byte-identical.
func TestRecordEncodeDecodeReplayRoundTrip(t *testing.T) {
	g := graph.RandomDigraph(8, 11, graph.RandomDigraphOpts{ExtraEdges: 8, TerminalFrac: 0.3})
	sched, err := sim.NewScheduler("random")
	if err != nil {
		t.Fatal(err)
	}
	pin := replay.NewRecorder()
	wantTL, wantSum := render(t, g, func(o sim.Observer) {
		if _, err := sim.Run(g, core.NewGeneralBroadcast([]byte("m")), sim.Options{
			Scheduler: sched, Seed: 5, Observer: sim.TeeObserver(o, pin),
		}); err != nil {
			t.Fatal(err)
		}
	})
	dec, err := replay.Decode(replay.Encode(pin.Trace(g, "generalcast", "random", 5)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dec.Graph()
	if err != nil {
		t.Fatal(err)
	}
	gotTL, gotSum := render(t, g2, func(o sim.Observer) {
		if _, err := replay.Run(g2, core.NewGeneralBroadcast([]byte("m")), dec, sim.Options{Observer: o}); err != nil {
			t.Fatal(err)
		}
	})
	if gotTL != wantTL {
		t.Fatalf("replayed timeline differs\n--- recorded\n%s\n--- replayed\n%s", wantTL, gotTL)
	}
	if gotSum != wantSum {
		t.Fatalf("replayed summary differs\n--- recorded\n%s\n--- replayed\n%s", wantSum, gotSum)
	}
}

// labeledNode is a node that reports a fixed label.
type labeledNode struct {
	protocol.NopNode
	label interval.Union
}

func (n labeledNode) Label() (interval.Union, bool) { return n.label, true }

// span returns the one-interval union [lo/8, hi/8).
func span(lo, hi uint64) interval.Union {
	return interval.NewUnion(interval.Interval{Lo: dyadic.FromFrac(lo, 3), Hi: dyadic.FromFrac(hi, 3)})
}

// TestLabelCollisionPredicateReportsOverlaps holds label-collision to the
// oracle's disjointness check: labels that share a point collide even when
// no two are equal, and the verdict does not matter.
func TestLabelCollisionPredicateReportsOverlaps(t *testing.T) {
	g := graph.Chain(3)
	pred, err := buildPredicate("label-collision", g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		labels []interval.Union
		want   bool
	}{
		{"disjoint", []interval.Union{span(0, 1), span(1, 3), span(4, 8)}, false},
		{"equal", []interval.Union{span(0, 2), span(4, 5), span(0, 2)}, true},
		{"overlapping", []interval.Union{span(4, 6), span(0, 1), span(5, 8)}, true},
	} {
		r := &sim.Result{Verdict: sim.Quiescent, Nodes: make([]protocol.Node, len(c.labels)+2)}
		r.Nodes[0], r.Nodes[len(r.Nodes)-1] = protocol.NopNode{}, protocol.NopNode{}
		for i, u := range c.labels {
			r.Nodes[i+1] = labeledNode{label: u}
		}
		if got := pred(r, nil); got != c.want {
			t.Fatalf("%s: label-collision = %v, want %v", c.name, got, c.want)
		}
	}
}

// stdout runs f with os.Stdout sent to a file and returns what f wrote.
func stdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	ferr := f()
	os.Stdout = saved
	if ferr != nil {
		t.Fatal(ferr)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRecordThenReplayViews drives the two-command flow end to end: record
// a scenario-registry graph under a fault plan with the protocol chosen by
// the graph's class, then replay it with every view. The plan is re-armed,
// the output carries the timeline, the summary and the telemetry JSON, and
// the bits the recording run metered equal the replay's per-vertex total.
func TestRecordThenReplayViews(t *testing.T) {
	f := filepath.Join(t.TempDir(), "run.trace")
	rec := stdout(t, func() error {
		return cmdRecord([]string{"-graph", "torus:w=3,h=3", "-proto", "auto", "-faults", "crash=3:1,recover=3:4", "-o", f})
	})
	m := regexp.MustCompile(`^generalcast on torus.* (\d+) bits\n`).FindStringSubmatch(rec)
	if m == nil {
		t.Fatalf("record output does not name the resolved protocol and its bits:\n%s", rec)
	}
	out := stdout(t, func() error {
		return cmdReplay([]string{"-in", f, "-timeline", "-summary", "-obs", "-"})
	})
	for _, want := range []string{
		"fault plan re-armed from header: crash=3:1,recover=3:4",
		"\ntimeline:\n", "  deliver v", "\nper-vertex summary:\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("replay output missing %q:\n%s", want, out)
		}
	}
	i := strings.Index(out, "\n{\n")
	if i < 0 {
		t.Fatalf("replay output carries no telemetry JSON:\n%s", out)
	}
	var report struct {
		Timeline struct {
			Protocol string `json:"protocol"`
		} `json:"timeline"`
	}
	if err := json.Unmarshal([]byte(out[i:]), &report); err != nil {
		t.Fatalf("telemetry JSON: %v", err)
	}
	if report.Timeline.Protocol != "generalcast" {
		t.Fatalf("telemetry protocol %q", report.Timeline.Protocol)
	}
	summary := out[strings.Index(out, "per-vertex summary:"):i]
	var total int64
	for _, line := range strings.Split(summary, "\n")[2:] {
		fields := strings.Fields(strings.NewReplacer("(s)", "", "(t)", "").Replace(line))
		if len(fields) == 6 {
			bitsOut, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			total += bitsOut
		}
	}
	if strconv.FormatInt(total, 10) != m[1] {
		t.Fatalf("record metered %s bits, replay's summary totals %d", m[1], total)
	}
}

// TestRecordEmbedsSpecNetwork: record -graph S embeds the network text
// anonnet.ScenarioNetwork(S) renders, which is what anoncast -graph S -save
// writes (cmd/anoncast's TestSaveIsTheSpecNetwork), for a random and a
// deterministic family, and record defaults to the fifo adversary.
func TestRecordEmbedsSpecNetwork(t *testing.T) {
	for _, spec := range []string{"randnet:n=8,extra=8,tfrac=20,seed=3", "karytree:h=2,d=3"} {
		f := filepath.Join(t.TempDir(), "run.trace")
		stdout(t, func() error { return cmdRecord([]string{"-graph", spec, "-o", f}) })
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := replay.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := anonnet.ScenarioNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr.GraphText, want.MarshalText()) {
			t.Fatalf("%s: the trace embeds\n%s\nthe spec's network is\n%s", spec, tr.GraphText, want.MarshalText())
		}
		if tr.Scheduler != "fifo" {
			t.Fatalf("%s: recorded under %q, want the default fifo", spec, tr.Scheduler)
		}
	}
}
