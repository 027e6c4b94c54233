package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// tinyEngineWorkloads are the engine workloads at test size.
func tinyEngineWorkloads() []*engineSpec {
	sizes := map[string]int{"tree_seq": 400, "tree_shard2": 400, "scalefree_seq": 40, "churn_seq": 4}
	specs := engineWorkloads()
	for _, s := range specs {
		s.size = sizes[s.name]
		s.instances = min(s.instances, 2)
	}
	return specs
}

func tinyServeWorkload() *serveSpec {
	s := serveWorkload()
	s.scenario = "torus:w=3,h=3"
	s.hotSeeds, s.warmup, s.tracedReqs, s.doCalls = 2, 12, 10, 3
	return s
}

func tinyWorkloads() []workload {
	var out []workload
	for _, s := range tinyEngineWorkloads() {
		out = append(out, s)
	}
	return append(out, tinyServeWorkload())
}

// The decorators must not change what a run computes, on either engine.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, s := range tinyEngineWorkloads() {
		in, err := s.build(s.size, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []sim.Engine{sim.Sequential(), shard.Engine(2)} {
			plain, err := eng.Run(in.g, in.proto, in.opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.name, eng.Name(), err)
			}
			opts := in.opts
			opts.Observer = &capture{}
			opts.Obs = obs.NewRecorder(0)
			traced, err := eng.Run(in.g, decorate(in.proto, in.g.NumVertices()), opts)
			if err != nil {
				t.Fatalf("%s on %s, decorated: %v", s.name, eng.Name(), err)
			}
			if a, b := outcomeOf(plain), outcomeOf(traced); a != b {
				t.Errorf("%s on %s: decorated run %+v, plain run %+v", s.name, eng.Name(), b, a)
			}
			if !reflect.DeepEqual(plain.Metrics.Alphabet, traced.Metrics.Alphabet) {
				t.Errorf("%s on %s: decorated run changed the alphabet", s.name, eng.Name())
			}
			if calls, _ := receiveTotals(traced.Nodes); calls == 0 {
				t.Errorf("%s on %s: the decorated nodes timed no Receive call", s.name, eng.Name())
			}
		}
	}
}

// Each offline replay must reproduce the Result of the run it replays.
func TestReplaysReproduceRuns(t *testing.T) {
	for _, s := range tinyEngineWorkloads() {
		in, err := s.build(s.size, 123)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []sim.Engine{sim.Sequential(), shard.Engine(2)} {
			capt := &capture{}
			opts := in.opts
			opts.Observer = capt
			res, err := eng.Run(in.g, in.proto, opts)
			if err != nil {
				t.Fatal(err)
			}
			seq := eng.Name() == "seq"
			rp, err := replay(in.g, in.proto, in.opts, res, capt.events, seq)
			if err != nil {
				t.Errorf("%s on %s: %v", s.name, eng.Name(), err)
				continue
			}
			if seq && rp.schedCalls < 2*res.Steps-1 {
				t.Errorf("%s: scheduler replay made %d calls for %d deliveries", s.name, rp.schedCalls, res.Steps)
			}
		}
	}
}

// A replay fed a stream that is not the run's must say so.
func TestReplayRejectsForeignStream(t *testing.T) {
	s := tinyEngineWorkloads()[0]
	in, err := s.build(s.size, 1)
	if err != nil {
		t.Fatal(err)
	}
	capt := &capture{}
	opts := in.opts
	opts.Observer = capt
	res, err := sim.Run(in.g, in.proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	other := *res
	other.Metrics.TotalBits++
	if _, err := replay(in.g, in.proto, in.opts, &other, capt.events, true); err == nil {
		t.Error("replay accepted a Result whose bit count the stream does not produce")
	}
	opts.Seed++
	if _, err := replay(in.g, in.proto, opts, res, capt.events, true); err == nil {
		t.Error("scheduler replay under another seed reproduced the run's delivery order")
	}
}

// Every workload, at test size, passes both passes with no failed op.
func TestWorkloadsPass(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.Name(), func(t *testing.T) {
			for _, pass := range []struct {
				name string
				defs []metricDef
				run  func() (*passResult, error)
			}{
				{"timed", endToEnd, func() (*passResult, error) { return w.timed(7, 200*time.Millisecond, nil) }},
				{"traced", nil, func() (*passResult, error) { return w.traced(7, nil) }},
			} {
				pr, err := pass.run()
				if err != nil {
					t.Fatalf("%s pass: %v", pass.name, err)
				}
				if pr.attempted == 0 || pr.failed != 0 {
					t.Errorf("%s pass: %d of %d ops failed", pass.name, pr.failed, pr.attempted)
				}
				for _, d := range pass.defs {
					if v := pr.metrics[d.Name]; !(v > 0) {
						t.Errorf("%s pass: end-to-end metric %s = %v, want a positive number", pass.name, d.Name, v)
					}
				}
				for name, v := range pr.metrics {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s pass: %s = %v", pass.name, name, v)
					}
				}
			}
		})
	}
}

// A pinned seed whose outcome moved fails every op it touches.
func TestPinnedMismatchFailsOps(t *testing.T) {
	s := tinyEngineWorkloads()[0]
	want, err := s.pin(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.timed(5, 0, want)
	if err != nil || pr.failed != 0 {
		t.Fatalf("matching pin: %d failed, err %v", pr.failed, err)
	}
	want.Outcomes[1].CommBits++
	if pr, err = s.timed(5, 0, want); err != nil || pr.failed != pr.attempted/len(want.Outcomes) {
		t.Fatalf("pin of input 1 moved: %d of %d ops failed, want the %d on input 1 (err %v)",
			pr.failed, pr.attempted, pr.attempted/len(want.Outcomes), err)
	}
}

// expected.json must hold what the workloads compute today: |Sigma_G|, the
// bit counts, verdicts and churn and partition counts for the pinned seeds.
func TestPinnedOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	var expected map[string]map[string]*pinned
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		for _, seed := range pinnedSeeds {
			got, err := w.pin(seed)
			if err != nil {
				t.Fatal(err)
			}
			if want := expected[w.Name()][strconv.FormatInt(seed, 10)]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: computed %+v, expected.json pins %+v (regenerate with -pin only for a deliberate change)", w.Name(), seed, got, want)
			}
		}
	}
}

// BENCHMARK.json at the repository root describes this program.
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name() || b.Workloads[i].Why != w.Why() {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, b.Workloads[i], w.Name(), w.Why())
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end out of sync:\n BENCHMARK.json %+v\n program        %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer out of sync:\n BENCHMARK.json %+v\n program        %+v", b.PerLayer, perLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	ten := func(v, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v + step*float64(i%3)
		}
		return out
	}
	for _, c := range []struct {
		name       string
		def        metricDef
		base, head []float64
		want       string
	}{
		{"faster", lower, ten(100, 1), ten(80, 1), "gain"},
		{"slower", lower, ten(100, 1), ten(120, 1), "regression"},
		{"same", lower, ten(100, 1), ten(101, 1), "within bound"},
		{"noisy parent", lower, ten(100, 30), ten(105, 30), "unresolved"},
		{"noisy but always better", lower, ten(100, 30), ten(20, 1), "gain"},
		{"throughput up", higher, ten(100, 1), ten(130, 1), "gain"},
		{"throughput down", higher, ten(100, 1), ten(70, 1), "regression"},
		{"one pair faster", lower, []float64{100}, []float64{80}, "within bound"},
	} {
		if got := judge(c.def, c.base, c.head).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, e env, v float64) string {
		r := results{env: e, Workloads: map[string]*workloadResult{
			"tree_seq": {Correct: true, Metrics: map[string]value{"op_ms_p50": {Value: v, Unit: "ms"}}},
		}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := currentEnv()
	a, b := write("a.json", here, 100), write("b.json", here, 150)
	other := here
	other.CPUModel += " (other)"
	c := write("c.json", other, 100)
	var out, errs bytes.Buffer
	if code := compareFiles(&out, &errs, []string{a, b}); code != 1 {
		t.Errorf("a 50%% slower median: exit %d, want 1 (regression)\n%s%s", code, out.String(), errs.String())
	}
	if code := compareFiles(&out, &errs, []string{a, c}); code != 2 {
		t.Errorf("results from another CPU model: exit %d, want 2", code)
	}
}

func TestSplitResponse(t *testing.T) {
	body := []byte(`{"cache":{"status":"hit","key":"00ff"},"result":{"report":{"steps":3}}}` + "\n")
	status, result, err := splitResponse(body)
	if err != nil || status != "hit" || string(result) != `{"report":{"steps":3}}` {
		t.Errorf("splitResponse = %q, %q, %v", status, result, err)
	}
	if _, _, err := splitResponse([]byte(`{"error":{"code":"bad_json"}}`)); err == nil {
		t.Error("splitResponse accepted an error body")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "-1"},
		{"extra"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result line", args, code, out.String())
		}
	}
}
