// Command bench is the repository benchmark. It runs the protocol engines and
// the run server on seeded workloads, checks every output, and reports
// end-to-end metrics from a timed pass with tracing off and per-layer metrics
// from a separate traced pass. It drives the layers only through their public
// functions; nothing under internal/ knows it exists. README.md describes the
// workloads, the metrics and how to compare two commits.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload tree_seq --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh --seed 42 --out results.json
//	bash bench/run.sh --compare base1.json,base2.json head1.json,head2.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"time"
)

// pinnedSeeds are the seeds whose outcomes expected.json pins: the default
// seed and two held out while the benchmark was written.
var pinnedSeeds = []int64{42, 123, 456}

//go:embed expected.json
var expectedJSON []byte

// pinned is what expected.json fixes for one (workload, seed): the outcome of
// every engine input, or the digest of the served hot-key results.
type pinned struct {
	Outcomes  []outcome `json:"outcomes,omitempty"`
	HotDigest string    `json:"hot_digest,omitempty"`
}

// workload is one benchmark workload; engineSpec and serveSpec implement it.
type workload interface {
	Name() string
	Why() string
	// timed is the end-to-end pass: set up, then measure for dur.
	timed(seed int64, dur time.Duration, want *pinned) (*passResult, error)
	// traced is the per-layer pass.
	traced(seed int64, want *pinned) (*passResult, error)
	// pin computes the values expected.json pins for seed.
	pin(seed int64) (*pinned, error)
}

func workloads() []workload {
	var out []workload
	for _, s := range engineWorkloads() {
		out = append(out, s)
	}
	return append(out, serveWorkload())
}

// passResult is one pass over one workload: the ops it checked, how many
// failed a check, its metrics, and (traced pass) its root spans.
type passResult struct {
	attempted, failed int
	metrics           map[string]float64
	spans             []*span
}

type workloadResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics,omitempty"`
	Layers    map[string]value `json:"layers,omitempty"`
	Spans     []*span          `json:"spans,omitempty"`
}

// results is the file -out writes and -compare reads.
type results struct {
	env
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 42, "seeds the inputs: graphs, schedules and request keys")
	seconds := fs.Int("seconds", 10, "how long the timed pass measures each workload")
	trace := fs.Int("trace", -1, "0: timed pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); -1: both")
	out := fs.String("out", "", "also write the full results, spans included, to this JSON file")
	compare := fs.Bool("compare", false, "compare results files instead of running: -compare BASE[,BASE...] HEAD[,HEAD...]")
	pin := fs.Bool("pin", false, "print expected.json, the pinned outcomes of the pinned seeds, instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return compareFiles(stdout, stderr, fs.Args())
	case *pin:
		return printPinned(stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace < -1 || *trace > 1:
		fmt.Fprintf(stderr, "bench: -trace %d, want 0, 1 or -1\n", *trace)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "bench: -seconds %d is negative\n", *seconds)
		return 2
	}
	selected := workloads()
	if *name != "all" {
		i := slices.IndexFunc(selected, func(w workload) bool { return w.Name() == *name })
		if i < 0 {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = selected[i : i+1]
	}
	var expected map[string]map[string]*pinned
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fmt.Fprintf(stderr, "bench: expected.json: %v\n", err)
		return 2
	}

	res := &results{env: currentEnv(), Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadResult{}}
	sum := summary{Metrics: map[string]value{}}
	for _, w := range selected {
		want := expected[w.Name()][strconv.FormatInt(*seed, 10)]
		wr := &workloadResult{}
		if *trace != 1 {
			pr, err := w.timed(*seed, time.Duration(*seconds)*time.Second, want)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name(), err)
				return 1
			}
			wr.Attempted, wr.Failed = wr.Attempted+pr.attempted, wr.Failed+pr.failed
			wr.Metrics = withUnits(endToEnd, pr.metrics)
		}
		if *trace != 0 {
			pr, err := w.traced(*seed, want)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name(), err)
				return 1
			}
			wr.Attempted, wr.Failed = wr.Attempted+pr.attempted, wr.Failed+pr.failed
			wr.Layers = withUnits(perLayer, pr.metrics)
			wr.Spans = pr.spans
		}
		wr.Correct = wr.Failed == 0
		res.Workloads[w.Name()] = wr
		printTable(stderr, w.Name(), wr)

		sum.Attempted += wr.Attempted
		sum.Failed += wr.Failed
		prefix := ""
		if len(selected) > 1 {
			prefix = w.Name() + "/"
		}
		for k, v := range wr.Metrics {
			sum.Metrics[prefix+k] = v
		}
		for k, v := range wr.Layers {
			sum.Metrics[prefix+k] = v
		}
	}
	sum.Correct = sum.Failed == 0
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// printTable writes a workload's metrics, in definition order, for people.
func printTable(w io.Writer, name string, wr *workloadResult) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, wr.Correct, wr.Attempted, wr.Failed)
	for _, part := range []struct {
		defs []metricDef
		got  map[string]value
	}{{endToEnd, wr.Metrics}, {perLayer, wr.Layers}} {
		for _, d := range part.defs {
			if v, ok := part.got[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printPinned prints expected.json for the pinned seeds.
func printPinned(stdout, stderr io.Writer) int {
	all := map[string]map[string]*pinned{}
	for _, w := range workloads() {
		all[w.Name()] = map[string]*pinned{}
		for _, seed := range pinnedSeeds {
			p, err := w.pin(seed)
			if err != nil {
				fmt.Fprintf(stderr, "bench: pin %s seed %d: %v\n", w.Name(), seed, err)
				return 1
			}
			all[w.Name()][strconv.FormatInt(seed, 10)] = p
		}
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
