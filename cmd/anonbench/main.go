// Command anonbench regenerates every experiment table (E1-E13, printed to
// stdout): the quantitative checks of each theorem and figure of the paper. It is
// also the keeper of the performance trajectory: -bench emits a
// machine-readable BENCH.json (see docs/BENCHMARKS.md) that CI compares
// against the committed BENCH_baseline.json.
//
// Usage:
//
//	anonbench [-only E5] [-quick] [-sched greedy] [-workers N] [-v]
//	anonbench -bench [-quick] [-json BENCH.json] [-baseline BENCH_baseline.json] [-obs TIMELINE.json]
//	anonbench -trend BENCH_a.json BENCH_b.json [BENCH_c.json ...]
//	anonbench -graph "torus:w=36,h=32" [-repeats 3] [-faults "crash=5:1,recover=5:3"]
//	anonbench -server http://127.0.0.1:8080 [-clients 16] [-requests 32] [-distinct 8]
//
// Profiling: -cpuprofile FILE captures a CPU profile of the selected mode,
// -memprofile FILE a heap snapshot at exit; both load into `go tool pprof`.
// In bench mode -obs FILE additionally writes TIMELINE.json — the benchmark
// workload's run-telemetry report (docs/OBSERVABILITY.md), captured in an
// untimed extra run so the measured numbers stay undistorted; -obs-every N
// sets its sampling stride.
//
// With -quick, reduced parameter sweeps are used (for smoke testing). With
// -sched, every sequential run in the sweeps uses the named adversarial
// scheduler (fifo, lifo, random, rr-vertex, latency, latency-pareto,
// starve-oldest, greedy) instead of each experiment's default — the
// qualitative verdicts must not change, since the paper's claims are
// schedule-independent. Table mode fans the sweeps through a bounded worker
// pool (-workers, default GOMAXPROCS) and prints them in registry order;
// bench mode times each tier serially so wall-clocks stay undistorted and
// additionally measures the sharded engine (1 shard vs 4, with speedup).
// The -baseline gate warns on stderr when the baseline's toolchain or
// GOMAXPROCS differ from the current run's — a stale baseline should be
// regenerated, not silently trusted.
//
// Trend mode reads several BENCH*.json files (oldest first) and prints a
// per-metric trajectory table — ns/delivery, allocs/delivery, shard
// speedup, tier wall-clocks — with deltas against the first file, so CI
// bench artifacts chart the repository's speed across builds.
//
// Graph mode (-graph "family:param=value,...", same scenario-registry
// syntax as anoncast and anonshrink record) times the sequential general broadcast
// on one generated scenario and prints the per-delivery rate — a one-off
// measurement outside the BENCH.json trajectory, whose per-family slice
// bench mode records under scenario_broadcast. -faults arms a churn plan
// (same grammar as anoncast, compiled through the shared scenario-spec
// helper) for every timed run; a plan that stalls the broadcast short of
// termination is measured to quiescence, not rejected.
//
// Server mode (-server URL) drives the standard server load against a live
// anonserved daemon (see docs/SERVER.md) and prints throughput and the
// cache hit rate; bench mode measures the same workload in-process and
// records it under server_throughput.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E4)")
	quick := flag.Bool("quick", false, "use reduced sweeps")
	sched := flag.String("sched", "", "adversarial scheduler for all sequential runs: "+strings.Join(sim.SchedulerNames(), "|"))
	workers := flag.Int("workers", 0, "worker-pool size for the sweep matrix (0 = GOMAXPROCS)")
	bench := flag.Bool("bench", false, "benchmark mode: measure the hot path and tier wall-clocks instead of printing tables")
	trend := flag.Bool("trend", false, "trend mode: read the BENCH*.json files given as arguments (oldest first) and print the per-metric trajectory")
	jsonPath := flag.String("json", "", "bench mode: write BENCH.json here (\"-\" or empty = stdout)")
	baseline := flag.String("baseline", "", "bench mode: compare against this baseline BENCH.json and fail on >25% regression (ns/delivery, shard speedup)")
	graphSpec := flag.String("graph", "", "time one scenario registry spec \"family[:param=value,...]\" and exit")
	repeats := flag.Int("repeats", 3, "graph mode: timed runs to average")
	faults := flag.String("faults", "", "graph mode: fault/churn plan \"drop=EDGE:K,loss=PCT,crash=VERTEX:K,recover=VERTEX:K,cut=EDGE:K,join=EDGE:K,lossat=SEND:PCT,seed=N\" armed for every timed run (shared scenario-spec helper)")
	serverURL := flag.String("server", "", "drive the server load against a live anonserved at this base URL and exit")
	clients := flag.Int("clients", 16, "server mode: concurrent clients")
	perClient := flag.Int("requests", 32, "server mode: requests per client")
	distinct := flag.Int("distinct", 8, "server mode: distinct cache keys in the workload")
	obsPath := flag.String("obs", "", "bench mode: write the benchmark workload's run-telemetry report (TIMELINE.json) here after the timed runs")
	obsEvery := flag.Int("obs-every", 0, "telemetry sampling stride in deliveries (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	verbose := flag.Bool("v", false, "print per-experiment timing to stderr")
	flag.Parse()
	if err := experiments.SetScheduler(*sched); err != nil {
		fmt.Fprintln(os.Stderr, "anonbench:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anonbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "anonbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	var err error
	switch {
	case *trend:
		err = runTrend(flag.Args())
	case *graphSpec != "":
		err = runScenario(*graphSpec, *faults, *repeats)
	case *serverURL != "":
		err = runServer(*serverURL, *clients, *perClient, *distinct)
	case *bench:
		err = runBench(*quick, *jsonPath, *baseline, *obsPath, *obsEvery)
	default:
		err = run(*only, *quick, *workers, *verbose)
	}
	if err == nil && *memProfile != "" {
		err = writeHeapProfile(*memProfile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "anonbench:", err)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap after a final GC, the form pprof's
// allocation analysis expects.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// run executes the selected sweeps through the worker pool and prints the
// tables in registry order, exactly as the serial loop did.
func run(only string, quick bool, workers int, verbose bool) error {
	sweeps := experiments.Sweeps(quick)
	if only != "" {
		var keep []experiments.Sweep
		for _, s := range sweeps {
			if strings.EqualFold(s.ID, only) {
				keep = append(keep, s)
			}
		}
		sweeps = keep
	}
	type result struct {
		t       *experiments.Table
		err     error
		elapsed time.Duration
	}
	results := make([]result, len(sweeps))
	par.Map(workers, len(sweeps), func(i int) {
		start := time.Now()
		t, err := sweeps[i].Run()
		results[i] = result{t: t, err: err, elapsed: time.Since(start)}
	})
	for i, s := range sweeps {
		if results[i].err != nil {
			return fmt.Errorf("%s: %w", s.ID, results[i].err)
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "%s done in %s\n", s.ID, results[i].elapsed.Round(time.Millisecond))
		}
		fmt.Println(results[i].t.Render())
	}
	return nil
}

// runBench produces BENCH.json and optionally gates it against a baseline.
// With obsPath, an untimed telemetry capture of the benchmark workload runs
// after the measurements (never during — telemetry must not distort them) and
// its report is written as TIMELINE.json.
func runBench(quick bool, jsonPath, baseline, obsPath string, obsEvery int) error {
	rep, err := experiments.RunBench(quick, serve.BenchThroughput)
	if err != nil {
		return err
	}
	if err := experiments.WriteBench(rep, jsonPath); err != nil {
		return err
	}
	if obsPath != "" {
		obsRep, err := experiments.CaptureObs(quick, obsEvery)
		if err != nil {
			return err
		}
		data, err := obsRep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(obsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: telemetry -> %s\n", obsPath)
	}
	if jsonPath != "" && jsonPath != "-" {
		fmt.Fprintf(os.Stderr, "bench: %.1f ns/delivery, %.3f allocs/delivery, peak in-flight %d, shard speedup %.2fx (%d shards), total %.0f ms -> %s\n",
			rep.Broadcast.NsPerDelivery, rep.Broadcast.AllocsPerDelivery,
			rep.Broadcast.PeakInFlight, rep.ShardBroadcast.Speedup,
			rep.ShardBroadcast.Shards, rep.TotalWallMS, jsonPath)
		sf := rep.ShardScalefree
		fmt.Fprintf(os.Stderr, "bench: scalefree shard tier: speedup %.2fx, %d ghost vertices aggregating %d of %d cut edges (%d effective), %d steals moving %d edges\n",
			sf.Speedup, sf.GhostVertices, sf.GhostEdges, sf.CutEdges,
			sf.EffectiveCutEdges, sf.Steals, sf.StolenEdges)
	}
	if baseline == "" {
		return nil
	}
	base, err := experiments.ReadBench(baseline)
	if err != nil {
		return err
	}
	// A stale baseline (different toolchain or core count) must be loud:
	// the gate still runs, but these numbers are not silently comparable.
	for _, w := range experiments.StaleBaselineWarnings(rep, base) {
		fmt.Fprintf(os.Stderr, "bench: WARNING: %s\n", w)
	}
	warns, err := experiments.CompareBenchWarnings(rep, base)
	for _, w := range warns {
		fmt.Fprintf(os.Stderr, "bench: WARNING: %s\n", w)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: within budget of baseline %s (%.1f ns/delivery vs %.1f, shard speedup %.2fx vs %.2fx)\n",
		baseline, rep.Broadcast.NsPerDelivery, base.Broadcast.NsPerDelivery,
		rep.ShardBroadcast.Speedup, base.ShardBroadcast.Speedup)
	return nil
}

// runServer drives the server load against a live daemon and prints the
// measurement — the smoke CI runs against a freshly spawned anonserved.
func runServer(baseURL string, clients, perClient, distinct int) error {
	sb, err := serve.RunLoad(baseURL, serve.Load{Clients: clients, PerClient: perClient, Distinct: distinct})
	if err != nil {
		return err
	}
	fmt.Printf("server %s: %d requests (%d clients x %d), %d distinct keys, %.0f runs/sec, cache hit rate %.4f, %d executions\n",
		baseURL, sb.Requests, sb.Clients, sb.RequestsPerClient, sb.DistinctKeys,
		sb.RunsPerSec, sb.CacheHitRate, sb.Executions)
	// A daemon that served this workload before answers some keys from its
	// warm cache, so fewer fresh executions than distinct keys is fine —
	// more is a dedup bug.
	if sb.Executions > int64(sb.DistinctKeys) {
		return fmt.Errorf("server performed %d executions for %d distinct keys — dedup is broken", sb.Executions, sb.DistinctKeys)
	}
	return nil
}

// runScenario times the general broadcast on one scenario spec, optionally
// under a churn plan.
func runScenario(spec, faultSpec string, repeats int) error {
	sb, err := experiments.BenchScenario(spec, faultSpec, repeats)
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: |V|=%d |E|=%d, %d deliveries/run, %.1f ns/delivery (%s scheduler, %d repeats)\n",
		sb.Spec, sb.Vertices, sb.Edges, sb.Deliveries, sb.NsPerDelivery, sb.Scheduler, sb.Repeats)
	if sb.Faults != "" {
		fmt.Printf("scenario %s: fault plan %s dropped %d deliveries/run\n", sb.Spec, sb.Faults, sb.Dropped)
	}
	return nil
}

// runTrend prints the trajectory table across the given BENCH.json files.
func runTrend(files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("trend mode needs at least two BENCH.json files (oldest first), have %d", len(files))
	}
	reports := make([]*experiments.BenchReport, len(files))
	for i, f := range files {
		rep, err := experiments.ReadBench(f)
		if err != nil {
			return err
		}
		reports[i] = rep
	}
	table, err := experiments.TrendTable(files, reports)
	if err != nil {
		return err
	}
	fmt.Print(table)
	return nil
}
