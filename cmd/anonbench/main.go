// Command anonbench regenerates every experiment table (E1-E13, printed to
// stdout): the quantitative checks of each theorem and figure of the paper.
// Timing lives in the repository benchmark (bench/, docs/BENCHMARKS.md), not
// here.
//
// Usage:
//
//	anonbench [-only E5] [-quick] [-sched greedy] [-workers N] [-v]
//	anonbench -server http://127.0.0.1:8080 [-clients 16] [-requests 32] [-distinct 8]
//
// Profiling: -cpuprofile FILE captures a CPU profile of the selected mode,
// -memprofile FILE a heap snapshot at exit; both load into `go tool pprof`.
//
// With -quick, reduced parameter sweeps are used (for smoke testing). With
// -sched, every sequential run in the sweeps uses the named adversarial
// scheduler (fifo, lifo, random, rr-vertex, latency, latency-pareto,
// starve-oldest, greedy) instead of each experiment's default — the
// qualitative verdicts must not change, since the paper's claims are
// schedule-independent. The sweeps fan out through a bounded worker pool
// (-workers, default GOMAXPROCS) and print in registry order.
//
// Server mode (-server URL) drives a load against a live anonserved daemon
// (see docs/SERVER.md), prints throughput and the cache hit rate, and fails
// when the daemon executed more runs than the load has distinct keys.
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
	serverURL := flag.String("server", "", "drive the server load against a live anonserved at this base URL and exit")
	clients := flag.Int("clients", 16, "server mode: concurrent clients")
	perClient := flag.Int("requests", 32, "server mode: requests per client")
	distinct := flag.Int("distinct", 8, "server mode: distinct cache keys in the workload")
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
	if *serverURL != "" {
		err = runServer(*serverURL, *clients, *perClient, *distinct)
	} else {
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

// runServer drives the server load against a live daemon and prints the
// measurement — the smoke CI runs against a freshly spawned anonserved.
func runServer(baseURL string, clients, perClient, distinct int) error {
	lr, err := serve.RunLoad(baseURL, serve.Load{Clients: clients, PerClient: perClient, Distinct: distinct})
	if err != nil {
		return err
	}
	fmt.Printf("server %s: %d requests (%d clients x %d), %d distinct keys, %.0f runs/sec, cache hit rate %.4f, %d executions\n",
		baseURL, clients*perClient, clients, perClient, distinct,
		lr.RunsPerSec, lr.CacheHitRate, lr.Executions)
	// A daemon that served this workload before answers some keys from its
	// warm cache, so fewer fresh executions than distinct keys is fine —
	// more is a dedup bug.
	if lr.Executions > int64(distinct) {
		return fmt.Errorf("server performed %d executions for %d distinct keys — dedup is broken", lr.Executions, distinct)
	}
	return nil
}
