// Command anonshrink is the trace tool: it records, replays, renders and
// minimizes adversarial delivery schedules. A recorded trace is
// self-contained (it embeds the network, the protocol name, the scheduler
// name and seed alongside the full send/deliver stream), so a single file
// turns any adversarial run — including a conformance divergence found in
// CI — into a deterministic regression case.
//
// Record a schedule:
//
//	anonshrink record -graph randnet:n=12,seed=5 -proto generalcast -sched random -seed 3 -o run.trace
//	anonshrink record -graph torus:w=4,h=4 -proto auto -faults crash=3:1,recover=3:4 -o run.trace
//	anonshrink record -net graph.txt -proto labelcast -sched latency-pareto -o run.trace
//
// The network is a scenario registry spec (-graph, default randnet, the
// default of anoncast too) or a file in the anonnet v1 text format (-net).
// The spec's seed= seeds the generator; -seed seeds the scheduler (default
// fifo, the adversary of anoncast, the facade and the run server).
//
// Replay it byte-identically (errors loudly on any divergence — wrong graph,
// wrong protocol, or changed engine behavior). The per-event timeline, the
// per-vertex summary and the run telemetry are views of the replay, so
// every timeline comes from a schedule that strict replay reproduces:
//
//	anonshrink replay -in run.trace [-timeline] [-summary] [-obs FILE|-] [-obs-every K]
//
// Delta-debug it to a 1-minimal failing schedule for a predicate:
//
//	anonshrink shrink -in run.trace -pred terminated -o min.trace
//	anonshrink shrink -in run.trace -pred visited:7 -o min.trace
//
// Differential-fuzz the neighborhood of recorded schedules (mutate each
// seed into nearby valid schedules — swapping causally independent adjacent
// deliveries, promoting pending deliveries, splicing prefixes, truncating
// tails — and demand the schedule-independent outcome never changes; any
// violation is delta-debugged to a 1-minimal repro):
//
//	anonshrink fuzz -in run.trace -n 64
//	anonshrink fuzz -corpus internal/replay/testdata -o repro-dir
//
// Predicates: quiescent, terminated, not-all-visited, all-visited,
// label-collision, and visited:<vertex>; a comma-separated list is their
// conjunction. The output trace is marked truncated and replays leniently
// (the run simply stops when the schedule is exhausted). Beware predicates
// the empty schedule already satisfies (quiescent, not-all-visited): alone
// they shrink to a zero-delivery witness, which the tool flags — add a
// visited:<v> floor, e.g. -pred quiescent,visited:3.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/replay/fuzz"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "shrink":
		err = cmdShrink(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "anonshrink:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  anonshrink record [-graph SPEC | -net FILE] [-proto P] [-sched S] [-seed K] [-faults SPEC] -o OUT
  anonshrink replay -in FILE [-timeline] [-summary] [-v] [-obs FILE|-] [-obs-every K]
  anonshrink shrink -in FILE -pred PRED -o OUT
  anonshrink fuzz   (-in FILE | -corpus DIR) [-n MUTANTS] [-seed K] [-fallback S] [-o DIR]

graph families: %s
protocols: auto|%s
schedulers: %s
predicates: quiescent|terminated|all-visited|not-all-visited|label-collision|visited:<v>
            (comma-separate for a conjunction, e.g. quiescent,visited:3)
`, strings.Join(scenario.Names(), "|"), strings.Join(replay.ProtocolNames(), "|"), strings.Join(sim.SchedulerNames(), "|"))
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		netF   = fs.String("net", "", "load the network from this file (anonnet v1 text); overrides -graph")
		spec   = fs.String("graph", "randnet", "scenario registry spec \"family[:param=value,...,seed=N]\" ("+strings.Join(scenario.Names(), "|")+")")
		proto  = fs.String("proto", "generalcast", "protocol: auto|"+strings.Join(replay.ProtocolNames(), "|")+" (auto picks by the graph's class)")
		sched  = fs.String("sched", "fifo", "adversarial scheduler: "+strings.Join(sim.SchedulerNames(), "|"))
		seed   = fs.Int64("seed", 1, "scheduler seed (the spec's seed= seeds the generator)")
		faults = fs.String("faults", "", "fault/churn plan (scenario spec, e.g. crash=3:1,recover=3:4); recorded into the trace header and re-armed on replay and shrink")
		out    = fs.String("o", "", "output trace file (required)")
	)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	g, err := loadGraph(*netF, *spec)
	if err != nil {
		return err
	}
	if *proto == "auto" {
		*proto = autoProtocol(g)
	}
	newProto, err := replay.ProtocolFactory(*proto)
	if err != nil {
		return err
	}
	adversary, err := sim.NewScheduler(*sched)
	if err != nil {
		return err
	}
	fplan, plan, err := scenario.CompileSpec(*faults, g)
	if err != nil {
		return err
	}
	rec := replay.NewRecorder()
	r, err := sim.Run(g, newProto(), sim.Options{Scheduler: adversary, Seed: *seed, Faults: fplan, Observer: rec})
	if err != nil {
		return err
	}
	tr := rec.Trace(g, *proto, *sched, *seed)
	tr.Faults = plan.Canonical()
	if err := os.WriteFile(*out, replay.Encode(tr), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s on %s under %s/seed=%d: %s after %d deliveries, %d messages, %d bits\n",
		*proto, g, *sched, *seed, r.Verdict, r.Steps, r.Metrics.Messages, r.Metrics.TotalBits)
	if tr.Faults != "" {
		fmt.Printf("fault plan pinned in header: %s (%d dropped this run)\n", tr.Faults, r.Dropped)
	}
	fmt.Printf("wrote %s (%d events, %d bytes)\n", *out, len(tr.Events), len(replay.Encode(tr)))
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "input trace file (required)")
		timeline = fs.Bool("timeline", false, "print the replayed per-event timeline")
		summary  = fs.Bool("summary", false, "print the replayed per-vertex summary")
		verbose  = fs.Bool("v", false, "print the trace header and the embedded network text")
		obsFile  = fs.String("obs", "", "capture the replay's telemetry and write the report JSON to this file (\"-\" = stdout); see docs/OBSERVABILITY.md")
		obsEvery = fs.Int("obs-every", 0, "telemetry sampling stride in deliveries (0 = default)")
	)
	fs.Parse(args)
	tr, g, newProto, err := loadTrace(*in)
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Printf("header: version=%d fingerprint=%016x proto=%s sched=%s seed=%d faults=%q truncated=%v events=%d\n",
			tr.Version, tr.GraphFP, tr.Protocol, tr.Scheduler, tr.Seed, tr.Faults, tr.Truncated, len(tr.Events))
		fmt.Printf("embedded network:\n%s\n", tr.GraphText)
	}
	var tl bytes.Buffer
	v := newView(g, nil)
	if *timeline {
		v.timeline = &tl
	}
	var obsRec *obs.Recorder
	if *obsFile != "" {
		obsRec = obs.NewRecorder(*obsEvery)
	}
	r, err := replay.Run(g, newProto(), tr, sim.Options{Observer: v, Obs: obsRec})
	if err != nil {
		return err
	}
	kind := "strict"
	if tr.Truncated {
		kind = "lenient (truncated trace)"
	}
	fmt.Printf("replayed %s on %s (%s): %s after %d deliveries\n",
		tr.Protocol, g, kind, r.Verdict, r.Steps)
	if tr.Faults != "" {
		fmt.Printf("fault plan re-armed from header: %s (%d dropped)\n", tr.Faults, r.Dropped)
	}
	if *timeline {
		fmt.Println("\ntimeline:")
		if _, err := tl.WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	if *summary {
		fmt.Println("\nper-vertex summary:")
		if err := v.writeSummary(os.Stdout); err != nil {
			return err
		}
	}
	if obsRec == nil {
		return nil
	}
	data, err := obsRec.Report().JSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *obsFile == "-" {
		fmt.Println()
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*obsFile, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\ntelemetry: %s\n", *obsFile)
	return nil
}

func cmdShrink(args []string) error {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	var (
		in   = fs.String("in", "", "input trace file (required)")
		pred = fs.String("pred", "", "failing predicate (required): quiescent|terminated|all-visited|not-all-visited|label-collision|visited:<v>")
		out  = fs.String("o", "", "output trace file (required)")
	)
	fs.Parse(args)
	if *out == "" || *pred == "" {
		return fmt.Errorf("shrink: -pred and -o are required")
	}
	tr, g, newProto, err := loadTrace(*in)
	if err != nil {
		return err
	}
	p, err := buildPredicate(*pred, g)
	if err != nil {
		return err
	}
	res, err := replay.Shrink(g, newProto, tr, p)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, replay.Encode(res.Trace), 0o644); err != nil {
		return err
	}
	fmt.Printf("shrunk %d -> %d deliveries in %d oracle runs\n", res.Before, res.After, res.Runs)
	if res.Trace.Faults != "" {
		fmt.Printf("fault plan held fixed through the search: %s\n", res.Trace.Faults)
	}
	if res.After == 0 {
		fmt.Fprintln(os.Stderr, "anonshrink: warning: the empty schedule already satisfies this predicate; the witness carries no information — tighten the predicate (e.g. add a visited:<v> floor)")
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "seed trace file")
		corpus   = fs.String("corpus", "", "directory of seed .trace files (alternative to -in)")
		n        = fs.Int("n", fuzz.DefaultMutations, "mutants per seed trace")
		seed     = fs.Int64("seed", 1, "mutation RNG seed (campaigns are deterministic in it)")
		fallback = fs.String("fallback", "fifo", "scheduler completing mutant runs: "+strings.Join(sim.SchedulerNames(), "|"))
		out      = fs.String("o", "", "directory to write violation repro traces (optional)")
	)
	fs.Parse(args)
	var (
		seeds []*replay.Trace
		err   error
	)
	switch {
	case *in != "" && *corpus != "":
		return fmt.Errorf("fuzz: -in and -corpus are mutually exclusive")
	case *in != "":
		data, rerr := os.ReadFile(*in)
		if rerr != nil {
			return rerr
		}
		tr, derr := replay.Decode(data)
		if derr != nil {
			return derr
		}
		seeds = []*replay.Trace{tr}
	case *corpus != "":
		seeds, err = fuzz.Corpus(*corpus)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("fuzz: one of -in or -corpus is required")
	}
	rep, err := fuzz.Campaign(seeds, fuzz.Options{Mutations: *n, Seed: *seed, Fallback: *fallback})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	for i, v := range rep.Violations {
		fmt.Printf("violation %d under %s:\n  got:  %s\n  want: %s\n", i, v.Mutation, v.Got, v.Want)
		if v.Shrunk != nil {
			fmt.Printf("  shrunk %d -> %d deliveries in %d oracle runs\n", v.Shrunk.Before, v.Shrunk.After, v.Shrunk.Runs)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			tr := v.Trace
			if v.Shrunk != nil {
				tr = v.Shrunk.Trace
			}
			path := filepath.Join(*out, fmt.Sprintf("fuzz-violation-%d-%s.trace", i, v.Mutation))
			if err := os.WriteFile(path, replay.Encode(tr), 0o644); err != nil {
				return err
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d invariance violations", len(rep.Violations))
	}
	return nil
}

func loadTrace(path string) (*replay.Trace, *graph.G, func() protocol.Protocol, error) {
	if path == "" {
		return nil, nil, nil, fmt.Errorf("-in is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := replay.Decode(data)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := tr.Graph()
	if err != nil {
		return nil, nil, nil, err
	}
	newProto, err := replay.ProtocolFactory(tr.Protocol)
	if err != nil {
		return nil, nil, nil, err
	}
	return tr, g, newProto, nil
}

// loadGraph loads the network from netFile, else builds the scenario spec.
func loadGraph(netFile, spec string) (*graph.G, error) {
	if netFile == "" {
		return scenario.Parse(spec)
	}
	f, err := os.Open(netFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ParseText(f)
}

// autoProtocol names the broadcast protocol for g's class: tree broadcast on
// a grounded tree, DAG broadcast on a DAG, general broadcast otherwise.
func autoProtocol(g *graph.G) string {
	switch g.Classify() {
	case graph.ClassGroundedTree:
		return "treecast/pow2"
	case graph.ClassDAG:
		return "dagcast"
	default:
		return "generalcast"
	}
}

// buildPredicate parses a predicate name, or a comma-separated conjunction
// of them.
func buildPredicate(name string, g *graph.G) (replay.Predicate, error) {
	if parts := strings.Split(name, ","); len(parts) > 1 {
		preds := make([]replay.Predicate, len(parts))
		for i, part := range parts {
			p, err := buildPredicate(strings.TrimSpace(part), g)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return func(r *sim.Result, err error) bool {
			for _, p := range preds {
				if !p(r, err) {
					return false
				}
			}
			return true
		}, nil
	}
	switch {
	case name == "quiescent":
		return func(r *sim.Result, err error) bool {
			return err == nil && r.Verdict == sim.Quiescent
		}, nil
	case name == "terminated":
		return func(r *sim.Result, err error) bool {
			return err == nil && r.Verdict == sim.Terminated
		}, nil
	case name == "all-visited":
		return func(r *sim.Result, err error) bool {
			return err == nil && r.AllVisited()
		}, nil
	case name == "not-all-visited":
		return func(r *sim.Result, err error) bool {
			return err == nil && !r.AllVisited()
		}, nil
	case name == "label-collision":
		return func(r *sim.Result, err error) bool {
			if err != nil {
				return false
			}
			var labels []fuzz.Label
			for v, node := range r.Nodes {
				if ln, ok := node.(core.Labeled); ok {
					if u, has := ln.Label(); has {
						labels = append(labels, fuzz.Label{V: v, U: u})
					}
				}
			}
			return len(fuzz.Overlaps(labels)) > 0
		}, nil
	case strings.HasPrefix(name, "visited:"):
		v, err := strconv.Atoi(strings.TrimPrefix(name, "visited:"))
		if err != nil || v < 0 || v >= g.NumVertices() {
			return nil, fmt.Errorf("visited:<v> needs a vertex in [0, %d), have %q", g.NumVertices(), name)
		}
		return func(r *sim.Result, err error) bool {
			return err == nil && r.Visited[v]
		}, nil
	default:
		return nil, fmt.Errorf("unknown predicate %q", name)
	}
}
