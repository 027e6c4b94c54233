// Command anoncast runs a broadcasting protocol on a generated directed
// anonymous network and reports the paper's quality metrics.
//
// Usage:
//
//	anoncast -topo ring -n 12 -msg "hello" [-proto general] [-engine concurrent] [-sched greedy -seed 7] [-dot out.dot]
//
// Topologies: line, chain, ring, karytree (use -h and -d), randtree,
// randdag, randnet, layered (use -layers and -width).
//
// Engines: seq (deterministic, adversarial scheduler), concurrent
// (goroutine per vertex), sync (global rounds), tcp (real sockets), shard
// (partitioned sequential loops with a deterministic merge). -shards N
// groups vertices into N workers: the shard count of the shard engine
// (default anonnet.DefaultShards) and the socket partition of the tcp
// engine (default one worker per vertex). Schedulers (seq and shard engines): every
// sim.SchedulerNames entry — fifo, lifo, random, rr-vertex, latency,
// latency-pareto, starve-oldest, greedy.
//
// -record FILE pins the run's delivery schedule to a self-contained trace
// file — on every engine: the deterministic single-threaded engines record
// directly, the wild-capture engines (concurrent, tcp, shard) capture their
// schedule through a serializing observer and canonicalize it (scheduler
// header reads wild-concurrent/wild-tcp/wild-shard). -replay FILE
// re-executes a trace byte-identically (network and protocol come from the
// file). Minimize or differential-fuzz traces with cmd/anonshrink.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "anoncast:", err)
		os.Exit(1)
	}
}

type params struct {
	topo                             string
	n, height, degree, layers, width int
	extra                            int
	shards                           int
	seed                             int64
	msg, proto, engine, sched        string
	dot, file, save                  string
	record, replay                   string
	graph, faults, chaos             string
	obs, obsFormat                   string
	obsEvery                         int
}

// parseFlags reads the command line into params; -h and malformed flags
// exit the process.
func parseFlags(args []string) params {
	var p params
	fs := flag.NewFlagSet("anoncast", flag.ExitOnError)
	fs.StringVar(&p.topo, "topo", "randnet", "topology: line|chain|ring|karytree|randtree|randdag|randnet|layered")
	fs.IntVar(&p.n, "n", 16, "internal vertex count (line/chain/ring/randtree/randdag/randnet)")
	fs.IntVar(&p.height, "height", 3, "tree height (karytree)")
	fs.IntVar(&p.degree, "d", 2, "tree degree (karytree)")
	fs.IntVar(&p.layers, "layers", 4, "layer count (layered)")
	fs.IntVar(&p.width, "width", 3, "layer width (layered)")
	fs.IntVar(&p.extra, "extra", 16, "extra random edges (randdag/randnet)")
	fs.Int64Var(&p.seed, "seed", 1, "generator / scheduler seed")
	fs.StringVar(&p.msg, "msg", "hello, anonymous world", "broadcast payload")
	fs.StringVar(&p.proto, "proto", "auto", "protocol: "+strings.Join(anonnet.ProtocolNames(), "|"))
	fs.StringVar(&p.engine, "engine", "seq", "engine: "+strings.Join(anonnet.EngineNames(), "|"))
	fs.IntVar(&p.shards, "shards", 0, fmt.Sprintf("worker partition: 0 = engine default (%d shards for shard, one worker per vertex for tcp)", anonnet.DefaultShards))
	fs.StringVar(&p.sched, "sched", "fifo", "adversarial scheduler (seq/shard engines): "+strings.Join(anonnet.SchedulerNames(), "|"))
	fs.StringVar(&p.dot, "dot", "", "write the network in DOT format to this file")
	fs.StringVar(&p.file, "file", "", "load the network from this file (anonnet v1 text format) instead of generating one")
	fs.StringVar(&p.save, "save", "", "write the generated network to this file in the text format")
	fs.StringVar(&p.record, "record", "", "write the run's delivery schedule to this trace file (any engine; wild schedules are canonicalized)")
	fs.StringVar(&p.replay, "replay", "", "replay a recorded trace file (seq engine; overrides -topo/-file/-sched/-proto)")
	fs.StringVar(&p.graph, "graph", "", "scenario registry spec \"family[:param=value,...]\" ("+strings.Join(anonnet.ScenarioFamilies(), "|")+"); overrides -topo")
	fs.StringVar(&p.faults, "faults", "", "fault/churn plan \"drop=EDGE:K,loss=PCT,crash=VERTEX:K,recover=VERTEX:K,cut=EDGE:K,join=EDGE:K,lossat=SEND:PCT,seed=N\" (terms optional; drop/crash/recover/cut/join/lossat repeatable)")
	fs.StringVar(&p.chaos, "chaos", "", "socket chaos spec \"disconnect=N,loss=PCT,delay=MS,seed=S\" (tcp engine only; every disturbance heals via reconnect/backoff/resend)")
	fs.StringVar(&p.obs, "obs", "", "capture run telemetry and write it to this file (\"-\" = stdout); see docs/OBSERVABILITY.md")
	fs.IntVar(&p.obsEvery, "obs-every", 0, "telemetry sampling stride in deliveries (0 = default)")
	fs.StringVar(&p.obsFormat, "obs-format", "json", "telemetry output format: json|table|prom")
	fs.Parse(args) // ExitOnError: a malformed flag exits
	return p
}

func run(p params) error {
	var net *anonnet.Network
	var replayTrace *anonnet.TraceData
	var err error
	switch {
	case p.replay != "":
		data, rerr := os.ReadFile(p.replay)
		if rerr != nil {
			return rerr
		}
		replayTrace, err = anonnet.DecodeTrace(data)
		if err != nil {
			return err
		}
		net, err = replayTrace.Network()
		if err != nil {
			return err
		}
		p.proto, err = protoFlagFor(replayTrace.Protocol())
		if err != nil {
			return err
		}
		fmt.Printf("replaying %s\n", replayTrace)
	case p.file != "":
		f, ferr := os.Open(p.file)
		if ferr != nil {
			return ferr
		}
		net, err = anonnet.ParseNetwork(f)
		f.Close()
	case p.graph != "":
		net, err = anonnet.ScenarioNetwork(p.graph)
	default:
		net, err = buildNetwork(p.topo, p.n, p.height, p.degree, p.layers, p.width, p.extra, p.seed)
	}
	if err != nil {
		return err
	}
	if p.save != "" {
		if err := os.WriteFile(p.save, net.MarshalText(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", p.save)
	}
	fmt.Printf("network: %s  (|V|=%d |E|=%d class=%s dout=%d)\n",
		net, net.NumVertices(), net.NumEdges(), net.Class(), net.MaxOutDegree())

	opts, err := buildOptions(p.proto, p.engine, p.sched, p.seed, p.shards)
	if err != nil {
		return err
	}
	opts = append(opts, anonnet.WithAlphabetTracking())
	var recorded *anonnet.TraceData
	if p.record != "" {
		opts = append(opts, anonnet.WithRecordTrace(&recorded))
	}
	if replayTrace != nil {
		opts = append(opts, anonnet.WithReplayTrace(replayTrace))
	}
	if p.faults != "" {
		opts = append(opts, anonnet.WithFaults(p.faults))
	}
	if p.chaos != "" {
		opts = append(opts, anonnet.WithChaos(p.chaos))
	}
	if p.obs != "" {
		opts = append(opts, anonnet.WithObservability(p.obsEvery))
	}

	rep, err := anonnet.Broadcast(net, []byte(p.msg), opts...)
	if rep != nil {
		fmt.Printf("protocol:        %s\n", rep.Protocol)
		fmt.Printf("terminated:      %v\n", rep.Terminated)
		fmt.Printf("all received:    %v\n", rep.AllReceived)
		fmt.Printf("messages:        %d\n", rep.Messages)
		fmt.Printf("total bits:      %d\n", rep.TotalBits)
		fmt.Printf("bandwidth bits:  %d (max on a single edge)\n", rep.BandwidthBits)
		fmt.Printf("max message:     %d bits\n", rep.MaxMessageBits)
		fmt.Printf("alphabet:        %d distinct symbols\n", rep.AlphabetSize)
		fmt.Printf("delivery steps:  %d\n", rep.Steps)
		if p.faults != "" {
			fmt.Printf("dropped:         %d (by the fault plan)\n", rep.Dropped)
		}
		for _, ev := range rep.Churn {
			where := fmt.Sprintf("edge=%d", ev.Edge)
			if ev.Vertex >= 0 {
				where = fmt.Sprintf("vertex=%d", ev.Vertex)
			}
			fmt.Printf("churn:           %-7s %s at=%d clock=%d restabilize=%d deliveries\n",
				ev.Kind, where, ev.At, ev.Clock, ev.Restabilize)
		}
	}
	if err != nil {
		return err
	}
	if rep != nil && rep.Timeline != nil {
		if err := writeObs(rep.Timeline, p.obs, p.obsFormat); err != nil {
			return err
		}
	}
	if recorded != nil {
		if err := os.WriteFile(p.record, recorded.Encode(), 0o644); err != nil {
			return err
		}
		fmt.Printf("recorded %s to %s\n", recorded, p.record)
	}
	if p.dot != "" {
		f, err := os.Create(p.dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := net.WriteDOT(f, nil); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", p.dot)
	}
	return nil
}

// writeObs renders the run telemetry in the requested format and writes it to
// path ("-" = stdout).
func writeObs(t *anonnet.Timeline, path, format string) error {
	var out []byte
	switch format {
	case "json":
		data, err := t.JSON()
		if err != nil {
			return err
		}
		out = append(data, '\n')
	case "table":
		out = []byte(t.Table())
	case "prom":
		out = []byte(t.Prometheus())
	default:
		return fmt.Errorf("unknown -obs-format %q (json|table|prom)", format)
	}
	if path == "-" {
		_, err := os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("telemetry:       %s (%s)\n", path, format)
	return nil
}

// protoFlagFor maps the protocol name in a trace header back onto the -proto
// flag vocabulary. Broadcast drives only the broadcast protocols; traces of
// labelcast/mapcast replay through anonshrink instead.
func protoFlagFor(traceProto string) (string, error) {
	switch traceProto {
	case "treecast/pow2":
		return "tree", nil
	case "treecast/naive":
		return "tree-naive", nil
	case "dagcast":
		return "dag", nil
	case "generalcast":
		return "general", nil
	default:
		return "", fmt.Errorf("trace records protocol %q; replay it with anonshrink instead", traceProto)
	}
}

func buildNetwork(topo string, n, height, degree, layers, width, extra int, seed int64) (*anonnet.Network, error) {
	switch topo {
	case "line":
		return anonnet.Line(n), nil
	case "chain":
		return anonnet.Chain(n), nil
	case "ring":
		return anonnet.Ring(n), nil
	case "karytree":
		return anonnet.KaryTree(height, degree), nil
	case "randtree":
		return anonnet.RandomTree(n, seed), nil
	case "randdag":
		return anonnet.RandomDAG(n, extra, seed), nil
	case "randnet":
		return anonnet.RandomNetwork(n, extra, seed), nil
	case "layered":
		return anonnet.LayeredNetwork(layers, width, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

// buildOptions lowers the CLI flags through the facade's shared name
// resolution — the same ProtocolByName/EngineByName vocabulary the run
// server's request validation uses, so the CLI and the API cannot drift.
func buildOptions(proto, engine, sched string, seed int64, shards int) ([]anonnet.Option, error) {
	kind, err := anonnet.ProtocolByName(proto)
	if err != nil {
		return nil, err
	}
	eng, err := anonnet.EngineByName(engine)
	if err != nil {
		return nil, err
	}
	return []anonnet.Option{
		anonnet.WithProtocol(kind), anonnet.WithEngine(eng),
		anonnet.WithShards(shards), anonnet.WithScheduler(sched),
		anonnet.WithSeed(seed),
	}, nil
}
