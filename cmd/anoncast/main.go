// Command anoncast runs one of the paper's protocols on a directed
// anonymous network and reports its quality metrics: broadcast (the
// default), unique label assignment (-op labels), or topology extraction at
// the terminal (-op topology, checked for isomorphism against the network;
// a mismatch exits non-zero).
//
// Usage:
//
//	anoncast -graph ring:n=12 -msg "hello" [-op broadcast|labels|topology] [-proto general] [-engine concurrent] [-sched greedy -seed 7] [-dot out.dot]
//
// The network is named by a scenario registry spec (-graph, default
// randnet; `anoncast -h` lists the families) or read from a file in the
// anonnet v1 text format (-file). A spec's seed= seeds the generator; -seed
// seeds the scheduler only.
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
// re-executes a trace byte-identically (network, protocol and op come from
// the file). Minimize or differential-fuzz traces with cmd/anonshrink.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro"
)

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "anoncast:", err)
		os.Exit(1)
	}
}

// params is the command line: the run's anonnet.Request, plus what only
// the command line has (where the network comes from and goes to, the
// trace files, the telemetry output).
type params struct {
	anonnet.Request
	graph, file, save, dot string
	record, replay         string
	obs, obsFormat         string
}

// parseFlags reads the command line into params; -h and malformed flags
// exit the process.
func parseFlags(args []string) params {
	var p params
	fs := flag.NewFlagSet("anoncast", flag.ExitOnError)
	fs.StringVar(&p.Op, "op", "broadcast", "operation: "+strings.Join(anonnet.Ops(), "|"))
	fs.StringVar(&p.graph, "graph", "randnet", "scenario registry spec \"family[:param=value,...,seed=N]\" ("+strings.Join(anonnet.ScenarioFamilies(), "|")+")")
	fs.StringVar(&p.file, "file", "", "load the network from this file (anonnet v1 text format); overrides -graph")
	fs.Int64Var(&p.Seed, "seed", 1, "scheduler seed (the spec's seed= seeds the generator)")
	fs.StringVar(&p.Message, "msg", "hello, anonymous world", "broadcast payload")
	fs.StringVar(&p.Protocol, "proto", "auto", "broadcast protocol: "+strings.Join(anonnet.ProtocolNames(), "|"))
	fs.StringVar(&p.Engine, "engine", "seq", "engine: "+strings.Join(anonnet.EngineNames(), "|"))
	fs.IntVar(&p.Shards, "shards", 0, fmt.Sprintf("worker partition: 0 = engine default (%d shards for shard, one worker per vertex for tcp)", anonnet.DefaultShards))
	fs.StringVar(&p.Scheduler, "sched", "fifo", "adversarial scheduler (seq/shard engines): "+strings.Join(anonnet.SchedulerNames(), "|"))
	fs.StringVar(&p.dot, "dot", "", "write the network in DOT format to this file (with -op labels, annotated with the labels)")
	fs.StringVar(&p.save, "save", "", "write the network to this file in the text format")
	fs.StringVar(&p.record, "record", "", "write the run's delivery schedule to this trace file (any engine; wild schedules are canonicalized)")
	fs.StringVar(&p.replay, "replay", "", "replay a recorded trace file (seq engine; overrides -graph/-file/-sched/-proto/-op)")
	fs.StringVar(&p.Faults, "faults", "", "fault/churn plan \"drop=EDGE:K,loss=PCT,crash=VERTEX:K,recover=VERTEX:K,cut=EDGE:K,join=EDGE:K,lossat=SEND:PCT,seed=N\" (terms optional; drop/crash/recover/cut/join/lossat repeatable)")
	fs.StringVar(&p.Chaos, "chaos", "", "socket chaos spec \"disconnect=N,loss=PCT,delay=MS,seed=S\" (tcp engine only; every disturbance heals via reconnect/backoff/resend)")
	fs.StringVar(&p.obs, "obs", "", "capture run telemetry and write it to this file (\"-\" = stdout); see docs/OBSERVABILITY.md")
	fs.IntVar(&p.TimelineEvery, "obs-every", 0, "telemetry sampling stride in deliveries (0 = default)")
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
		op, ok := replayOps[replayTrace.Protocol()]
		if !ok {
			return fmt.Errorf("trace records protocol %q, which anoncast cannot replay", replayTrace.Protocol())
		}
		p.Op, p.Protocol = op[0], op[1]
		fmt.Printf("replaying %s\n", replayTrace)
	case p.file != "":
		f, ferr := os.Open(p.file)
		if ferr != nil {
			return ferr
		}
		net, err = anonnet.ParseNetwork(f)
		f.Close()
	default:
		net, err = anonnet.ScenarioNetwork(p.graph)
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

	req := p.Request
	req.Network, req.Alphabet, req.Timeline = string(net.MarshalText()), true, p.obs != ""
	var opts []anonnet.Option
	var recorded *anonnet.TraceData
	if p.record != "" {
		opts = append(opts, anonnet.WithRecordTrace(&recorded))
	}
	if replayTrace != nil {
		opts = append(opts, anonnet.WithReplayTrace(replayTrace))
	}

	res, err := anonnet.Do(req, opts...)
	if res != nil {
		rep := res.Report
		fmt.Printf("protocol:        %s\n", rep.Protocol)
		fmt.Printf("terminated:      %v\n", rep.Terminated)
		fmt.Printf("all received:    %v\n", rep.AllReceived)
		fmt.Printf("messages:        %d\n", rep.Messages)
		fmt.Printf("total bits:      %d\n", rep.TotalBits)
		fmt.Printf("bandwidth bits:  %d (max on a single edge)\n", rep.BandwidthBits)
		fmt.Printf("max message:     %d bits\n", rep.MaxMessageBits)
		fmt.Printf("alphabet:        %d distinct symbols\n", rep.AlphabetSize)
		fmt.Printf("delivery steps:  %d\n", rep.Steps)
		if p.Faults != "" {
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
	if res.Labels != nil {
		printLabels(res.Labels)
	}
	match := true
	if res.Topology != nil {
		fmt.Printf("mapping:         extracted |V|=%d |E|=%d\n", len(res.Topology.Vertices), len(res.Topology.Edges))
		if match, err = res.Topology.IsomorphicTo(net); err != nil {
			return err
		}
		fmt.Printf("isomorphic:      %v (canonical-form check against the network)\n", match)
	}
	if res.Report.Timeline != nil {
		if err := writeObs(res.Report.Timeline, p.obs, p.obsFormat); err != nil {
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
		// With -op labels, each vertex is annotated with its label.
		err = net.WriteDOT(f, func(v anonnet.VertexID) string {
			if l, ok := res.Labels[v]; ok {
				return l.String()
			}
			return ""
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", p.dot)
	}
	if !match {
		return fmt.Errorf("extracted topology does not match the network")
	}
	return nil
}

// printLabels prints the label of every labeled vertex in vertex order,
// after the longest label's length.
func printLabels(labels map[anonnet.VertexID]anonnet.Label) {
	ids := make([]anonnet.VertexID, 0, len(labels))
	longest := 0
	for v, l := range labels {
		ids = append(ids, v)
		longest = max(longest, l.Bits)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Printf("labels:          %d assigned, longest %d bits (Theta(|V| log dout) is optimal)\n", len(labels), longest)
	for _, v := range ids {
		fmt.Printf("  v%-3d %s  (%d bits)\n", v, labels[v], labels[v].Bits)
	}
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

// replayOps maps the protocol name in a trace header onto -op and -proto.
var replayOps = map[string][2]string{
	"treecast/pow2":  {"broadcast", "tree"},
	"treecast/naive": {"broadcast", "tree-naive"},
	"dagcast":        {"broadcast", "dag"},
	"generalcast":    {"broadcast", "general"},
	"labelcast":      {"labels", "auto"},
	"mapcast":        {"topology", "auto"},
}
