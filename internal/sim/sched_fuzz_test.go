package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// genObserver records a run's trace and, independently of the engine's
// send sequence numbers, the generation of every message: the root's sends
// are generation 1, and a message sent while a generation-g message is
// being delivered is generation g+1. Links are FIFO, so one queue of
// generations per edge says which generation each delivery carries. On a
// fault-free synchronous run, round k delivers exactly generation k, so
// the largest delivered generation is the number of rounds.
type genObserver struct {
	traceObserver
	queues        map[graph.EdgeID][]int
	current, peak int
}

func (o *genObserver) OnSend(e graph.EdgeID, msg protocol.Message) {
	o.traceObserver.OnSend(e, msg)
	o.queues[e] = append(o.queues[e], o.current+1)
}

func (o *genObserver) OnDeliver(step int, e graph.EdgeID, msg protocol.Message) {
	o.traceObserver.OnDeliver(step, e, msg)
	o.current, o.queues[e] = o.queues[e][0], o.queues[e][1:]
	o.peak = max(o.peak, o.current)
}

// FuzzSchedulerDeterminism explores (scheduler, seed, graph shape) triples
// and checks the engine's core reproducibility contract: running the same
// protocol on the same graph under the same adversary and seed twice yields
// a byte-identical delivery trace and identical metrics. Differing seeds and
// graph shapes are the fuzzer's search space, mirroring the corpus-driven
// style of internal/core/fuzz_test.go. On every graph the synchronous
// engine must also reproduce the fifo run's trace and metrics, and count
// as many rounds as genObserver counts generations.
func FuzzSchedulerDeterminism(f *testing.F) {
	names := SchedulerNames()
	for i := range names {
		f.Add(uint8(i), int64(i*7+1), uint8(6+i), uint8(i*3))
	}
	f.Add(uint8(255), int64(-9), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, schedIdx uint8, seed int64, size, extra uint8) {
		name := names[int(schedIdx)%len(names)]
		n := 3 + int(size)%12
		g := graph.RandomDigraph(n, seed, graph.RandomDigraphOpts{
			ExtraEdges:   int(extra) % (2 * n),
			TerminalFrac: 0.3,
		})
		run := func() (string, Metrics) {
			sched, err := NewScheduler(name)
			if err != nil {
				t.Fatal(err)
			}
			obs := &traceObserver{}
			r, err := Run(g, floodProto{need: g.InDegree(g.Terminal())}, Options{
				Scheduler: sched, Seed: seed, Observer: obs,
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, g, err)
			}
			if r.Verdict != Terminated && r.Verdict != Quiescent {
				t.Fatalf("%s on %s: verdict %v", name, g, r.Verdict)
			}
			return obs.sb.String(), r.Metrics
		}
		t1, m1 := run()
		t2, m2 := run()
		if t1 != t2 {
			t.Fatalf("%s seed %d on %s: non-deterministic trace", name, seed, g)
		}
		if m1.Messages != m2.Messages || m1.TotalBits != m2.TotalBits {
			t.Fatalf("%s seed %d on %s: non-deterministic metrics: %+v vs %+v", name, seed, g, m1, m2)
		}

		proto := floodProto{need: g.InDegree(g.Terminal())}
		fifo := &traceObserver{}
		rf, err := Run(g, proto, Options{Observer: fifo})
		if err != nil {
			t.Fatalf("fifo on %s: %v", g, err)
		}
		gens := &genObserver{queues: map[graph.EdgeID][]int{}}
		rs, err := Synchronous().Run(g, proto, Options{Observer: gens})
		if err != nil {
			t.Fatalf("sync on %s: %v", g, err)
		}
		if gens.sb.String() != fifo.sb.String() || rs.Verdict != rf.Verdict || rs.Steps != rf.Steps ||
			rs.Metrics.Messages != rf.Metrics.Messages || rs.Metrics.TotalBits != rf.Metrics.TotalBits {
			t.Fatalf("sync on %s: trace or metrics differ from fifo's", g)
		}
		if rs.Rounds != gens.peak {
			t.Fatalf("sync on %s: %d rounds, deliveries reach generation %d", g, rs.Rounds, gens.peak)
		}
	})
}
