package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/msgq"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Run executes p on g under the event-driven engine and returns the result.
//
// Asynchrony model: every sent message becomes an in-flight event on its
// edge; an adversary (Options.Scheduler, fifo when nil)
// repeatedly picks a pending edge and delivers the oldest message on it
// (links are FIFO). The run ends when the terminal's stopping predicate
// holds (Terminated) or no events remain (Quiescent).
//
// The engine keeps one 40-byte record per edge (EdgeRecord): the edge's
// msgq FIFO, whose front message sits inline, and the head vertex and
// in-port a delivery needs, so a delivery reads one record rather than a
// queue, a pooled chunk and the graph's edge table. The engine hands the
// scheduler an indexed view of the pending-edge set, so a delivery step
// costs O(1) or O(log |pending|) depending on the adversary — never a
// linear scan. Every delivery is one Pop: an edge that still holds messages
// is re-registered before its message is processed, so the scheduler sees
// it alongside the registrations that delivery triggers.
func Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	return run(g, p, opts, false)
}

// run is Run; with rounds set it is the synchronous engine: the caller
// passes fifo, which delivers every message sent in round k before any sent
// in round k+1, and a round clock counts Result.Rounds. Round k+1 begins
// when the first message sent in round k comes up.
func run(g *graph.G, p protocol.Protocol, opts Options, rounds bool) (*Result, error) {
	nV, nE := g.NumVertices(), g.NumEdges()
	nodes, term, err := BuildNodes(g, p)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Visited: make([]bool, nV),
		Nodes:   nodes,
		Metrics: newMetrics(nE, &opts),
	}
	defer res.Metrics.finalize()
	mt := meter{m: &res.Metrics}
	defer mt.close()
	res.Visited[g.Root()] = true

	sched := opts.Scheduler
	if sched == nil {
		sched = NewFIFOScheduler()
	}

	// Telemetry: one track (this engine is the one-shard schedule), hooked
	// at the same loop positions as a shard's drain so the timeline of a
	// run here is byte-identical to the sharded engine's at one shard. The
	// whole run is a single superstep; recording it is deferred so error
	// exits keep their partial row. A synchronous run records one superstep
	// per round instead, the last one only on a Terminated or Quiescent
	// exit, under the scheduler name "sync" that its recorded traces carry.
	// All hooks are nil-receiver no-ops when telemetry is off.
	var tr *obs.Track
	if opts.Obs != nil {
		schedName, phase := sched.Name(), "deliver"
		if rounds {
			schedName, phase = "sync", "rounds"
		}
		opts.Obs.Configure(p.Name(), schedName, opts.Seed, 1)
		tr = opts.Obs.Tracks(1)[0]
		stop := opts.Obs.StartPhase(phase)
		defer stop()
		if !rounds {
			defer func() { opts.Obs.Superstep([]int64{int64(res.Steps)}) }()
		}
	}

	sched.Reset(SchedContext{
		Graph:   g,
		Seed:    opts.Seed,
		Visited: func(v graph.VertexID) bool { return res.Visited[v] },
	})

	// One record per edge: its FIFO and where it delivers. An edge is
	// registered with the scheduler exactly when its front message is
	// deliverable.
	recs := NewEdgeRecords(g)
	defer ReleaseEdgeRecords(recs)
	var sendSeq uint64  // global send-sequence number, drives HeadSeq
	var roundEnd uint64 // the current round's messages are numbered below it
	roundStart := 0     // res.Steps when the current round began
	endRound := func() {
		if rounds && res.Rounds > 0 && opts.Obs != nil {
			opts.Obs.Superstep([]int64{int64(res.Steps - roundStart)})
		}
	}
	faults, err := NewFaultState(g, &opts)
	if err != nil {
		return nil, err
	}
	defer func() { res.Dropped, res.Churn = faults.Dropped(), faults.ChurnReport() }()
	push := func(e graph.EdgeID, msg protocol.Message) {
		tr.Send()
		if faults.DropSend(e) {
			tr.Dropped()
			return
		}
		res.Metrics.sent()
		tr.Enqueued()
		seq := sendSeq
		sendSeq++
		q := &recs[e].Q
		q.Push(msg, seq)
		if q.Len() == 1 {
			sched.Push(PendingEdge{Edge: e, HeadSeq: seq})
		}
	}

	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	// Inject sigma0 on the root's out-edges.
	inits, err := InitialMessages(g, p)
	if err != nil {
		return nil, err
	}
	for j, init := range inits {
		if init == nil {
			continue
		}
		rootEdge := g.OutEdge(g.Root(), j)
		mt.record(rootEdge.ID, init)
		if opts.Observer != nil {
			opts.Observer.OnSend(rootEdge.ID, init)
		}
		push(rootEdge.ID, init)
	}

	for sched.Len() > 0 {
		// Adversary: choose the next pending edge; deliver its oldest
		// message (links are FIFO).
		e := sched.Pop()
		rec := &recs[e]
		if rounds && rec.Q.FrontSeq() >= roundEnd {
			endRound()
			res.Rounds++
			roundEnd, roundStart = sendSeq, res.Steps
		}
		if res.Steps >= maxSteps {
			return res, fmt.Errorf("%w (%d steps, graph %s, protocol %s)", ErrStepLimit, res.Steps, g, p.Name())
		}
		res.Steps++

		msg := rec.Q.Pop()
		res.Metrics.delivered()
		if rec.Q.Len() > 0 {
			sched.Push(PendingEdge{Edge: e, HeadSeq: rec.Q.FrontSeq()})
		}

		to := graph.VertexID(rec.To)
		if faults.CrashDelivery(to) {
			// Crash-stopped vertex: the message is consumed off the link
			// (the delivery stays in the schedule, so recorded traces
			// replay) but never processed — no state change, no outputs,
			// and the vertex does not count as reached.
			if opts.Observer != nil {
				opts.Observer.OnDeliver(res.Steps, e, msg)
			}
			tr.Delivered(true)
			continue
		}
		res.Visited[to] = true
		if opts.Observer != nil {
			opts.Observer.OnDeliver(res.Steps, e, msg)
		}
		outs, err := nodes[to].Receive(msg, int(rec.ToPort))
		if err != nil {
			return res, fmt.Errorf("sim: vertex %d receive: %w", to, err)
		}
		if outs != nil && len(outs) != g.OutDegree(to) {
			return res, fmt.Errorf("sim: vertex %d returned %d outputs, out-degree is %d",
				to, len(outs), g.OutDegree(to))
		}
		outIDs := g.OutEdgeIDs(to)
		for j, out := range outs {
			if out == nil {
				continue
			}
			oe := outIDs[j]
			mt.record(oe, out)
			if opts.Observer != nil {
				opts.Observer.OnSend(oe, out)
			}
			push(oe, out)
		}
		tr.Delivered(false)
		if to == g.Terminal() && term.Done() {
			res.Verdict = Terminated
			res.Output = term.Output()
			endRound()
			return res, nil
		}
	}
	res.Verdict = Quiescent
	endRound()
	return res, nil
}

// EdgeRecord is everything a delivery on one edge touches: the edge's FIFO
// and its head's vertex and in-port, built once per run from g.Edges().
// Keeping them in one 40-byte record means a delivery reads one record
// instead of a queue array entry and a 40-byte graph.Edge. Vertex and port
// are int32: a graph with 2^31 vertices would not fit in memory alongside
// its engine state anyway. The sequential and sharded engines share it.
type EdgeRecord struct {
	Q          msgq.Queue
	To, ToPort int32
}

// NewEdgeRecords returns one record per edge of g, indexed by edge ID, with
// every queue empty. ReleaseEdgeRecords hands the queues' chunks back.
func NewEdgeRecords(g *graph.G) []EdgeRecord {
	msgq.Warm()
	recs := make([]EdgeRecord, g.NumEdges())
	for i, edge := range g.Edges() {
		recs[i].To, recs[i].ToPort = int32(edge.To), int32(edge.ToPort)
	}
	return recs
}

// ReleaseEdgeRecords returns the pooled chunks still held by the queues of
// recs, at the end of a run.
func ReleaseEdgeRecords(recs []EdgeRecord) {
	for e := range recs {
		recs[e].Q.Release()
	}
}
