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
// edge; an adversary (Options.Scheduler, or the legacy Options.Order)
// repeatedly picks a pending edge and delivers the oldest message on it
// (links are FIFO). The run ends when the terminal's stopping predicate
// holds (Terminated) or no events remain (Quiescent).
//
// The engine keeps one 40-byte record per edge (edgeRecord): the edge's
// msgq FIFO, whose front message sits inline, and the head vertex and
// in-port a delivery needs, so a delivery reads one record rather than a
// queue, a pooled chunk and the graph's edge table. On tree_seq (the
// repository benchmark's tree broadcast, 50,000 vertices) this layout runs
// at about 38 ms per run against 63 ms with a bare queue array and g.Edge
// (2-vCPU VM). The engine hands the scheduler an indexed view of the
// pending-edge set, so a delivery step costs O(1) or O(log |pending|)
// depending on the adversary — never a linear scan. On top of that, forced
// choices are batched: when the adversary's next pick is provably the edge just delivered on (the
// scheduler is otherwise empty, or a stack scheduler saw no new
// registrations), the engine drains the run of messages without a Push/Pop
// round-trip per delivery. Batching engages only for schedulers that
// declare it safe (BatchCapable) and never changes the delivery sequence —
// batch_test.go asserts byte-identical schedules with it on and off.
func Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	nV, nE := g.NumVertices(), g.NumEdges()
	nodes := make([]protocol.Node, nV)
	var term protocol.Terminal
	for v := 0; v < nV; v++ {
		role := protocol.RoleInternal
		switch graph.VertexID(v) {
		case g.Root():
			role = protocol.RoleRoot
		case g.Terminal():
			role = protocol.RoleTerminal
		}
		n := p.NewNode(g.InDegree(graph.VertexID(v)), g.OutDegree(graph.VertexID(v)), role)
		if role == protocol.RoleTerminal {
			t, ok := n.(protocol.Terminal)
			if !ok {
				return nil, fmt.Errorf("sim: protocol %q terminal node does not implement Terminal", p.Name())
			}
			term = t
		}
		nodes[v] = n
	}

	res := &Result{
		Visited: make([]bool, nV),
		Nodes:   nodes,
		Metrics: newMetrics(nE, &opts),
	}
	defer res.Metrics.finalize()
	res.Visited[g.Root()] = true

	sched := opts.Scheduler
	if sched == nil {
		sched = schedulerForOrder(opts.Order)
	}

	// Telemetry: one track (this engine is the one-shard schedule), hooked
	// at the same loop positions as a shard's drain so the timeline of a
	// run here is byte-identical to the sharded engine's at one shard. The
	// whole run is a single superstep; recording it is deferred so error
	// exits keep their partial row. All hooks are nil-receiver no-ops when
	// telemetry is off.
	var tr *obs.Track
	if opts.Obs != nil {
		opts.Obs.Configure(p.Name(), sched.Name(), opts.Seed, 1)
		tr = opts.Obs.Tracks(1)[0]
		stop := opts.Obs.StartPhase("deliver")
		defer stop()
		defer func() { opts.Obs.Superstep([]int64{int64(res.Steps)}) }()
	}

	sched.Reset(SchedContext{
		Graph:   g,
		Seed:    opts.Seed,
		Visited: func(v graph.VertexID) bool { return res.Visited[v] },
	})

	// Forced-choice batch plan: engages only for schedulers that declare the
	// required capability, and only when the options don't disable it.
	var (
		batchOn bool
		caps    BatchCaps
		defPush DeferredPusher
	)
	if !opts.NoBatchDrain {
		if bc, ok := sched.(BatchCapable); ok {
			caps = bc.BatchCaps()
			defPush, _ = sched.(DeferredPusher)
			batchOn = caps.PushOrderFree || defPush != nil
		}
	}

	// One record per edge: its FIFO and where it delivers. An edge is
	// registered with the scheduler exactly when its front message is
	// deliverable.
	msgq.Warm()
	recs := make([]edgeRecord, nE)
	for i, edge := range g.Edges() {
		recs[i].to, recs[i].toPort = int32(edge.To), int32(edge.ToPort)
	}
	defer func() {
		for e := range recs {
			recs[e].q.Release()
		}
	}()
	var sendSeq uint64 // global send-sequence number, drives HeadSeq
	var newPushes int  // scheduler registrations since the last delivery began
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
		q := &recs[e].q
		q.Push(msg, seq)
		if q.Len() == 1 {
			sched.Push(PendingEdge{Edge: e, HeadSeq: seq})
			newPushes++
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
		res.Metrics.record(rootEdge.ID, init)
		if opts.Observer != nil {
			opts.Observer.OnSend(rootEdge.ID, init)
		}
		push(rootEdge.ID, init)
	}

	for sched.Len() > 0 {
		// Adversary: choose the next pending edge; deliver its oldest
		// message (links are FIFO). The inner loop batch-drains forced
		// follow-up choices on the same edge.
		e := sched.Pop()
		tr.Popped()
		forced := false
		for {
			if res.Steps >= maxSteps {
				return res, fmt.Errorf("%w (%d steps, graph %s, protocol %s)", ErrStepLimit, res.Steps, g, p.Name())
			}
			res.Steps++
			if forced {
				res.ForcedSteps++
			}

			rec := &recs[e]
			msg := rec.q.Pop()
			res.Metrics.delivered()
			pendingHere := rec.q.Len() > 0
			if pendingHere && !batchOn {
				// Legacy ordering: re-register before processing the
				// delivery, as insertion-order-sensitive schedulers
				// (random, rr-vertex, replay scripts) require.
				sched.Push(PendingEdge{Edge: e, HeadSeq: rec.q.FrontSeq()})
			}
			newPushes = 0

			to := graph.VertexID(rec.to)
			if faults.CrashDelivery(to) {
				// Crash-stopped vertex: the message is consumed off the link
				// (the delivery stays in the schedule, so recorded traces
				// replay) but never processed — no state change, no outputs,
				// and the vertex does not count as reached.
				if opts.Observer != nil {
					opts.Observer.OnDeliver(res.Steps, e, msg)
				}
				tr.Delivered(forced, true)
			} else {
				res.Visited[to] = true
				if opts.Observer != nil {
					opts.Observer.OnDeliver(res.Steps, e, msg)
				}
				outs, err := nodes[to].Receive(msg, int(rec.toPort))
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
					res.Metrics.record(oe, out)
					if opts.Observer != nil {
						opts.Observer.OnSend(oe, out)
					}
					push(oe, out)
				}
				tr.Delivered(forced, false)
				if to == g.Terminal() && term.Done() {
					res.Verdict = Terminated
					res.Output = term.Output()
					return res, nil
				}
			}

			if !pendingHere || !batchOn {
				break
			}
			// Forced-choice decision: e still holds messages and was not
			// re-registered. If the adversary provably must pick e next,
			// keep draining without a Push/Pop round-trip.
			if sched.Len() == 0 {
				// e is the only pending edge anywhere: every scheduler's
				// next Pop would return it.
				forced = true
				continue
			}
			if caps.ForcedWhenQuiet && newPushes == 0 {
				// Stack semantics with no registrations since our Pop:
				// re-pushing e would top the scheduler.
				forced = true
				continue
			}
			pe := PendingEdge{Edge: e, HeadSeq: rec.q.FrontSeq()}
			if caps.PushOrderFree {
				sched.Push(pe)
			} else {
				defPush.PushDeferred(pe, newPushes)
			}
			break
		}
	}
	res.Verdict = Quiescent
	return res, nil
}

// edgeRecord is everything a delivery on one edge touches: the edge's FIFO
// and its head's vertex and in-port, built once per run from g.Edges().
// Keeping them in one 40-byte record means a delivery reads one record
// instead of a queue array entry and a 40-byte graph.Edge. Vertex and port
// are int32: a graph with 2^31 vertices would not fit in memory alongside
// its engine state anyway.
type edgeRecord struct {
	q          msgq.Queue
	to, toPort int32
}
