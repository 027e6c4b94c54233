package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/msgq"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// replayReps is how many times each offline replay is timed; the median
// repetition is reported.
const replayReps = 5

// replayed holds the offline replays of one captured run: its event stream
// fed, out of context, through the public APIs of the layers the engine owns
// — the fault plan, the per-edge queues, the scheduler, the metering
// interner, and fresh protocol nodes. Each replay first checks that it
// reproduces the run's Result; times are the median repetition, in
// nanoseconds.
type replayed struct {
	schedNS     float64
	schedCalls  int // Push plus Pop calls
	faultsNS    float64
	faultChecks int // DropSend plus CrashDelivery calls
	msgqNS      float64
	msgqOps     int // pushes plus pops
	peak        int // most messages queued at once
	meterNS     float64
	meterAllocs float64 // heap allocations per replay
	sends       int
	coreNS      float64
	receives    int
	coreSends   int
	coreAllocs  float64 // heap allocations per replay
	coreBytes   float64 // heap bytes per replay
}

// replay runs every offline replay of events, the captured stream of a run
// of p on g under opts that produced res. seq says the run was on the
// sequential engine: only then is the stream one scheduler's order, so the
// scheduler is replayed and the queues' in-flight peak checked against the
// run's (the sharded engine runs a scheduler per shard and samples its peak
// at barriers).
func replay(g *graph.G, p protocol.Protocol, opts sim.Options, res *sim.Result, events []event, seq bool) (*replayed, error) {
	rp := &replayed{}
	lost, err := rp.replayFaults(g, opts, res, events, seq)
	if err != nil {
		return nil, err
	}
	calls, err := rp.replayQueues(g, res, events, lost, seq)
	if err != nil {
		return nil, err
	}
	if seq {
		if err := rp.replaySched(g, opts, calls); err != nil {
			return nil, err
		}
	}
	if err := rp.replayMetering(g, opts, res, events); err != nil {
		return nil, err
	}
	if err := rp.replayReceives(g, p, res, events, lost); err != nil {
		return nil, err
	}
	return rp, nil
}

// replayFaults feeds every send to DropSend and every delivery to
// CrashDelivery in stream order, and returns each event's fate: a dropped
// send or a delivery consumed by a crashed vertex. The churn clock stamps
// match the run's only on the sequential engine; the sharded engine ticks
// its clock on several shards at once, in an order the captured
// linearization need not share.
func (rp *replayed) replayFaults(g *graph.G, opts sim.Options, res *sim.Result, events []event, seq bool) ([]bool, error) {
	lost := make([]bool, len(events))
	states := make([]*sim.FaultState, replayReps)
	for i := range states {
		fs, err := sim.NewFaultState(g, &opts)
		if err != nil {
			return nil, err
		}
		if fs == nil {
			return lost, nil // fault-free run: nothing to replay
		}
		states[i] = fs
	}
	heads := make([]graph.VertexID, len(events))
	for k, ev := range events {
		heads[k] = g.Edge(ev.edge).To
	}
	times := make([]float64, replayReps)
	for i, fs := range states {
		t0 := time.Now()
		for k, ev := range events {
			if ev.deliver {
				lost[k] = fs.CrashDelivery(heads[k])
			} else {
				lost[k] = fs.DropSend(ev.edge)
			}
		}
		times[i] = float64(time.Since(t0))
	}
	fs := states[0]
	if fs.Dropped() != res.Dropped {
		return nil, fmt.Errorf("fault replay dropped %d messages, the run dropped %d", fs.Dropped(), res.Dropped)
	}
	churn := fs.ChurnReport()
	if seq && !reflect.DeepEqual(churn, res.Churn) || churnEvents(churn) != churnEvents(res.Churn) {
		return nil, fmt.Errorf("fault replay churn report %+v differs from the run's %+v", churn, res.Churn)
	}
	rp.faultsNS = median(times)
	rp.faultChecks = len(events)
	return lost, nil
}

func churnEvents(r *sim.ChurnReport) int {
	if r == nil {
		return -1
	}
	return len(r.Events)
}

// schedCall is one scheduler call of the sequential engine's unbatched
// delivery loop: a Pop (pe.Edge is the edge the run delivered on) or a Push.
type schedCall struct {
	pop bool
	pe  sim.PendingEdge
}

// replayQueues pushes every surviving send onto its edge's msgq.Queue and
// pops one message per delivery. Its untimed first pass also derives the
// scheduler calls the sequential engine made: a Pop per delivery, a Push when
// an edge's queue becomes non-empty, and a re-Push right after a delivery
// that leaves messages behind.
func (rp *replayed) replayQueues(g *graph.G, res *sim.Result, events []event, lost []bool, seq bool) ([]schedCall, error) {
	queues := make([]msgq.Queue, g.NumEdges())
	defer func() {
		for e := range queues {
			queues[e].Release()
		}
	}()
	var calls []schedCall
	var sendSeq uint64
	pops, inFlight := 0, 0
	for k, ev := range events {
		q := &queues[ev.edge]
		switch {
		case ev.deliver:
			if q.Len() == 0 {
				return nil, fmt.Errorf("queue replay: delivery %d on edge %d finds it empty", pops+1, ev.edge)
			}
			q.Pop()
			calls = append(calls, schedCall{pop: true, pe: sim.PendingEdge{Edge: ev.edge}})
			if q.Len() > 0 {
				calls = append(calls, schedCall{pe: sim.PendingEdge{Edge: ev.edge, HeadSeq: q.FrontSeq()}})
			}
			pops++
			inFlight--
		case !lost[k]:
			q.Push(ev.msg, sendSeq)
			if q.Len() == 1 {
				calls = append(calls, schedCall{pe: sim.PendingEdge{Edge: ev.edge, HeadSeq: sendSeq}})
			}
			sendSeq++
			inFlight++
			rp.peak = max(rp.peak, inFlight)
			rp.msgqOps++
		}
	}
	rp.msgqOps += pops
	if pops != res.Steps {
		return nil, fmt.Errorf("queue replay popped %d messages, the run delivered %d", pops, res.Steps)
	}
	if seq && rp.peak != res.Metrics.PeakInFlight {
		return nil, fmt.Errorf("queue replay peaked at %d in flight, the run at %d", rp.peak, res.Metrics.PeakInFlight)
	}
	for e := range queues {
		queues[e].Release()
	}
	times := make([]float64, replayReps)
	for i := range times {
		t0 := time.Now()
		var next uint64
		for k, ev := range events {
			if ev.deliver {
				queues[ev.edge].Pop()
			} else if !lost[k] {
				queues[ev.edge].Push(ev.msg, next)
				next++
			}
		}
		times[i] = float64(time.Since(t0))
		for e := range queues {
			queues[e].Release()
		}
	}
	rp.msgqNS = median(times)
	return calls, nil
}

// replaySched feeds the derived calls to fresh schedulers of the run's kind.
// Its first pass must pop exactly the edges the run delivered on. Only
// schedulers without batch-drain capabilities are replayed: for the others
// the engine skips Push/Pop pairs, and the derived calls would not be theirs.
func (rp *replayed) replaySched(g *graph.G, opts sim.Options, calls []schedCall) error {
	if _, batch := opts.Scheduler.(sim.BatchCapable); batch {
		return nil
	}
	scheds := make([]sim.Scheduler, replayReps+1)
	for i := range scheds {
		s, err := sim.NewScheduler(opts.Scheduler.Name())
		if err != nil {
			return err
		}
		s.Reset(sim.SchedContext{Graph: g, Seed: opts.Seed, Visited: func(graph.VertexID) bool { return false }})
		scheds[i] = s
	}
	step := 0
	for _, c := range calls {
		if !c.pop {
			scheds[0].Push(c.pe)
			continue
		}
		step++
		if got := scheds[0].Pop(); got != c.pe.Edge {
			return fmt.Errorf("scheduler replay delivers on edge %d at step %d, the run on edge %d", got, step, c.pe.Edge)
		}
	}
	times := make([]float64, replayReps)
	for i, s := range scheds[1:] {
		t0 := time.Now()
		for _, c := range calls {
			if c.pop {
				s.Pop()
			} else {
				s.Push(c.pe)
			}
		}
		times[i] = float64(time.Since(t0))
	}
	rp.schedNS = median(times)
	rp.schedCalls = len(calls)
	return nil
}

// replayMetering meters every send as the engines do: encoded length into
// the totals and the per-edge counters, and the message into an Interner.
func (rp *replayed) replayMetering(g *graph.G, opts sim.Options, res *sim.Result, events []event) error {
	perEdgeBits := make([]int64, g.NumEdges())
	perEdgeMsgs := make([]int, g.NumEdges())
	interners := make([]*protocol.Interner, replayReps)
	for i := range interners {
		interners[i] = protocol.NewInterner()
	}
	times := make([]float64, replayReps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, in := range interners {
		clear(perEdgeBits)
		clear(perEdgeMsgs)
		var total int64
		maxBits, sends := 0, 0
		t0 := time.Now()
		for _, ev := range events {
			if ev.deliver {
				continue
			}
			b := ev.msg.Bits()
			total += int64(b)
			perEdgeBits[ev.edge] += int64(b)
			perEdgeMsgs[ev.edge]++
			maxBits = max(maxBits, b)
			in.Intern(ev.msg)
			sends++
		}
		times[i] = float64(time.Since(t0))
		if total != res.Metrics.TotalBits || maxBits != res.Metrics.MaxMsgBits {
			return fmt.Errorf("metering replay counted %d bits (max %d), the run %d (max %d)",
				total, maxBits, res.Metrics.TotalBits, res.Metrics.MaxMsgBits)
		}
		if opts.TrackAlphabet && in.Len() != res.Metrics.AlphabetSize() {
			return fmt.Errorf("metering replay interned %d symbols, the run's alphabet has %d", in.Len(), res.Metrics.AlphabetSize())
		}
		rp.sends = sends
	}
	runtime.ReadMemStats(&m1)
	rp.meterNS = median(times)
	rp.meterAllocs = float64(m1.Mallocs-m0.Mallocs) / replayReps
	return nil
}

// replayReceives feeds every processed delivery, in stream order, to fresh
// nodes of p and counts what they send.
func (rp *replayed) replayReceives(g *graph.G, p protocol.Protocol, res *sim.Result, events []event, lost []bool) error {
	type receive struct {
		v    graph.VertexID
		port int
		msg  protocol.Message
	}
	var recvs []receive
	var initBits int64
	initSends := 0
	for k, ev := range events {
		switch {
		case ev.deliver && !lost[k]:
			e := g.Edge(ev.edge)
			recvs = append(recvs, receive{e.To, e.ToPort, ev.msg})
		case !ev.deliver && len(recvs) == 0:
			// Root injections precede every delivery.
			initBits += int64(ev.msg.Bits())
			initSends++
		}
	}
	rp.receives = len(recvs)
	// One node set per repetition plus an untimed validation run.
	sets := make([][]protocol.Node, replayReps+1)
	for i := range sets {
		sets[i] = freshNodes(g, p)
	}

	var outBits int64
	for _, r := range recvs {
		outs, err := sets[0][r.v].Receive(r.msg, r.port)
		if err != nil {
			return fmt.Errorf("receive replay: vertex %d: %w", r.v, err)
		}
		for _, o := range outs {
			if o != nil {
				rp.coreSends++
				outBits += int64(o.Bits())
			}
		}
	}
	if initBits+outBits != res.Metrics.TotalBits {
		return fmt.Errorf("receive replay sent %d bits after %d injected, the run metered %d", outBits, initBits, res.Metrics.TotalBits)
	}
	if initSends+rp.coreSends != rp.sends {
		return fmt.Errorf("receive replay sent %d messages after %d injected, the run metered %d sends", rp.coreSends, initSends, rp.sends)
	}
	term, ok := sets[0][g.Terminal()].(protocol.Terminal)
	if !ok {
		return fmt.Errorf("receive replay: protocol %q terminal node does not implement Terminal", p.Name())
	}
	if term.Done() != (res.Verdict == sim.Terminated) {
		return fmt.Errorf("receive replay leaves the terminal done=%v, the run's verdict is %v", term.Done(), res.Verdict)
	}

	var m0, m1 runtime.MemStats
	times := make([]float64, replayReps)
	runtime.ReadMemStats(&m0)
	for i := range times {
		nodes := sets[i+1]
		t0 := time.Now()
		for _, r := range recvs {
			if _, err := nodes[r.v].Receive(r.msg, r.port); err != nil {
				return err
			}
		}
		times[i] = float64(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	rp.coreNS = median(times)
	rp.coreAllocs = float64(m1.Mallocs-m0.Mallocs) / replayReps
	rp.coreBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / replayReps
	return nil
}

// freshNodes builds the initial node of every vertex, as the engines do.
func freshNodes(g *graph.G, p protocol.Protocol) []protocol.Node {
	nodes := make([]protocol.Node, g.NumVertices())
	for v := range nodes {
		role := protocol.RoleInternal
		switch graph.VertexID(v) {
		case g.Root():
			role = protocol.RoleRoot
		case g.Terminal():
			role = protocol.RoleTerminal
		}
		nodes[v] = p.NewNode(g.InDegree(graph.VertexID(v)), g.OutDegree(graph.VertexID(v)), role)
	}
	return nodes
}
