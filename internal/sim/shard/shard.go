// Package shard is the multi-core sequential engine: it partitions the
// network into shards (graph.PartitionGraph, a seeded multi-way edge-cut),
// runs one scheduler and one delivery loop per shard through the bounded
// worker pool (internal/par), and stitches cross-shard traffic back together
// with a deterministic merge — so a single run scales with cores while
// remaining a pure function of (graph, protocol, scheduler name, seed,
// shard count).
//
// Execution proceeds in supersteps:
//
//  1. Drain (parallel): every shard runs the same indexed delivery loop
//     as the sequential engine over the edges it owns (an edge belongs to
//     the shard of its head vertex). Sends to in-shard edges are
//     delivered locally; sends on cut edges are buffered in a
//     per-(source, destination) outbox. Shards share no mutable state
//     except arrays indexed by edge or vertex, each slot of which has
//     exactly one owning shard.
//  2. Barrier + merge (parallel per destination): each destination shard
//     ingests the outboxes addressed to it in deterministic order — source
//     shard ID first, then the source's local send order — assigning local
//     send-sequence numbers as it goes. Tie-breaking is therefore
//     (shard ID × local step), independent of thread timing.
//
// The run ends when the terminal's predicate holds (Terminated), when no
// shard has pending traffic after a merge (Quiescent), or on the step
// budget. Verdicts, visited sets, final protocol states (labels, extracted
// topologies) and the transmitted alphabet agree with the single-threaded
// engine on every scheduler — asserted by the conformance matrix — while
// schedule-dependent metrics (step counts, per-edge traffic) are
// deterministic for a fixed configuration but legitimately differ from
// other engines' schedules.
package shard

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Engine returns the sharded engine with the given shard count (capped at
// |V| per run). Shard count 1 degenerates to a single-threaded run with the
// sequential engine's semantics on a trivially partitioned graph — the
// honest baseline for speedup measurements.
//
// The engine value memoizes partitions per (graph, shard count, seed):
// PartitionGraph is a pure function and *graph.G is immutable, so a repeated
// run (benchmark repeats, server cache misses on the same graph) skips the
// partition phase entirely. Callers that reuse one engine across runs get
// the amortization for free; a fresh engine per run costs one map allocation.
func Engine(shards int) sim.Engine { return &engine{shards: shards} }

type engine struct {
	shards int

	mu    sync.Mutex
	parts map[partKey]*graph.Partition
}

// partKey identifies a memoized partition. Keying on the graph pointer is
// sound because graphs are immutable after Build; a rebuilt (even identical)
// graph simply misses.
type partKey struct {
	g    *graph.G
	k    int
	seed int64
}

// partCacheCap bounds the memo so an engine shared across many graphs (a
// long-lived server) cannot grow without bound; on overflow the whole map is
// dropped — the cache is a pure performance artifact, never semantics.
const partCacheCap = 64

func (e *engine) partition(g *graph.G, k int, seed int64) *graph.Partition {
	key := partKey{g: g, k: k, seed: seed}
	e.mu.Lock()
	if p, ok := e.parts[key]; ok {
		e.mu.Unlock()
		return p
	}
	e.mu.Unlock()
	p := graph.PartitionGraph(g, k, seed)
	e.mu.Lock()
	if len(e.parts) >= partCacheCap {
		e.parts = nil
	}
	if e.parts == nil {
		e.parts = make(map[partKey]*graph.Partition)
	}
	e.parts[key] = p
	e.mu.Unlock()
	return p
}

func (e *engine) Name() string { return "shard" }

func (e *engine) Run(g *graph.G, p protocol.Protocol, opts sim.Options) (*sim.Result, error) {
	if e.shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d, must be >= 1", e.shards)
	}
	return run(g, p, opts, e.shards, e.partition)
}

// outMsg is one cross-shard send awaiting the merge.
type outMsg struct {
	edge graph.EdgeID
	msg  protocol.Message
}

// shardState is the per-shard mutable world: scheduler, send sequencing,
// outboxes, and metric partials. Only its owning worker touches it during a
// drain; only the coordinator touches it at barriers.
type shardState struct {
	id    int
	sched sim.Scheduler

	// tr is this shard's telemetry track (nil when telemetry is off — all
	// Track methods are nil-receiver no-ops). Only the owning worker calls
	// into it during a drain; the merge, which also enqueues into this
	// shard, runs under the barrier with exclusive ownership.
	tr *obs.Track

	sendSeq uint64
	out     [][]outMsg // per destination shard

	// Metric partials, merged deterministically at the end of the run.
	messages   int
	totalBits  int64
	maxMsgBits int
	interner   *protocol.Interner
	symCounts  []int
	aliveSent  int // sends that passed the drop filter (in-flight accounting)
	delivered  int
	steps      int

	terminated bool
	err        error
}

// shardRun is the state shared across shards. Every mutable slice is indexed
// by edge or vertex and each index has exactly one owning shard: queues,
// visited and crash quotas belong to the shard of the edge's head / the
// vertex, per-edge metric slots and send-fault counters to the shard of the
// edge's tail (the only sender). The race detector runs over this engine in
// the conformance suite.
type shardRun struct {
	g      *graph.G
	part   *graph.Partition
	states []*shardState
	nodes  []protocol.Node
	term   protocol.Terminal
	obs    *sim.SerializedObserver

	// recs[e] is edge e's queue and head, the sequential engine's record.
	recs    []sim.EdgeRecord
	visited []bool
	faults  *sim.FaultState
	// clock is the number of deliveries before the current superstep,
	// the base of the churn clock its drains stamp.
	clock int64

	// owner[v] is the shard currently delivering to vertex v. It starts as a
	// copy of part.Of and is rewritten only at barriers, by work donation —
	// all sends route through it, so within a superstep every vertex (its
	// node state, visited slot, crash quota, in-queues) still has exactly one
	// owning shard.
	owner []int32

	// Ghost routing (nil under Options.NoGhosts or when the partition marked
	// no ghost edges): ghostBuf[e] is the sender-side buffer of ghost edge e,
	// appended by the tail's shard during drains and reconciled — drained
	// into the edge's queue in one pass — by the head's shard at the merge
	// barrier. ghostInto[dst] lists dst's ghost edges in (source shard ID,
	// edge ID) order, the deterministic reconciliation order; ghostHead[v]
	// marks ghost-target vertices, which work donation never migrates (so
	// the static reconciliation lists stay correct).
	ghostBuf  [][]protocol.Message
	ghostInto [][]graph.EdgeID
	ghostHead []bool

	perEdgeBits   []int64
	perEdgeMsgs   []int
	firstSym      []uint32 // per-edge symbol+1 in the recording shard's interner
	firstSymShard []int32  // which shard's interner firstSym[e] refers to

	trackAlphabet bool
	trackFirstSym bool
	noSteal       bool

	steals      int
	stolenEdges int
}

func run(g *graph.G, p protocol.Protocol, opts sim.Options, shards int,
	partition func(*graph.G, int, int64) *graph.Partition) (*sim.Result, error) {
	nV, nE := g.NumVertices(), g.NumEdges()

	// The scheduler option names the adversary family; every shard gets its
	// own instance so the per-shard loops can run concurrently.
	schedName := "fifo"
	if opts.Scheduler != nil {
		schedName = opts.Scheduler.Name()
	}

	nodes, term, err := sim.BuildNodes(g, p)
	if err != nil {
		return nil, err
	}

	faults, err := sim.NewFaultState(g, &opts)
	if err != nil {
		return nil, err
	}
	rec := opts.Obs
	partStop := obsStart(rec, "partition")
	part := partition(g, shards, opts.Seed)
	partStop()
	run := &shardRun{
		g:             g,
		part:          part,
		states:        make([]*shardState, part.K),
		nodes:         nodes,
		term:          term,
		obs:           sim.NewSerializedObserver(opts.Observer),
		recs:          sim.NewEdgeRecords(g),
		visited:       make([]bool, nV),
		faults:        faults,
		owner:         make([]int32, nV),
		perEdgeBits:   make([]int64, nE),
		perEdgeMsgs:   make([]int, nE),
		trackAlphabet: opts.TrackAlphabet,
		trackFirstSym: opts.TrackFirstSymbol,
		noSteal:       opts.NoWorkSteal || part.K == 1,
	}
	for v, s := range part.Of {
		run.owner[v] = int32(s)
	}
	if !opts.NoGhosts && part.GhostEdges > 0 {
		run.ghostBuf = make([][]protocol.Message, nE)
		run.ghostInto = make([][]graph.EdgeID, part.K)
		run.ghostHead = make([]bool, nV)
		// Reconciliation order per destination: source shards in ID order,
		// edges in ID order within a source — fixed at run start (ghost heads
		// never migrate), so the merge barrier ingests ghost traffic in the
		// same deterministic order every run.
		for src := 0; src < part.K; src++ {
			for _, e := range g.Edges() {
				if part.GhostEdge(e.ID) && part.Of[e.From] == src {
					run.ghostInto[part.Of[e.To]] = append(run.ghostInto[part.Of[e.To]], e.ID)
					run.ghostHead[e.To] = true
				}
			}
		}
	}
	defer sim.ReleaseEdgeRecords(run.recs)
	if run.trackFirstSym {
		run.firstSym = make([]uint32, nE)
		run.firstSymShard = make([]int32, nE)
	}
	// Telemetry: one track per shard, each sampled on the shard's own local
	// delivery count — a pure function of the deterministic shard schedule,
	// never of thread timing. At one shard the schedule (and therefore the
	// timeline) is byte-identical to the sequential engine's.
	var tracks []*obs.Track
	if rec != nil {
		rec.Configure(p.Name(), schedName, opts.Seed, part.K)
		tracks = rec.Tracks(part.K)
	}
	for s := 0; s < part.K; s++ {
		sched, err := sim.NewScheduler(schedName)
		if err != nil {
			return nil, fmt.Errorf("shard: cannot instantiate per-shard schedulers: %w", err)
		}
		st := &shardState{id: s, sched: sched, out: make([][]outMsg, part.K)}
		if tracks != nil {
			st.tr = tracks[s]
		}
		// Per-shard seeds are decorrelated so seeded adversaries (random,
		// latency, ...) don't mirror each other across shards; the mix is a
		// fixed function of (run seed, shard ID), keeping the whole run
		// deterministic.
		shardSeed := opts.Seed ^ int64(uint64(s)*0x9e3779b97f4a7c15)
		sched.Reset(sim.SchedContext{
			Graph:   g,
			Seed:    shardSeed,
			Visited: func(v graph.VertexID) bool { return run.visited[v] },
		})
		if run.trackAlphabet || run.trackFirstSym {
			st.interner = protocol.NewInterner()
		}
		run.states[s] = st
	}

	res := &sim.Result{
		Visited: run.visited,
		Nodes:   nodes,
	}
	run.visited[g.Root()] = true

	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = sim.DefaultMaxSteps
	}

	// Inject sigma0 on the root's out-edges (coordinator, pre-parallel).
	inits, err := sim.InitialMessages(g, p)
	if err != nil {
		return nil, err
	}
	rootShard := run.states[part.Of[g.Root()]]
	for j, init := range inits {
		if init == nil {
			continue
		}
		rootEdge := g.OutEdge(g.Root(), j)
		rootShard.record(run, rootEdge.ID, init)
		if run.obs != nil {
			run.obs.OnSend(rootEdge.ID, init)
		}
		rootShard.tr.Send()
		if run.faults.DropSendAt(rootEdge.ID, 0) {
			rootShard.tr.Dropped()
			continue
		}
		rootShard.aliveSent++
		dst := run.states[run.owner[rootEdge.To]]
		seq := dst.sendSeq
		dst.sendSeq++
		q := &run.recs[rootEdge.ID].Q
		q.Push(init, seq)
		dst.tr.Enqueued()
		if q.Len() == 1 {
			dst.sched.Push(sim.PendingEdge{Edge: rootEdge.ID, HeadSeq: seq})
		}
	}

	peak := run.inFlight()
	if run.obs != nil {
		run.obs.OnBarrier(0)
	}
	totalSteps := 0
	superstep := 0
	prevSteps := make([]int64, part.K)
	for {
		superstep++
		// Drain phase: every shard delivers its pending local traffic, in
		// parallel, each against its own scheduler. The remaining global
		// budget is split evenly across shards so a runaway superstep can
		// overshoot MaxSteps by at most K-1 deliveries (the sequential
		// engine overshoots by 0); crossing the limit surfaces as
		// ErrStepLimit below.
		budget := (maxSteps - totalSteps + part.K - 1) / part.K
		run.clock = int64(totalSteps)
		drainStop := obsStart(rec, "drain")
		par.Map(0, part.K, func(s int) { run.states[s].drain(run, budget) })
		drainStop()

		totalSteps = 0
		for _, st := range run.states {
			totalSteps += st.steps
		}
		res.Steps = totalSteps
		if f := run.inFlight(); f > peak {
			peak = f
		}
		if run.obs != nil {
			// The barrier event marks the exact point the global in-flight
			// count was just sampled, so a BarrierObserver can reconstruct
			// PeakInFlight from the event stream (sends minus deliveries).
			run.obs.OnBarrier(superstep)
		}
		if rec != nil {
			// Superstep occupancy: per-shard delivery deltas, recorded before
			// the error/termination exits so the final superstep keeps its row.
			row := make([]int64, part.K)
			for s, st := range run.states {
				row[s] = int64(st.steps) - prevSteps[s]
				prevSteps[s] = int64(st.steps)
			}
			rec.Superstep(row)
		}

		for _, st := range run.states {
			if st.err != nil {
				run.obs.Seal()
				run.finalize(res, peak)
				return res, st.err
			}
		}
		for _, st := range run.states {
			if st.terminated {
				run.obs.Seal()
				res.Verdict = sim.Terminated
				res.Output = term.Output()
				run.finalize(res, peak)
				return res, nil
			}
		}

		// Merge phase: destination shards ingest cross-shard traffic in
		// (source shard ID, source-local send order) — the deterministic
		// tie-break that makes the whole run thread-timing independent.
		mergeStop := obsStart(rec, "merge")
		par.Map(0, part.K, func(dst int) { run.mergeInto(dst) })
		mergeStop()
		for _, sts := range run.states {
			for d := range sts.out {
				sts.out[d] = sts.out[d][:0]
			}
		}
		if !run.noSteal {
			run.steal()
		}

		pending := 0
		for _, st := range run.states {
			pending += st.sched.Len()
		}
		if pending == 0 {
			run.obs.Seal()
			res.Verdict = sim.Quiescent
			run.finalize(res, peak)
			return res, nil
		}
		if totalSteps >= maxSteps {
			run.obs.Seal()
			run.finalize(res, peak)
			return res, fmt.Errorf("%w (%d steps, graph %s, protocol %s)", sim.ErrStepLimit, totalSteps, g, p.Name())
		}
	}
}

// obsStart opens a wall-clock phase on rec; safe on a nil recorder. The
// drain/merge phases accumulate across supersteps under one name each.
func obsStart(rec *obs.Recorder, name string) func() {
	if rec == nil {
		return func() {}
	}
	return rec.StartPhase(name)
}

// record meters one send: shared per-edge slots are owned by this shard (the
// edge's tail lives here), scalars and the interner are shard-local.
func (st *shardState) record(run *shardRun, e graph.EdgeID, msg protocol.Message) {
	bits := msg.Bits()
	st.messages++
	st.totalBits += int64(bits)
	run.perEdgeBits[e] += int64(bits)
	run.perEdgeMsgs[e]++
	if bits > st.maxMsgBits {
		st.maxMsgBits = bits
	}
	if st.interner != nil {
		sym := st.interner.Intern(msg)
		if run.trackAlphabet {
			if int(sym) == len(st.symCounts) {
				st.symCounts = append(st.symCounts, 0)
			}
			st.symCounts[sym]++
		}
		if run.trackFirstSym && run.firstSym[e] == 0 {
			// The recording shard is whoever owns the tail *now* — under work
			// donation that can differ from the static part.Of[From], so the
			// interner to resolve the symbol against is remembered alongside.
			run.firstSym[e] = uint32(sym) + 1
			run.firstSymShard[e] = int32(st.id)
		}
	}
}

// drain is one shard's superstep: the sequential engine's indexed delivery
// loop restricted to the edges this shard owns, with cut-edge sends diverted
// to the outboxes.
func (st *shardState) drain(run *shardRun, budget int) {
	sched := st.sched
	n := 0
	for sched.Len() > 0 {
		if n >= budget {
			st.steps += n
			return
		}
		e := sched.Pop()
		n++

		rec := &run.recs[e]
		msg := rec.Q.Pop()
		st.delivered++
		if rec.Q.Len() > 0 {
			sched.Push(sim.PendingEdge{Edge: e, HeadSeq: rec.Q.FrontSeq()})
		}

		// The churn clock: deliveries before this superstep plus this
		// shard's own, so it does not depend on how the shards interleave.
		now := run.clock + int64(n)
		to := graph.VertexID(rec.To)
		if run.faults.CrashDeliveryAt(to, now) {
			// Crash-stopped vertex: consume without processing. The crash
			// quota slot is owned by this shard (the head's owner — the
			// only shard that delivers to it), so the check is race-free.
			if run.obs != nil {
				run.obs.OnDeliver(0, e, msg)
			}
			st.tr.Delivered(true)
			continue
		}
		run.visited[to] = true
		if run.obs != nil {
			run.obs.OnDeliver(0, e, msg)
		}
		outs, err := run.nodes[to].Receive(msg, int(rec.ToPort))
		if err != nil {
			st.err = fmt.Errorf("shard: vertex %d receive: %w", to, err)
			st.steps += n
			return
		}
		if outs != nil && len(outs) != run.g.OutDegree(to) {
			st.err = fmt.Errorf("shard: vertex %d returned %d outputs, out-degree is %d",
				to, len(outs), run.g.OutDegree(to))
			st.steps += n
			return
		}
		outIDs := run.g.OutEdgeIDs(to)
		for j, out := range outs {
			if out == nil {
				continue
			}
			oe := outIDs[j]
			st.record(run, oe, out)
			if run.obs != nil {
				run.obs.OnSend(oe, out)
			}
			st.tr.Send()
			if run.faults.DropSendAt(oe, now) {
				st.tr.Dropped()
				continue
			}
			st.aliveSent++
			orec := &run.recs[oe]
			dst := int(run.owner[orec.To])
			if dst == st.id {
				seq := st.sendSeq
				st.sendSeq++
				orec.Q.Push(out, seq)
				st.tr.Enqueued()
				if orec.Q.Len() == 1 {
					sched.Push(sim.PendingEdge{Edge: oe, HeadSeq: seq})
				}
			} else if run.ghostBuf != nil && run.part.GhostEdge(oe) {
				// Ghost-routed cut edge: deliver into the local ghost
				// buffer — a plain append, no outbox entry — and let the
				// head's shard reconcile the whole buffer at the merge
				// barrier.
				run.ghostBuf[oe] = append(run.ghostBuf[oe], out)
			} else {
				// Cut-edge send: the destination shard counts the enqueue
				// when its merge ingests the outbox.
				st.out[dst] = append(st.out[dst], outMsg{edge: oe, msg: out})
			}
		}
		st.tr.Delivered(false)
		if to == run.g.Terminal() && run.term.Done() {
			st.terminated = true
			st.steps += n
			return
		}
	}
	st.steps += n
}

// mergeInto ingests all outboxes addressed to dst, source shards in ID
// order, each box in its source-local send order. Per-edge FIFO holds
// because an edge has a single sending shard per superstep: all of its
// messages arrive from one outbox, in send order. Ghost buffers are
// reconciled after the outboxes, in the fixed ghostInto order: one
// contiguous drain per ghost edge per superstep, with a single scheduler
// registration instead of a merge entry per message.
func (run *shardRun) mergeInto(dst int) {
	st := run.states[dst]
	for _, src := range run.states {
		for _, m := range src.out[dst] {
			seq := st.sendSeq
			st.sendSeq++
			q := &run.recs[m.edge].Q
			q.Push(m.msg, seq)
			st.tr.Enqueued()
			if q.Len() == 1 {
				st.sched.Push(sim.PendingEdge{Edge: m.edge, HeadSeq: seq})
			}
		}
	}
	if run.ghostBuf == nil {
		return
	}
	for _, e := range run.ghostInto[dst] {
		buf := run.ghostBuf[e]
		if len(buf) == 0 {
			continue
		}
		q := &run.recs[e].Q
		wasEmpty := q.Len() == 0
		first := st.sendSeq
		for _, msg := range buf {
			seq := st.sendSeq
			st.sendSeq++
			q.Push(msg, seq)
			st.tr.Enqueued()
			buf[0] = nil // drop the payload pointer as it transfers
			buf = buf[1:]
		}
		run.ghostBuf[e] = run.ghostBuf[e][:0]
		if wasEmpty {
			st.sched.Push(sim.PendingEdge{Edge: e, HeadSeq: first})
		}
	}
}

// stealMinGap is the pending-count imbalance (in scheduler entries, measured
// at the barrier) below which no donation happens: moving a handful of edges
// costs more in scheduler churn than the idle time it saves.
const stealMinGap = 8

// steal is the barrier-time work donation pass: the most loaded shard
// (victim) donates pending head vertices to the least loaded one (thief)
// until roughly half the gap has moved. Every input — pending counts at the
// barrier, shard IDs as tie-breaks, vertex grouping in scheduler pop order —
// is a deterministic function of the schedule so far, never of drain timing,
// which is what keeps the whole run a pure function of (graph, protocol,
// scheduler, seed, shards). Donation migrates a head vertex wholesale
// (owner[v] flips, so the thief becomes the unique shard delivering to v,
// touching its node state, visited slot and crash quota) and never touches
// ghost heads (their reconciliation lists are fixed at run start).
func (run *shardRun) steal() {
	victim, thief := 0, 0
	for s, st := range run.states {
		if n := st.sched.Len(); n > run.states[victim].sched.Len() {
			victim = s
		} else if n < run.states[thief].sched.Len() {
			thief = s
		}
	}
	gap := run.states[victim].sched.Len() - run.states[thief].sched.Len()
	if gap < stealMinGap {
		return
	}
	target := gap / 2

	// Pop the victim's entire pending set (scheduler pop order — a pure
	// function of its deterministic state), then decide per head vertex:
	// heads are donated in first-seen order until the target is reached, and
	// every pending edge of a donated head moves with it.
	vs, ts := run.states[victim], run.states[thief]
	popped := make([]graph.EdgeID, 0, vs.sched.Len())
	for vs.sched.Len() > 0 {
		popped = append(popped, vs.sched.Pop())
	}
	donate := make(map[graph.VertexID]bool)
	donated := 0
	for _, e := range popped {
		if donated >= target {
			break
		}
		head := graph.VertexID(run.recs[e].To)
		if run.ghostHead != nil && run.ghostHead[head] {
			continue
		}
		if !donate[head] {
			donate[head] = true
			run.owner[head] = int32(thief)
		}
		donated++
	}
	moved, movedMsgs := 0, 0
	for _, e := range popped {
		q := &run.recs[e].Q
		pe := sim.PendingEdge{Edge: e, HeadSeq: q.FrontSeq()}
		if donate[graph.VertexID(run.recs[e].To)] {
			ts.sched.Push(pe)
			moved++
			movedMsgs += q.Len()
		} else {
			vs.sched.Push(pe)
		}
	}
	if moved == 0 {
		return
	}
	vs.tr.Donate(movedMsgs)
	ts.tr.Adopt(movedMsgs)
	run.steals++
	run.stolenEdges += moved
}

// inFlight is the global in-flight message count, valid at barriers only.
func (run *shardRun) inFlight() int {
	sent, delivered := 0, 0
	for _, st := range run.states {
		sent += st.aliveSent
		delivered += st.delivered
	}
	return sent - delivered
}

// finalize merges the per-shard metric partials into the result, shards in
// ID order — deterministic content, byte-identical across runs. PeakInFlight
// is the barrier-sampled peak: within a superstep shards move concurrently,
// so only barrier points have a well-defined (and deterministic) global
// count.
func (run *shardRun) finalize(res *sim.Result, peak int) {
	m := &res.Metrics
	m.PerEdgeBits = run.perEdgeBits
	m.PerEdgeMsgs = run.perEdgeMsgs
	m.PeakInFlight = peak
	res.Dropped = run.faults.Dropped()
	res.Churn = run.faults.ChurnReport()
	res.Steals = run.steals
	res.StolenEdges = run.stolenEdges
	var delivered int64
	for _, st := range run.states {
		delivered += int64(st.delivered)
		m.Messages += st.messages
		m.TotalBits += st.totalBits
		if st.maxMsgBits > m.MaxMsgBits {
			m.MaxMsgBits = st.maxMsgBits
		}
	}
	if res.Churn != nil {
		res.Churn.Deliveries = delivered
	}
	if run.trackAlphabet {
		m.Alphabet = make(map[string]int)
		for _, st := range run.states {
			for sym, count := range st.symCounts {
				m.Alphabet[st.interner.KeyOf(protocol.Symbol(sym))] += count
			}
		}
	}
	if run.trackFirstSym {
		m.FirstSymbol = make(map[graph.EdgeID]string)
		for e, s := range run.firstSym {
			if s == 0 {
				continue
			}
			// The symbol ID is dense in the interner of the shard that
			// recorded the send — under work donation not necessarily the
			// tail's static shard, so record() remembered which.
			rec := run.states[run.firstSymShard[e]]
			m.FirstSymbol[graph.EdgeID(e)] = rec.interner.KeyOf(protocol.Symbol(s - 1))
		}
	}
}
