package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Wild is the runner of the wild engines, whose schedule nobody scripts: it
// comes from the Go runtime (Concurrent) or from the kernel's loopback stack
// (the TCP tier of package netrun, which supplies a socket Transport). The
// paper's theorems hold under every asynchronous schedule, and these engines
// sample real ones.
//
// Every vertex belongs to one worker, a goroutine that drains one unbounded
// inbox and delivers every message whose head it owns. An edge is either an
// inbox append (no transport, or both ends owned by one worker) or a
// cross-worker frame carried by the Transport. Per-edge FIFO holds because
// only the owner of an edge's tail sends on it (after the root's injection,
// which precedes the workers), and inboxes and transports keep order. The
// same ownership rule keeps the fault, visited and node slots race-free
// without locks.
//
// Options.Observer, when set, receives the wild schedule through a
// SerializedObserver: one causally consistent linearization of the run's
// events, sealed the instant the verdict is decided. Recording that stream
// (replay.Recorder) is what makes a one-off wild schedule replayable on the
// sequential engine.
//
// Termination is the terminal's stopping predicate S. Non-termination is
// detected by distributed quiescence: a global in-flight counter that every
// send increments and every completed delivery decrements; when it reaches
// zero no message exists anywhere and none can ever be created.
type Wild struct {
	// Provenance names the engine in telemetry ("wild-concurrent",
	// "wild-tcp"), and Seed is the seed telemetry reports.
	Provenance string
	Seed       int64
	// Owner[v] is the worker that delivers to v and sends on v's out-edges,
	// for Workers workers. A nil Owner is the identity: one worker per
	// vertex, reported to telemetry as one shard.
	Owner   []int
	Workers int
	// Transport carries the edges whose ends have different owners; nil
	// makes every edge an inbox append, metered by Metrics.record.
	Transport Transport
	// SetupPhase (optional) and RunPhase name the wall-clock phases of
	// wiring and injection, and of the delivery loop through teardown.
	SetupPhase, RunPhase string
	// The backstops; zero disables each. MaxSteps bounds deliveries
	// (ErrStepLimit), MaxMessages bounds sends, Timeout bounds wall time
	// (ErrTimeout).
	MaxSteps    int64
	MaxMessages int64
	Timeout     time.Duration
}

// Transport carries a wild run's cross-worker edges. The runner keeps one
// send order on every engine: meter (through Encode's bits when a transport
// is set) → Observer.OnSend → fault drop → telemetry → in-flight count →
// route, so a transport only encodes and moves bytes.
type Transport interface {
	// Open wires the transport for w's owner map before the first send.
	Open(w *Wiring) error
	// Encode returns msg's wire form and its length in bits, the figure the
	// runner meters (protocol.Codec's Encode). It is called once per send,
	// on every edge.
	Encode(msg protocol.Message) (wire []byte, bits int, err error)
	// Send carries an encoded message on cross-worker edge e; only the
	// owner of e's tail calls it. The receiving side hands the decoded
	// message to Wiring.Deliver. An error after the run stopped is ignored.
	Send(e graph.EdgeID, wire []byte, bits int) error
	// Close tears the transport down and waits for its goroutines. It runs
	// once, after the run stopped, also when Open failed part way.
	Close()
}

// Wiring is a wild run as its transport sees it.
type Wiring struct {
	G *graph.G
	// Owner[v] is v's worker, one of Workers.
	Owner   []int
	Workers int
	run     *wildRun
}

// Deliver queues a message that arrived on e for the worker owning e's head.
func (w *Wiring) Deliver(e graph.EdgeID, msg protocol.Message) {
	w.run.inboxes[w.Owner[w.G.Edge(e).To]].Push(frame{edge: e, msg: msg})
}

// Fail ends the run with err, unless it already ended.
func (w *Wiring) Fail(err error) { w.run.finish(0, err) }

// Stopped reports whether the run's verdict or error is decided.
func (w *Wiring) Stopped() bool {
	select {
	case <-w.run.stopCh:
		return true
	default:
		return false
	}
}

// ErrTimeout is returned when a wild run exceeds its wall-clock budget.
var ErrTimeout = errors.New("sim: run timed out")

// frame is one queued delivery: the edge names the head vertex and its
// in-port.
type frame struct {
	edge graph.EdgeID
	msg  protocol.Message
}

type wildRun struct {
	w      Wild
	g      *graph.G
	nodes  []protocol.Node
	term   protocol.Terminal
	res    *Result
	obs    *SerializedObserver
	faults *FaultState
	wiring Wiring

	inboxes []mailbox
	steps   atomic.Int64
	// inFlight counts queued plus in-processing deliveries; the worker that
	// brings it to zero declares the run quiescent.
	inFlight  inFlightCounter
	metricsMu sync.Mutex

	// tr is the telemetry track (nil when off). Track methods are not
	// thread-safe, so every call goes through obsMu — one dedicated mutex,
	// never shared with metricsMu, so send and deliver hooks cannot deadlock.
	tr    *obs.Track
	obsMu sync.Mutex

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopCh   chan struct{}
	verdict  Verdict
	err      error
}

// Run executes p on g under w; when it returns, every goroutine of the run
// has exited.
func (w Wild) Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	nV, nE := g.NumVertices(), g.NumEdges()
	nodes, term, err := BuildNodes(g, p)
	if err != nil {
		return nil, err
	}
	faults, err := NewFaultState(g, &opts)
	if err != nil {
		return nil, err
	}
	r := &wildRun{
		w:      w,
		g:      g,
		nodes:  nodes,
		term:   term,
		obs:    NewSerializedObserver(opts.Observer),
		faults: faults,
		stopCh: make(chan struct{}),
		res:    &Result{Visited: make([]bool, nV), Nodes: nodes},
		wiring: Wiring{G: g, Owner: w.Owner, Workers: w.Workers},
	}
	r.wiring.run = r
	r.res.Visited[g.Root()] = true
	if w.Transport == nil {
		r.res.Metrics = newMetrics(nE, &opts)
	} else {
		// A transport meters the bits it encodes; symbol accounting stays
		// with the in-process engines.
		r.res.Metrics = newMetrics(nE, &Options{})
	}
	shards := w.Workers
	if w.Owner == nil {
		r.wiring.Owner = make([]int, nV)
		for v := range r.wiring.Owner {
			r.wiring.Owner[v] = v
		}
		r.wiring.Workers, shards = nV, 1
	}
	// Telemetry: one track, serialized through obsMu because workers race.
	// The timeline is wild — a function of the runtime, not the seed — so
	// only this run's own totals are meaningful.
	if rec := opts.Obs; rec != nil {
		rec.Configure(p.Name(), w.Provenance, w.Seed, shards)
		r.tr = rec.Tracks(1)[0]
	}

	endSetup := startPhase(opts.Obs, w.SetupPhase)
	err = r.setup(p)
	endSetup()
	if err != nil {
		r.finish(0, err)
		r.teardown()
		return nil, err
	}
	endRun := startPhase(opts.Obs, w.RunPhase)
	r.supervise()
	endRun()

	r.res.Steps = int(r.steps.Load())
	r.res.Dropped = r.faults.Dropped()
	r.res.Churn = r.faults.ChurnReport()
	// The quiescence counter already tracks in-flight-plus-processing
	// messages O(1) per event; its high-water mark is the peak. Every
	// worker has exited, so the counter is read without its lock.
	r.res.Metrics.PeakInFlight = int(r.inFlight.peak)
	r.res.Metrics.finalize()
	if r.err != nil {
		return r.res, r.err
	}
	r.res.Verdict = r.verdict
	if r.verdict == Terminated {
		r.res.Output = term.Output()
	}
	return r.res, nil
}

// startPhase opens a wall-clock phase on rec; an unnamed phase is not
// recorded.
func startPhase(rec *obs.Recorder, name string) func() {
	if name == "" {
		return func() {}
	}
	return rec.StartPhase(name)
}

// setup opens the inboxes and the transport, injects sigma0 before any
// worker starts (so the injection is the sole sender on the root's edges),
// then starts the workers.
func (r *wildRun) setup(p protocol.Protocol) error {
	r.inboxes = make([]mailbox, r.wiring.Workers)
	for i := range r.inboxes {
		r.inboxes[i].cond = sync.NewCond(&r.inboxes[i].mu)
	}
	if r.w.Transport != nil {
		if err := r.w.Transport.Open(&r.wiring); err != nil {
			return err
		}
	}
	inits, err := InitialMessages(r.g, p)
	if err != nil {
		return err
	}
	rootOut := r.g.OutEdgeIDs(r.g.Root())
	for j, m := range inits {
		if m == nil {
			continue
		}
		if err := r.send(rootOut[j], m); err != nil {
			return err
		}
	}
	for i := range r.inboxes {
		r.wg.Add(1)
		go r.worker(i)
	}
	return nil
}

// supervise waits for the verdict under the timeout clock and tears the
// run down; when it returns, every goroutine has exited and the shared
// counters are final.
func (r *wildRun) supervise() {
	if r.inFlight.add(0) == 0 {
		// The fault plan dropped every injected message, or the workers
		// already drained them: nothing can ever be sent again.
		r.finish(Quiescent, nil)
	}
	var timeout <-chan time.Time
	if r.w.Timeout > 0 {
		t := time.NewTimer(r.w.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-r.stopCh:
	case <-timeout:
		r.finish(0, fmt.Errorf("%w after %s on %s", ErrTimeout, r.w.Timeout, r.g))
	}
	r.teardown()
}

// teardown closes the inboxes, so later arrivals are discarded, and the
// transport, and waits for the workers.
func (r *wildRun) teardown() {
	for i := range r.inboxes {
		r.inboxes[i].Close()
	}
	if r.w.Transport != nil {
		r.w.Transport.Close()
	}
	r.wg.Wait()
}

func (r *wildRun) finish(v Verdict, err error) {
	r.stopOnce.Do(func() {
		// Seal before publishing the verdict: the post-termination drain of
		// still-queued messages must not leak into a recorded schedule.
		r.obs.Seal()
		r.verdict = v
		r.err = err
		close(r.stopCh)
	})
}

// worker is worker i's loop: it delivers every message whose head i owns,
// in inbox order, until the run stops.
func (r *wildRun) worker(i int) {
	defer r.wg.Done()
	for {
		f, ok := r.inboxes[i].Pop()
		if !ok {
			return
		}
		verdict, err := r.deliver(f)
		if verdict != 0 || err != nil {
			r.finish(verdict, err)
		}
		// Decrement strictly after the resulting sends were counted, so the
		// counter can only reach zero when the whole system is silent: no
		// message exists anywhere and none can ever be created.
		if r.inFlight.add(-1) == 0 {
			r.finish(Quiescent, nil)
		}
		if verdict != 0 || err != nil {
			return
		}
	}
}

// deliver runs one delivery step and reports Terminated when it satisfied
// the terminal's stopping predicate.
func (r *wildRun) deliver(f frame) (Verdict, error) {
	if step := r.steps.Add(1); r.w.MaxSteps > 0 && step > r.w.MaxSteps {
		return 0, fmt.Errorf("%w (graph %s)", ErrStepLimit, r.g)
	}
	e := r.g.Edge(f.edge)
	v := e.To
	if r.obs != nil {
		// Observe the delivery before processing it, so the sends it
		// triggers are linearized after it. The observer renumbers steps in
		// linearization order.
		r.obs.OnDeliver(0, f.edge, f.msg)
	}
	if r.faults.CrashDelivery(v) {
		// Crash-stopped vertex: consume without processing.
		r.obsDeliver(true)
		return 0, nil
	}
	r.res.Visited[v] = true
	outs, err := r.nodes[v].Receive(f.msg, e.ToPort)
	if err != nil {
		return 0, fmt.Errorf("sim: vertex %d receive: %w", v, err)
	}
	if outs != nil && len(outs) != r.g.OutDegree(v) {
		return 0, fmt.Errorf("sim: vertex %d returned %d outputs, out-degree is %d", v, len(outs), r.g.OutDegree(v))
	}
	outIDs := r.g.OutEdgeIDs(v)
	for j, out := range outs {
		if out == nil {
			continue
		}
		if err := r.send(outIDs[j], out); err != nil {
			return 0, err
		}
	}
	r.obsDeliver(false)
	if v == r.g.Terminal() && r.term.Done() {
		return Terminated, nil
	}
	return 0, nil
}

// send meters, observes and routes one message on e. Metering and OnSend
// run strictly before the message can be delivered, so the serialized event
// order sees every send before its delivery.
func (r *wildRun) send(e graph.EdgeID, msg protocol.Message) error {
	t := r.w.Transport
	var wire []byte
	var bits int
	if t != nil {
		var err error
		if wire, bits, err = t.Encode(msg); err != nil {
			return fmt.Errorf("sim: encode on edge %d: %w", e, err)
		}
	}
	r.metricsMu.Lock()
	if t == nil {
		r.res.Metrics.record(e, msg)
	} else {
		r.res.Metrics.count(e, bits)
	}
	sent := int64(r.res.Metrics.Messages)
	r.metricsMu.Unlock()
	if r.w.MaxMessages > 0 && sent > r.w.MaxMessages {
		return fmt.Errorf("sim: message budget exceeded (%d)", r.w.MaxMessages)
	}
	if r.obs != nil {
		r.obs.OnSend(e, msg)
	}
	// A dropped send is metered and observed but never counted in flight or
	// delivered.
	if r.faults.DropSend(e) {
		r.obsSend(true)
		return nil
	}
	r.obsSend(false)
	r.inFlight.add(1)
	ed := r.g.Edge(e)
	dst := r.wiring.Owner[ed.To]
	if t == nil || r.wiring.Owner[ed.From] == dst {
		r.inboxes[dst].Push(frame{edge: e, msg: msg})
		return nil
	}
	if err := t.Send(e, wire, bits); err != nil && !r.wiring.Stopped() {
		return err
	}
	return nil
}

// obsSend meters a send on the telemetry track; dropped marks fault drops.
// A surviving send is enqueued the instant it is counted in flight.
func (r *wildRun) obsSend(dropped bool) {
	if r.tr == nil {
		return
	}
	r.obsMu.Lock()
	r.tr.Send()
	if dropped {
		r.tr.Dropped()
	} else {
		r.tr.Enqueued()
	}
	r.obsMu.Unlock()
}

// obsDeliver closes out one delivery step on the telemetry track.
func (r *wildRun) obsDeliver(crashed bool) {
	if r.tr == nil {
		return
	}
	r.obsMu.Lock()
	r.tr.Delivered(crashed)
	r.obsMu.Unlock()
}

// inFlightCounter counts messages from the moment they are sent until their
// processing (including the counting of their own sends) ends, so zero
// means global silence. The high-water mark is tracked in the same O(1)
// update and feeds Metrics.PeakInFlight.
type inFlightCounter struct {
	mu      sync.Mutex
	n, peak int64
}

// add moves the count by delta and returns the new count.
func (c *inFlightCounter) add(delta int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += delta
	c.peak = max(c.peak, c.n)
	return c.n
}

// mailbox is an unbounded FIFO queue usable from many producers and one
// consumer. The asynchronous model has unbounded links, so a bounded channel
// would deadlock on cycles; this is the standard mutex+cond unbounded queue.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []frame
	closed bool
}

// Push appends x; a closed mailbox discards it.
func (mb *mailbox) Push(x frame) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.items = append(mb.items, x)
	mb.cond.Signal()
}

// Pop blocks until an item is available (returns it and true) or the
// mailbox is closed and empty (returns false).
func (mb *mailbox) Pop() (frame, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.items) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.items) == 0 {
		return frame{}, false
	}
	x := mb.items[0]
	mb.items = mb.items[1:]
	return x, true
}

// Close wakes the consumer; later pushes are discarded.
func (mb *mailbox) Close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}
