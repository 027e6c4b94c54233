package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// RunConcurrent executes p on g with one goroutine per vertex and an
// unbounded mailbox per vertex. Message interleaving comes from the Go
// scheduler, so repeated runs exercise genuinely different asynchronous
// schedules. Per-edge FIFO holds because each edge has a single sending
// goroutine and mailboxes preserve insertion order.
//
// Options.Observer, when set, receives the wild schedule through a
// SerializedObserver: one causally consistent linearization of the run's
// events, sealed the instant the verdict is decided. Recording that stream
// (replay.Recorder) is what makes a one-off Go-runtime schedule replayable
// on the sequential engine.
//
// Termination is detected exactly as in the paper: the terminal's stopping
// predicate S. Non-termination is detected by distributed quiescence: a
// global in-flight counter that every send increments and every completed
// delivery decrements; when it reaches zero no message exists anywhere and
// none can ever be created.
func RunConcurrent(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
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
	res.Visited[g.Root()] = true

	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	faults, err := NewFaultState(g, &opts)
	if err != nil {
		return nil, err
	}
	run := &concurrentRun{
		g:         g,
		nodes:     nodes,
		term:      term,
		res:       res,
		opts:      &opts,
		obs:       NewSerializedObserver(opts.Observer),
		faults:    faults,
		maxSteps:  int64(maxSteps),
		boxes:     make([]*Mailbox[delivery], nV),
		stopCh:    make(chan struct{}),
		visitedMu: make([]sync.Mutex, nV),
	}
	// Telemetry: one track, serialized through an engine-owned mutex because
	// workers race. This engine's timelines are wild — a function of the Go
	// scheduler, not the seed — so only this run's own totals are meaningful.
	if opts.Obs != nil {
		opts.Obs.Configure(p.Name(), "wild-concurrent", opts.Seed, 1)
		run.tr = opts.Obs.Tracks(1)[0]
		stop := opts.Obs.StartPhase("run")
		defer stop()
	}
	for v := range run.boxes {
		run.boxes[v] = NewMailbox[delivery]()
	}

	// Inject sigma0.
	inits, err := InitialMessages(g, p)
	if err != nil {
		return nil, err
	}
	for j, init := range inits {
		if init == nil {
			continue
		}
		rootEdge := g.OutEdge(g.Root(), j)
		run.recordSend(rootEdge.ID, init)
		if run.faults.DropSend(rootEdge.ID) {
			run.obsSend(true)
			continue
		}
		run.obsSend(false)
		run.inFlight.Inc()
		run.boxes[rootEdge.To].Push(delivery{port: rootEdge.ToPort, msg: init})
	}

	var wg sync.WaitGroup
	for v := 0; v < nV; v++ {
		wg.Add(1)
		go func(v graph.VertexID) {
			defer wg.Done()
			run.worker(v)
		}(graph.VertexID(v))
	}

	// Quiescence watcher: fires when nothing is in flight anywhere.
	var watcherWG sync.WaitGroup
	watcherWG.Add(1)
	go func() {
		defer watcherWG.Done()
		if run.inFlight.WaitZero() {
			run.finish(Quiescent, nil)
		}
	}()

	<-run.stopCh
	for _, mb := range run.boxes {
		mb.Close()
	}
	wg.Wait()
	// Unblock the watcher if the run ended with messages still queued
	// (termination or error) and wait for it so no goroutine outlives Run.
	run.inFlight.Release()
	watcherWG.Wait()

	res.Steps = int(run.steps.Load())
	res.Dropped = run.faults.Dropped()
	res.Churn = run.faults.ChurnReport()
	// The quiescence counter already tracks in-flight-plus-processing
	// messages O(1) per event; its high-water mark is the peak.
	res.Metrics.PeakInFlight = int(run.inFlight.Peak())
	res.Metrics.finalize()
	if run.err != nil {
		return res, run.err
	}
	res.Verdict = run.verdict
	if res.Verdict == Terminated {
		res.Output = term.Output()
	}
	return res, nil
}

type delivery struct {
	port int
	msg  protocol.Message
}

type concurrentRun struct {
	g      *graph.G
	nodes  []protocol.Node
	term   protocol.Terminal
	res    *Result
	opts   *Options
	obs    *SerializedObserver
	faults *FaultState

	maxSteps int64
	steps    atomic.Int64

	boxes []*Mailbox[delivery]

	// inFlight counts queued plus in-processing deliveries; zero means
	// quiescent, and WaitZero wakes the watcher.
	inFlight  InFlight
	metricsMu sync.Mutex
	visitedMu []sync.Mutex

	// tr is the telemetry track (nil when off). Track methods are not
	// thread-safe, so every call goes through obsMu — one dedicated mutex,
	// never shared with metricsMu, so send and deliver hooks cannot deadlock.
	tr    *obs.Track
	obsMu sync.Mutex

	stopOnce sync.Once
	stopCh   chan struct{}
	verdict  Verdict
	err      error
}

func (r *concurrentRun) finish(v Verdict, err error) {
	r.stopOnce.Do(func() {
		// Seal before publishing the verdict: the post-termination drain of
		// still-queued messages must not leak into a recorded schedule.
		r.obs.Seal()
		r.verdict = v
		r.err = err
		close(r.stopCh)
	})
}

// recordSend meters the message and observes the send. It runs strictly
// before the message is pushed into its destination mailbox, so the
// serialized event order sees every send before its delivery.
func (r *concurrentRun) recordSend(e graph.EdgeID, msg protocol.Message) {
	r.metricsMu.Lock()
	r.res.Metrics.record(e, msg)
	r.metricsMu.Unlock()
	if r.obs != nil {
		r.obs.OnSend(e, msg)
	}
}

// obsSend meters a send on the telemetry track; dropped marks fault drops.
// A surviving send is enqueued the instant it is counted in flight.
func (r *concurrentRun) obsSend(dropped bool) {
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
func (r *concurrentRun) obsDeliver(crashed bool) {
	if r.tr == nil {
		return
	}
	r.obsMu.Lock()
	r.tr.Delivered(false, crashed)
	r.obsMu.Unlock()
}

func (r *concurrentRun) worker(v graph.VertexID) {
	mb := r.boxes[v]
	node := r.nodes[v]
	for {
		d, ok := mb.Pop()
		if !ok {
			return
		}
		step := r.steps.Add(1)
		if step > r.maxSteps {
			r.finish(0, fmt.Errorf("%w (graph %s)", ErrStepLimit, r.g))
			r.inFlight.Dec()
			return
		}
		if r.obs != nil {
			// Observe the delivery before processing it, so the sends it
			// triggers are linearized after it. The observer renumbers steps
			// in linearization order; our racy counter value is ignored.
			r.obs.OnDeliver(0, r.g.InEdge(v, d.port).ID, d.msg)
		}
		if r.faults.CrashDelivery(v) {
			// Crash-stopped vertex: consume without processing. Only this
			// worker touches v's crash quota, so the check is race-free.
			r.obsDeliver(true)
			r.inFlight.Dec()
			continue
		}
		r.visitedMu[v].Lock()
		r.res.Visited[v] = true
		r.visitedMu[v].Unlock()

		outs, err := node.Receive(d.msg, d.port)
		if err != nil {
			r.finish(0, fmt.Errorf("sim: vertex %d receive: %w", v, err))
			r.inFlight.Dec()
			return
		}
		if outs != nil && len(outs) != r.g.OutDegree(v) {
			r.finish(0, fmt.Errorf("sim: vertex %d returned %d outputs, out-degree is %d",
				v, len(outs), r.g.OutDegree(v)))
			r.inFlight.Dec()
			return
		}
		outIDs := r.g.OutEdgeIDs(v)
		for j, out := range outs {
			if out == nil {
				continue
			}
			oe := r.g.Edge(outIDs[j])
			r.recordSend(oe.ID, out)
			// Only this worker sends on v's out-edges, so the per-edge fault
			// slots are race-free. A dropped send is metered and observed but
			// never counted in flight or enqueued.
			if r.faults.DropSend(oe.ID) {
				r.obsSend(true)
				continue
			}
			r.obsSend(false)
			r.inFlight.Inc()
			r.boxes[oe.To].Push(delivery{port: oe.ToPort, msg: out})
		}
		r.obsDeliver(false)
		if v == r.g.Terminal() && r.term.Done() {
			r.finish(Terminated, nil)
			r.inFlight.Dec()
			return
		}
		// Decrement strictly after the resulting sends were counted, so the
		// counter can only reach zero when the whole system is silent.
		r.inFlight.Dec()
	}
}

// InFlight is an in-flight message counter with a wait-for-zero operation,
// shared by the concurrent engine and the TCP tier (package netrun): a
// message is counted from the moment it is sent until its processing
// (including the counting of its own sends) ends, so zero means global
// silence. The high-water mark is tracked in the same O(1) update and feeds
// Metrics.PeakInFlight. The zero value is ready to use; Inc must precede the
// first WaitZero.
type InFlight struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int64
	peak     int64
	released bool
}

func (c *InFlight) lazyInit() {
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
}

// Inc counts one more message in flight.
func (c *InFlight) Inc() { c.add(1) }

// Dec counts one message finished.
func (c *InFlight) Dec() { c.add(-1) }

func (c *InFlight) add(delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	c.n += delta
	if c.n > c.peak {
		c.peak = c.n
	}
	if c.n == 0 {
		c.cond.Broadcast()
	}
}

// Peak returns the counter's high-water mark.
func (c *InFlight) Peak() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// WaitZero blocks until the counter reaches zero (returns true) or the
// counter is released (returns false).
func (c *InFlight) WaitZero() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	for c.n != 0 && !c.released {
		c.cond.Wait()
	}
	return !c.released
}

// Release wakes all waiters regardless of the count.
func (c *InFlight) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	c.released = true
	c.cond.Broadcast()
}

// Mailbox is an unbounded FIFO queue usable from many producers and one
// consumer. The asynchronous model has unbounded links, so a bounded channel
// would deadlock on cycles; this is the standard mutex+cond unbounded queue.
type Mailbox[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
}

// NewMailbox returns an empty, open mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	mb := &Mailbox[T]{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// Push appends x; a closed mailbox discards it.
func (mb *Mailbox[T]) Push(x T) {
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
func (mb *Mailbox[T]) Pop() (T, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.items) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.items) == 0 {
		var zero T
		return zero, false
	}
	x := mb.items[0]
	mb.items = mb.items[1:]
	return x, true
}

// Close wakes the consumer; later pushes are discarded.
func (mb *Mailbox[T]) Close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}
