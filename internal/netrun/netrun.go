// Package netrun executes anonymous protocols over real TCP connections on
// 127.0.0.1: every message that crosses a socket travels as actual bytes
// produced by the protocol's wire codec. It is the "does this survive a real
// transport" tier above the in-memory engines of package sim — same
// protocols, same verdicts, real sockets.
//
// A TCP wiring is a partition. Each vertex belongs to one worker, a
// goroutine that drains one inbox and delivers every message whose head it
// owns. Each ordered worker pair with at least one edge between them is one
// channel: a TCP connection into the destination worker's listener whose
// frames name the edge they ride on,
//
//	[edge ID uint32][bit length uint32][ceil(bits/8) payload bytes]
//
// An edge whose endpoints share a worker never touches a socket; it is a
// FIFO append to the worker's own inbox. The default partition is the
// identity: every vertex is its own worker with its own listener, and
// parallel edges u->v share one connection. Options.Shards >= 2 groups the
// vertices with graph.PartitionGraph — the same partitioner and ownership
// rule as the in-memory shard engine — so the socket count follows the
// partition's cut, not the graph.
//
// Infrastructure vs. protocol knowledge: the runner wires edges to sockets
// during setup (the physical cabling of the network); the protocol running
// on top still observes only (in-degree, out-degree, port numbers), exactly
// as the model requires.
//
// Per-edge FIFO holds because an edge is either an in-worker append or rides
// one ordered TCP stream. The ownership rule keeps the fault, visited and
// node slots race-free without locks: only the owner of an edge's tail sends
// on it (after the pre-worker injection), and only the owner of its head
// delivers to it.
//
// Termination is the terminal's stopping predicate; quiescence detection
// reuses the in-flight counter of the concurrent engine (sim.InFlight) —
// counters live in process while payloads cross the loopback interface.
package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Engine adapts the TCP runner to the sim.Engine interface so callers can
// select the real-socket tier exactly like the in-memory engines. The codec
// turns protocol messages into wire bytes; opts carries the transport
// settings. From sim.Options the engine honors Faults, Obs, Seed (the
// partition seed when Options.Shards >= 2) and Observer: events are
// serialized through a sim.SerializedObserver, so a kernel-born schedule can
// be recorded and replayed on the sequential engine (see internal/replay).
// The scheduler and step limit do not apply — the schedule comes from the
// kernel's loopback stack, and the backstop is Options.MaxMessages/Timeout.
func Engine(codec protocol.Codec, opts Options) sim.Engine {
	return tcpEngine{codec: codec, opts: opts}
}

// Run executes p on g over TCP with no fault plan, observer or telemetry and
// returns a result compatible with the in-memory engines (Verdict, Visited,
// Metrics; Steps counts deliveries). Engine's Run takes those from
// sim.Options.
func Run(g *graph.G, p protocol.Protocol, codec protocol.Codec, opts Options) (*sim.Result, error) {
	return Engine(codec, opts).Run(g, p, sim.Options{})
}

// Options configures the transport of a TCP run.
type Options struct {
	// Timeout aborts the run if neither termination nor quiescence is
	// reached; 0 means a generous default.
	Timeout time.Duration
	// MaxMessages bounds total traffic as a runaway backstop; 0 = default.
	MaxMessages int64
	// Shards picks the partition that wires vertices to workers (see the
	// package doc). Shards <= 1 is the identity partition: one worker and
	// one listener per vertex. Shards >= 2 groups vertices with
	// graph.PartitionGraph, seeded by sim.Options.Seed: one worker and one
	// listener per shard, and in-shard messages never touch a socket, so the
	// tier scales to graphs whose identity wiring would need more file
	// descriptors than the host allows.
	Shards int
	// Chaos, when active, turns on deterministic socket disturbance (see
	// chaos.go): seeded per-frame latency jitter, lost first-write attempts,
	// and forced disconnects, healed by reconnect with bounded exponential
	// backoff and resend of unacked frames. Chaos disturbs only the
	// transport — verdict, visited set, and message accounting match an
	// undisturbed run.
	Chaos *Chaos
}

const (
	defaultTimeout     = 2 * time.Minute
	defaultMaxMessages = 10_000_000
)

// ErrTimeout is returned when the run exceeds its wall-clock budget.
var ErrTimeout = errors.New("netrun: run timed out")

// hdrLen is the frame header: edge ID, then payload bit length.
const hdrLen = 8

type tcpEngine struct {
	codec protocol.Codec
	opts  Options
}

func (e tcpEngine) Name() string { return "tcp" }

func (e tcpEngine) Run(g *graph.G, p protocol.Protocol, simOpts sim.Options) (*sim.Result, error) {
	opts := e.opts
	if opts.Timeout <= 0 {
		opts.Timeout = defaultTimeout
	}
	if opts.MaxMessages <= 0 {
		opts.MaxMessages = defaultMaxMessages
	}
	nodes, term, err := sim.BuildNodes(g, p)
	if err != nil {
		return nil, err
	}
	faults, err := sim.NewFaultState(g, &simOpts)
	if err != nil {
		return nil, err
	}
	r := &runner{
		g:       g,
		p:       p,
		codec:   e.codec,
		nodes:   nodes,
		term:    term,
		maxMsgs: opts.MaxMessages,
		obs:     sim.NewSerializedObserver(simOpts.Observer),
		faults:  faults,
		stopCh:  make(chan struct{}),
		res: &sim.Result{
			Visited: make([]bool, g.NumVertices()),
			Nodes:   nodes,
			Metrics: sim.Metrics{
				PerEdgeBits: make([]int64, g.NumEdges()),
				PerEdgeMsgs: make([]int, g.NumEdges()),
			},
		},
	}
	r.res.Visited[g.Root()] = true
	if opts.Chaos.active() {
		r.chaos = opts.Chaos
	}
	// Telemetry provenance: the kernel's schedule is wild and unseeded, so the
	// identity wiring reports (seed 0, shards 1); a partitioned wiring
	// reports the seed and shard count that laid it out.
	seed, shards := int64(0), 1
	if opts.Shards > 1 {
		part := graph.PartitionGraph(g, opts.Shards, simOpts.Seed)
		r.owner, r.workers = part.Of, part.K
		seed, shards = simOpts.Seed, part.K
	} else {
		r.owner = make([]int, g.NumVertices())
		for v := range r.owner {
			r.owner[v] = v
		}
		r.workers = len(r.owner)
	}
	if rec := simOpts.Obs; rec != nil {
		rec.Configure(p.Name(), "wild-tcp", seed, shards)
		r.tr = rec.Tracks(1)[0]
	}

	setupDone := obsStart(simOpts.Obs, "setup")
	if err := r.setup(); err != nil {
		r.closeAll()
		r.wg.Wait()
		return nil, err
	}
	setupDone()

	r.supervise(opts.Timeout, simOpts.Obs)
	if r.err != nil {
		return r.res, r.err
	}
	r.res.Verdict = r.verdict
	if r.verdict == sim.Terminated {
		r.res.Output = term.Output()
	}
	return r.res, nil
}

// runner is one TCP run: the result and its accounting, the wiring built
// from the owner map, and the stop protocol.
type runner struct {
	g     *graph.G
	p     protocol.Protocol
	codec protocol.Codec
	nodes []protocol.Node
	term  protocol.Terminal
	res   *sim.Result

	// owner[v] is the worker that delivers to v and sends on v's out-edges.
	owner   []int
	workers int
	// inboxes[w] is worker w's delivery queue, fed by w's read loops and by
	// its own in-worker sends. Unbounded matches the model's unbounded links
	// and rules out backpressure deadlocks on cycles.
	inboxes []*sim.Mailbox[frame]
	// listeners[w] accepts worker w's incoming channels (nil when no channel
	// points into w).
	listeners []net.Listener
	// chans holds one entry per ordered worker pair with an edge between
	// them, and edgeChan[e] indexes e's channel (-1 for an in-worker edge).
	chans    []channel
	edgeChan []int32
	chaos    *Chaos

	inFlight  sim.InFlight
	steps     atomic.Int64
	maxMsgs   int64
	obs       *sim.SerializedObserver
	faults    *sim.FaultState
	metricsMu sync.Mutex

	// tr is the telemetry track (nil when off); all calls go through obsMu —
	// one dedicated mutex, never shared with metricsMu.
	tr    *obs.Track
	obsMu sync.Mutex

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopCh   chan struct{}
	verdict  sim.Verdict
	err      error
}

// frame is one delivered message: the edge it arrived on names the head
// vertex and its in-port.
type frame struct {
	edge graph.EdgeID
	msg  protocol.Message
}

// channel is the TCP stream from worker src to worker dst. After injection
// only src's worker writes to it.
type channel struct {
	src, dst int
	conn     net.Conn     // the stream without chaos
	sender   *chaosSender // the stream with its frame log under chaos
	// recv serializes the channel's connections under chaos and counts the
	// frames delivered to dst's inbox.
	recv chaosRecv
}

// setup wires the run and starts it: channels and listeners, accept loops,
// one connection per channel, the root's injection, then the workers.
func (r *runner) setup() error {
	r.inboxes = make([]*sim.Mailbox[frame], r.workers)
	for w := range r.inboxes {
		r.inboxes[w] = sim.NewMailbox[frame]()
	}
	r.edgeChan = make([]int32, r.g.NumEdges())
	ids := make(map[uint64]int32)
	for _, e := range r.g.Edges() {
		src, dst := r.owner[e.From], r.owner[e.To]
		if src == dst {
			r.edgeChan[e.ID] = -1
			continue
		}
		key := uint64(src)<<32 | uint64(dst)
		c, ok := ids[key]
		if !ok {
			c = int32(len(r.chans))
			ids[key] = c
			r.chans = append(r.chans, channel{src: src, dst: dst})
		}
		r.edgeChan[e.ID] = c
	}
	r.listeners = make([]net.Listener, r.workers)
	for i := range r.chans {
		dst := r.chans[i].dst
		if r.listeners[dst] != nil {
			continue
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netrun: listen for worker %d: %w", dst, err)
		}
		r.listeners[dst] = l
		r.wg.Add(1)
		go r.acceptLoop(dst)
	}
	for i := range r.chans {
		if err := r.dial(i); err != nil {
			return err
		}
	}
	// Inject before any worker starts: the injection is then the sole writer
	// on the root worker's channels, and the workers' single-writer claim
	// starts clean.
	inits, err := sim.InitialMessages(r.g, r.p)
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
	for w := 0; w < r.workers; w++ {
		r.wg.Add(1)
		go r.workerLoop(w)
	}
	return nil
}

// dial opens channel i. The handshake names the channel; under chaos the
// initial connect runs the resume protocol (expecting a zero count), and the
// chaos channel identity is src<<32|dst.
func (r *runner) dial(i int) error {
	ch := &r.chans[i]
	addr := r.listeners[ch.dst].Addr().String()
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(i))
	if r.chaos != nil {
		ch.sender = &chaosSender{
			chaos:   r.chaos,
			channel: uint64(ch.src)<<32 | uint64(ch.dst),
			addr:    addr,
			hello:   hello,
			stopped: r.stopped,
		}
		if err := ch.sender.connect(); err != nil {
			return fmt.Errorf("netrun: chaos dial worker pair %d->%d: %w", ch.src, ch.dst, err)
		}
		return nil
	}
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("netrun: dial worker pair %d->%d: %w", ch.src, ch.dst, err)
	}
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return fmt.Errorf("netrun: handshake %d->%d: %w", ch.src, ch.dst, err)
	}
	ch.conn = conn
	return nil
}

// acceptLoop accepts worker dst's connections until the listener closes at
// shutdown. Under chaos, reconnects arrive throughout the run, so there is
// no fixed accept count. Each connection is read off-loop so one channel's
// serialization never blocks another channel's reconnect.
func (r *runner) acceptLoop(dst int) {
	defer r.wg.Done()
	for {
		conn, err := r.listeners[dst].Accept()
		if err != nil {
			if !r.stopped() {
				r.finish(0, fmt.Errorf("netrun: accept at worker %d: %w", dst, err))
			}
			return
		}
		r.wg.Add(1)
		go r.readLoop(dst, conn)
	}
}

// readLoop serves one accepted connection: the channel handshake in, then
// frames into dst's inbox until the stream ends. Under chaos the handshake
// is answered with the channel's delivered-frame count, and a connection
// torn before the handshake or mid-frame is dropped silently: the dialer's
// backoff loop owns the retry, and an uncounted frame is replayed whole.
func (r *runner) readLoop(dst int, conn net.Conn) {
	defer r.wg.Done()
	defer conn.Close()
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		r.failUnlessChaos(fmt.Errorf("netrun: handshake read at worker %d: %w", dst, err))
		return
	}
	id := int(binary.BigEndian.Uint32(hs[:]))
	if id >= len(r.chans) || r.chans[id].dst != dst {
		r.finish(0, fmt.Errorf("netrun: worker %d: bad handshake channel %d", dst, id))
		return
	}
	ch := &r.chans[id]
	if r.chaos != nil {
		// Serialize per channel: wait for the previous connection's read loop
		// to drain to EOF so the count quoted below is final.
		ch.recv.mu.Lock()
		defer ch.recv.mu.Unlock()
		if err := ch.recv.ackResume(conn); err != nil {
			return
		}
	}
	var hdr [hdrLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// Shutdown, the peer done sending, or a chaos teardown whose
			// successor resumes from the count: all normal ends of stream.
			return
		}
		eid := graph.EdgeID(binary.BigEndian.Uint32(hdr[:4]))
		bits := int(binary.BigEndian.Uint32(hdr[4:]))
		if int(eid) >= len(r.edgeChan) || int(r.edgeChan[eid]) != id {
			r.finish(0, fmt.Errorf("netrun: worker pair %d->%d: misrouted frame for edge %d", ch.src, dst, eid))
			return
		}
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			r.failUnlessChaos(fmt.Errorf("netrun: short frame at worker %d: %w", dst, err))
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.finish(0, fmt.Errorf("netrun: decode at worker %d: %w", dst, err))
			return
		}
		r.inboxes[dst].Push(frame{edge: eid, msg: msg})
		ch.recv.received++
	}
}

// failUnlessChaos ends the run with err, unless chaos tore the connection
// (its reconnect heals it) or the run is already stopping.
func (r *runner) failUnlessChaos(err error) {
	if r.chaos == nil && !r.stopped() {
		r.finish(0, err)
	}
}

// send encodes, meters and routes one message on eid, called by the owner
// of eid's tail: in-worker straight to the inbox, otherwise as a frame on the
// edge's channel.
func (r *runner) send(eid graph.EdgeID, msg protocol.Message) error {
	data, bits, err := r.codec.Encode(msg)
	if err != nil {
		return fmt.Errorf("netrun: encode on edge %d: %w", eid, err)
	}
	if err := r.meter(eid, bits); err != nil {
		return err
	}
	if r.obs != nil {
		// Observe the send before the frame hits the wire: the peer cannot
		// deliver a message whose send was not yet linearized.
		r.obs.OnSend(eid, msg)
	}
	// Fault plan: a dropped send is metered and observed (above) but never
	// counted in flight or delivered.
	if r.faults.DropSend(eid) {
		r.obsSend(true)
		return nil
	}
	r.obsSend(false)
	r.inFlight.Inc()

	c := r.edgeChan[eid]
	if c < 0 {
		r.inboxes[r.owner[r.g.Edge(eid).To]].Push(frame{edge: eid, msg: msg})
		return nil
	}
	ch := &r.chans[c]
	buf := make([]byte, hdrLen+len(data))
	binary.BigEndian.PutUint32(buf[:4], uint32(eid))
	binary.BigEndian.PutUint32(buf[4:8], uint32(bits))
	copy(buf[hdrLen:], data)
	if ch.sender != nil {
		err = ch.sender.send(buf)
	} else {
		_, err = ch.conn.Write(buf)
	}
	if err == nil || errors.Is(err, errChaosStopped) || r.stopped() {
		return nil
	}
	e := r.g.Edge(eid)
	return fmt.Errorf("netrun: write on edge %d->%d: %w", e.From, e.To, err)
}

// meter accounts one encoded message and enforces the traffic budget.
func (r *runner) meter(eid graph.EdgeID, bits int) error {
	r.metricsMu.Lock()
	m := &r.res.Metrics
	m.Messages++
	m.TotalBits += int64(bits)
	m.PerEdgeBits[eid] += int64(bits)
	m.PerEdgeMsgs[eid]++
	if bits > m.MaxMsgBits {
		m.MaxMsgBits = bits
	}
	total := int64(m.Messages)
	r.metricsMu.Unlock()
	if total > r.maxMsgs {
		return fmt.Errorf("netrun: message budget exceeded (%d)", r.maxMsgs)
	}
	return nil
}

// workerLoop is worker w's io loop: it delivers every message whose head w
// owns, in inbox order.
func (r *runner) workerLoop(w int) {
	defer r.wg.Done()
	for {
		f, ok := r.inboxes[w].Pop()
		if !ok {
			return
		}
		e := r.g.Edge(f.edge)
		v := e.To
		r.steps.Add(1)
		if r.obs != nil {
			// Observe the delivery before processing it, so the sends it
			// triggers are linearized after it. The observer renumbers steps
			// in linearization order.
			r.obs.OnDeliver(0, f.edge, f.msg)
		}
		if r.faults.CrashDelivery(v) {
			// Crash-stopped vertex: consume the frame without processing it.
			r.obsDeliver(true)
			r.inFlight.Dec()
			continue
		}
		// Visited and the node state are owner-exclusive: only this worker
		// delivers to v, so no lock is needed.
		r.res.Visited[v] = true
		outs, err := r.nodes[v].Receive(f.msg, e.ToPort)
		if err != nil {
			r.finish(0, fmt.Errorf("netrun: vertex %d receive: %w", v, err))
			r.inFlight.Dec()
			return
		}
		if outs != nil && len(outs) != r.g.OutDegree(v) {
			r.finish(0, fmt.Errorf("netrun: vertex %d returned %d outputs, out-degree %d", v, len(outs), r.g.OutDegree(v)))
			r.inFlight.Dec()
			return
		}
		outIDs := r.g.OutEdgeIDs(v)
		for j, out := range outs {
			if out == nil {
				continue
			}
			if err := r.send(outIDs[j], out); err != nil {
				r.finish(0, err)
				r.inFlight.Dec()
				return
			}
		}
		r.obsDeliver(false)
		if v == r.g.Terminal() && r.term.Done() {
			r.finish(sim.Terminated, nil)
			r.inFlight.Dec()
			return
		}
		// Decrement after the resulting sends were counted (see sim).
		r.inFlight.Dec()
	}
}

// supervise runs the quiescence watcher and the timeout clock, waits for the
// stop signal, and tears the run down; when it returns, every goroutine has
// exited and the shared counters are final.
func (r *runner) supervise(timeout time.Duration, rec *obs.Recorder) {
	var watcherWG sync.WaitGroup
	watcherWG.Add(1)
	go func() {
		defer watcherWG.Done()
		if r.inFlight.WaitZero() {
			r.finish(sim.Quiescent, nil)
		}
	}()

	ioDone := obsStart(rec, "io-loop")
	select {
	case <-r.stopCh:
	case <-time.After(timeout):
		r.finish(0, fmt.Errorf("%w after %s on %s", ErrTimeout, timeout, r.g))
	}
	r.closeAll()
	r.wg.Wait()
	r.inFlight.Release()
	watcherWG.Wait()
	ioDone()

	r.res.Steps = int(r.steps.Load())
	// The quiescence counter's high-water mark is the socket tier's peak of
	// in-flight-plus-processing messages — same O(1) accounting as the
	// concurrent engine.
	r.res.Metrics.PeakInFlight = int(r.inFlight.Peak())
	r.res.Dropped = r.faults.Dropped()
	r.res.Churn = r.faults.ChurnReport()
}

func (r *runner) finish(v sim.Verdict, err error) {
	r.stopOnce.Do(func() {
		// Seal before publishing the verdict so a recorded schedule never
		// includes the post-termination drain (see sim.SerializedObserver).
		r.obs.Seal()
		r.verdict = v
		r.err = err
		close(r.stopCh)
	})
}

func (r *runner) stopped() bool {
	select {
	case <-r.stopCh:
		return true
	default:
		return false
	}
}

func (r *runner) closeAll() {
	r.finish(sim.Quiescent, r.err) // no-op if already finished
	for _, l := range r.listeners {
		if l != nil {
			l.Close()
		}
	}
	for i := range r.chans {
		if ch := &r.chans[i]; ch.sender != nil {
			ch.sender.close()
		} else if ch.conn != nil {
			ch.conn.Close()
		}
	}
	for _, ib := range r.inboxes {
		ib.Close()
	}
}

// obsStart opens a wall-clock phase on rec; safe on a nil recorder.
func obsStart(rec *obs.Recorder, name string) func() {
	if rec == nil {
		return func() {}
	}
	return rec.StartPhase(name)
}

// obsSend meters a send on the telemetry track; dropped marks fault drops.
func (r *runner) obsSend(dropped bool) {
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
func (r *runner) obsDeliver(crashed bool) {
	if r.tr == nil {
		return
	}
	r.obsMu.Lock()
	r.tr.Delivered(false, crashed)
	r.obsMu.Unlock()
}
