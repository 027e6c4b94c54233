// Package netrun executes anonymous protocols over real TCP connections:
// every vertex is a goroutine with its own listener on 127.0.0.1, every edge
// a dedicated TCP connection, and every message travels as actual bytes
// produced by the protocol's wire codec. It is the "does this survive a real
// transport" tier above the in-memory engines of package sim — same
// protocols, same verdicts, real sockets.
//
// Infrastructure vs. protocol knowledge: the runner wires connections to
// in-ports during setup (the physical cabling of the network); the protocol
// running on top still observes only (in-degree, out-degree, port numbers),
// exactly as the model requires.
//
// Termination is the terminal's stopping predicate; quiescence detection
// reuses the in-flight counter of the concurrent engine — counters live in
// process while payloads cross the loopback interface.
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
// turns protocol messages into wire bytes; opts carries the TCP-specific
// budgets (sim.Options' scheduler and step limit do not apply — the schedule
// here comes from the kernel's loopback stack, and the backstop is
// Options.MaxMessages/Timeout). sim.Options.Observer IS honored: events are
// serialized through a sim.SerializedObserver, so a kernel-born schedule can
// be recorded and replayed on the sequential engine (see internal/replay).
func Engine(codec protocol.Codec, opts Options) sim.Engine {
	return tcpEngine{codec: codec, opts: opts}
}

type tcpEngine struct {
	codec protocol.Codec
	opts  Options
}

func (e tcpEngine) Name() string { return "tcp" }

func (e tcpEngine) Run(g *graph.G, p protocol.Protocol, simOpts sim.Options) (*sim.Result, error) {
	opts := e.opts
	if simOpts.Observer != nil {
		// Tee rather than overwrite: an observer configured on the engine's
		// own Options keeps receiving events.
		opts.Observer = sim.TeeObserver(opts.Observer, simOpts.Observer)
	}
	// Fault plans travel from the sim options into the socket tier, so no
	// engine silently ignores them.
	if simOpts.DropFirst != nil {
		opts.DropFirst = simOpts.DropFirst
	}
	if simOpts.Faults != nil {
		opts.Faults = simOpts.Faults
	}
	if simOpts.Obs != nil {
		opts.Obs = simOpts.Obs
	}
	if simOpts.Seed != 0 {
		opts.Seed = simOpts.Seed
	}
	return Run(g, p, e.codec, opts)
}

// Options configures a TCP run.
type Options struct {
	// Timeout aborts the run if neither termination nor quiescence is
	// reached; 0 means a generous default.
	Timeout time.Duration
	// MaxMessages bounds total traffic as a runaway backstop; 0 = default.
	MaxMessages int64
	// Observer, when non-nil, receives one causally consistent linearization
	// of the run's send/deliver events (serialized through a lock and sealed
	// when the verdict is decided), exactly like the concurrent engine's
	// observer stream.
	Observer sim.Observer
	// DropFirst and Faults are the deterministic fault plan of sim.Options,
	// applied at the socket tier: a dropped send is metered and observed but
	// its frame never hits the wire; a crashed vertex consumes frames
	// without processing them. The engine adapter copies these from the sim
	// options, so fault plans behave identically across all engines.
	DropFirst map[graph.EdgeID]int
	Faults    *sim.Faults
	// Obs, when non-nil, receives run telemetry (counter totals and the
	// wall-clock setup/io-loop phases). Like the concurrent engine, the
	// timeline here is wild — the kernel's schedule, not the seed's. The
	// engine adapter copies this from sim.Options.Obs.
	Obs *obs.Recorder
	// Shards >= 2 selects the sharded io-loop mode (see shard.go): vertices
	// are grouped by graph.PartitionGraph — the same partitioner and
	// ownership rule as the in-memory shard engine — each shard runs one
	// worker loop and one listener, and all cut-edge traffic between an
	// ordered shard pair is muxed over a single connection whose frames name
	// the edge explicitly. In-shard messages never touch a socket, so the
	// socket count follows the partition, not the graph, and the tier scales
	// to graphs the per-vertex wiring cannot open enough file descriptors
	// for. Shards <= 1 keeps the original goroutine-per-vertex,
	// connection-per-edge wiring.
	Shards int
	// Seed drives the partitioner in sharded mode (ignored otherwise). The
	// engine adapter copies sim.Options.Seed here when set, so the shard
	// layout follows the run's seed exactly like the in-memory shard engine.
	Seed int64
	// Chaos, when active, turns on deterministic socket disturbance (see
	// chaos.go): seeded per-frame latency jitter, lost first-write attempts,
	// and forced disconnects, healed by reconnect with bounded exponential
	// backoff and resend of unacked frames. Chaos disturbs only the
	// transport — verdict, visited set, and message accounting match an
	// undisturbed run. Applies to both wiring modes.
	Chaos *Chaos
}

const (
	defaultTimeout     = 2 * time.Minute
	defaultMaxMessages = 10_000_000
)

// ErrTimeout is returned when the run exceeds its wall-clock budget.
var ErrTimeout = errors.New("netrun: run timed out")

// Run executes p on g over TCP and returns a result compatible with the
// in-memory engines (Verdict, Visited, Metrics; Steps counts deliveries).
func Run(g *graph.G, p protocol.Protocol, codec protocol.Codec, opts Options) (*sim.Result, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = defaultTimeout
	}
	if opts.MaxMessages <= 0 {
		opts.MaxMessages = defaultMaxMessages
	}
	if opts.Shards > 1 {
		return runSharded(g, p, codec, opts)
	}

	nodes, term, err := sim.BuildNodes(g, p)
	if err != nil {
		return nil, err
	}
	r := &runner{
		g:     g,
		p:     p,
		codec: codec,
		nodes: nodes,
		term:  term,
	}
	if opts.Chaos.active() {
		r.chaos = opts.Chaos
	}
	if err := r.init(g, opts); err != nil {
		return nil, err
	}
	r.res.Nodes = nodes

	// Telemetry: the seed reported is 0 — the kernel's schedule is not
	// seeded (the sharded mode reports its partition seed instead).
	r.telemetry(opts.Obs, p.Name(), 0, 1)

	setupDone := obsStart(opts.Obs, "setup")
	if err := r.listen(); err != nil {
		r.closeAll()
		return nil, err
	}
	if err := r.dial(); err != nil {
		r.closeAll()
		return nil, err
	}
	if err := r.start(); err != nil {
		r.closeAll()
		return nil, err
	}
	setupDone()

	r.supervise(g, opts, r.closeAll)
	if r.err != nil {
		return r.res, r.err
	}
	r.res.Verdict = r.verdict
	if r.verdict == sim.Terminated {
		r.res.Output = term.Output()
	}
	return r.res, nil
}

// runCore is the state and accounting shared by both wiring modes of the
// TCP tier — the goroutine-per-vertex runner below and the sharded io-loop
// runner in shard.go. It owns the result skeleton, the quiescence counter,
// fault state, telemetry, and the stop protocol; the wiring-specific runners
// embed it and add their sockets and loops.
type runCore struct {
	res *sim.Result

	inFlight Counter
	steps    atomic.Int64
	maxMsgs  int64
	obs      *sim.SerializedObserver
	faults   *sim.FaultState

	metricsMu sync.Mutex
	visitedMu sync.Mutex

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

// init builds the result skeleton, fault state, and stop channel.
func (c *runCore) init(g *graph.G, opts Options) error {
	nV, nE := g.NumVertices(), g.NumEdges()
	c.res = &sim.Result{
		Visited: make([]bool, nV),
		Metrics: sim.Metrics{
			PerEdgeBits: make([]int64, nE),
			PerEdgeMsgs: make([]int, nE),
		},
	}
	c.stopCh = make(chan struct{})
	c.maxMsgs = opts.MaxMessages
	c.obs = sim.NewSerializedObserver(opts.Observer)
	faults, err := sim.NewFaultState(g, &sim.Options{DropFirst: opts.DropFirst, Faults: opts.Faults})
	if err != nil {
		return err
	}
	c.faults = faults
	c.res.Visited[g.Root()] = true
	return nil
}

// telemetry wires the recorder: one track behind an engine-owned mutex
// (reader goroutines and worker loops race on it).
func (c *runCore) telemetry(rec *obs.Recorder, proto string, seed int64, shards int) {
	if rec == nil {
		return
	}
	rec.Configure(proto, "wild-tcp", seed, shards)
	c.tr = rec.Tracks(1)[0]
}

// meter accounts one encoded message and enforces the traffic budget.
func (c *runCore) meter(eid graph.EdgeID, bits int) error {
	c.metricsMu.Lock()
	m := &c.res.Metrics
	m.Messages++
	m.TotalBits += int64(bits)
	m.PerEdgeBits[eid] += int64(bits)
	m.PerEdgeMsgs[eid]++
	if bits > m.MaxMsgBits {
		m.MaxMsgBits = bits
	}
	total := int64(m.Messages)
	c.metricsMu.Unlock()
	if total > c.maxMsgs {
		return fmt.Errorf("netrun: message budget exceeded (%d)", c.maxMsgs)
	}
	return nil
}

// supervise runs the quiescence watcher and the timeout clock, waits for the
// stop signal, and tears the run down via closeAll; when it returns, every
// goroutine has exited and the shared counters are final.
func (c *runCore) supervise(g *graph.G, opts Options, closeAll func()) {
	var watcherWG sync.WaitGroup
	watcherWG.Add(1)
	go func() {
		defer watcherWG.Done()
		if c.inFlight.WaitZero() {
			c.finish(sim.Quiescent, nil)
		}
	}()

	ioDone := obsStart(opts.Obs, "io-loop")
	select {
	case <-c.stopCh:
	case <-time.After(opts.Timeout):
		c.finish(0, fmt.Errorf("%w after %s on %s", ErrTimeout, opts.Timeout, g))
	}
	closeAll()
	c.wg.Wait()
	c.inFlight.Release()
	watcherWG.Wait()
	ioDone()

	c.res.Steps = int(c.steps.Load())
	// The quiescence counter's high-water mark is the socket tier's peak of
	// in-flight-plus-processing messages — same O(1) accounting as the
	// concurrent engine, so this tier no longer reports a silent zero.
	c.res.Metrics.PeakInFlight = int(c.inFlight.Peak())
	c.res.Dropped = c.faults.Dropped()
	c.res.Churn = c.faults.ChurnReport()
}

type runner struct {
	runCore

	g     *graph.G
	p     protocol.Protocol
	codec protocol.Codec
	nodes []protocol.Node
	term  protocol.Terminal

	listeners []net.Listener
	// outConns[v][j] is vertex v's connection for its out-port j (non-chaos
	// mode only; chaos mode routes sends through senders instead).
	outConns [][]net.Conn
	// inbox fan-in: each vertex drains one unbounded queue fed by
	// per-connection reader goroutines. Unbounded matches the model's
	// unbounded links and rules out backpressure deadlocks on cycles.
	inboxes []*inbox

	// Chaos mode (nil slices when off): senders[v][j] owns out-port j's
	// channel with its frame log and reconnect machinery; recv[v][port]
	// serializes in-port connections and tracks the delivered-frame count.
	chaos   *Chaos
	senders [][]*chaosSender
	recv    [][]*chaosRecv
}

type inFrame struct {
	port int
	msg  protocol.Message
}

func (c *runCore) finish(v sim.Verdict, err error) {
	c.stopOnce.Do(func() {
		// Seal before publishing the verdict so a recorded schedule never
		// includes the post-termination drain (see sim.SerializedObserver).
		c.obs.Seal()
		c.verdict = v
		c.err = err
		close(c.stopCh)
	})
}

// obsStart opens a wall-clock phase on rec; safe on a nil recorder.
func obsStart(rec *obs.Recorder, name string) func() {
	if rec == nil {
		return func() {}
	}
	return rec.StartPhase(name)
}

// obsSend meters a send on the telemetry track; dropped marks fault drops.
func (c *runCore) obsSend(dropped bool) {
	if c.tr == nil {
		return
	}
	c.obsMu.Lock()
	c.tr.Send()
	if dropped {
		c.tr.Dropped()
	} else {
		c.tr.Enqueued()
	}
	c.obsMu.Unlock()
}

// obsDeliver closes out one delivery step on the telemetry track.
func (c *runCore) obsDeliver(crashed bool) {
	if c.tr == nil {
		return
	}
	c.obsMu.Lock()
	c.tr.Delivered(false, crashed)
	c.obsMu.Unlock()
}

func (c *runCore) stopped() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}

// listen opens one TCP listener per vertex with incoming edges.
func (r *runner) listen() error {
	nV := r.g.NumVertices()
	r.listeners = make([]net.Listener, nV)
	r.inboxes = make([]*inbox, nV)
	if r.chaos != nil {
		r.recv = make([][]*chaosRecv, nV)
	}
	for v := 0; v < nV; v++ {
		r.inboxes[v] = newInbox()
		if r.g.InDegree(graph.VertexID(v)) == 0 {
			continue
		}
		if r.chaos != nil {
			r.recv[v] = make([]*chaosRecv, r.g.InDegree(graph.VertexID(v)))
			for port := range r.recv[v] {
				r.recv[v][port] = &chaosRecv{}
			}
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netrun: listen for vertex %d: %w", v, err)
		}
		r.listeners[v] = l
	}
	return nil
}

// dial establishes one connection per edge. The dialer sends a one-shot
// handshake naming the target in-port; the accept loop routes the
// connection's frames to the vertex inbox under that port.
func (r *runner) dial() error {
	nV := r.g.NumVertices()
	// Accept loops first. Chaos mode accepts forever (reconnects arrive at
	// any time); non-chaos mode accepts exactly the in-degree.
	for v := 0; v < nV; v++ {
		if r.listeners[v] == nil {
			continue
		}
		r.wg.Add(1)
		if r.chaos != nil {
			go r.chaosAcceptLoop(graph.VertexID(v))
		} else {
			go r.acceptLoop(graph.VertexID(v), r.g.InDegree(graph.VertexID(v)))
		}
	}
	if r.chaos != nil {
		return r.dialChaos()
	}
	// Dial every edge, walking the CSR out-adjacency in port order.
	r.outConns = make([][]net.Conn, nV)
	for v := 0; v < nV; v++ {
		outIDs := r.g.OutEdgeIDs(graph.VertexID(v))
		r.outConns[v] = make([]net.Conn, len(outIDs))
		for j, eid := range outIDs {
			e := r.g.Edge(eid)
			addr := r.listeners[e.To].Addr().String()
			conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
			if err != nil {
				return fmt.Errorf("netrun: dial edge %d->%d: %w", e.From, e.To, err)
			}
			// Handshake: the in-port this cable plugs into.
			var hs [4]byte
			binary.BigEndian.PutUint32(hs[:], uint32(e.ToPort))
			if _, err := conn.Write(hs[:]); err != nil {
				conn.Close()
				return fmt.Errorf("netrun: handshake %d->%d: %w", e.From, e.To, err)
			}
			r.outConns[v][j] = conn
		}
	}
	return nil
}

// dialChaos builds one chaosSender per edge: the logical channel is the edge
// itself, the identity handshake names the in-port, and the initial connect
// runs the resume protocol (expecting a zero count).
func (r *runner) dialChaos() error {
	nV := r.g.NumVertices()
	r.senders = make([][]*chaosSender, nV)
	for v := 0; v < nV; v++ {
		outIDs := r.g.OutEdgeIDs(graph.VertexID(v))
		r.senders[v] = make([]*chaosSender, len(outIDs))
		for j, eid := range outIDs {
			e := r.g.Edge(eid)
			s := &chaosSender{
				chaos:   r.chaos,
				channel: uint64(eid),
				addr:    r.listeners[e.To].Addr().String(),
				stopped: r.stopped,
			}
			binary.BigEndian.PutUint32(s.hello[:], uint32(e.ToPort))
			if err := s.connect(); err != nil {
				return fmt.Errorf("netrun: chaos dial edge %d->%d: %w", e.From, e.To, err)
			}
			r.senders[v][j] = s
		}
	}
	return nil
}

// chaosAcceptLoop accepts connections for vertex v until the listener
// closes at shutdown: under chaos, reconnects arrive throughout the run, so
// there is no fixed accept count. Each connection is handled off-loop so one
// channel's serialization never blocks another channel's reconnect.
func (r *runner) chaosAcceptLoop(v graph.VertexID) {
	defer r.wg.Done()
	for {
		conn, err := r.listeners[v].Accept()
		if err != nil {
			if !r.stopped() {
				r.finish(0, fmt.Errorf("netrun: accept at vertex %d: %w", v, err))
			}
			return
		}
		r.wg.Add(1)
		go r.chaosHandle(v, conn)
	}
}

// chaosHandle serves one accepted connection: identity handshake in, resume
// count out (serialized per channel), then the counting read loop until the
// connection dies. A connection abandoned before or during the handshake is
// dropped silently — the dialer's backoff loop owns the retry.
func (r *runner) chaosHandle(v graph.VertexID, conn net.Conn) {
	defer r.wg.Done()
	defer conn.Close()
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	port := int(binary.BigEndian.Uint32(hs[:]))
	if port < 0 || port >= r.g.InDegree(v) {
		r.finish(0, fmt.Errorf("netrun: vertex %d: bad handshake port %d", v, port))
		return
	}
	rc := r.recv[v][port]
	// Serialize per channel: wait for the previous connection's read loop to
	// drain to EOF so the count quoted below is final.
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err := rc.ackResume(conn); err != nil {
		return
	}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// Torn down (chaos or shutdown): the next connection resumes
			// from rc.received.
			return
		}
		bits := int(binary.BigEndian.Uint32(hdr[:]))
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			// Torn mid-frame: not counted, so the sender replays it whole.
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.finish(0, fmt.Errorf("netrun: decode at vertex %d: %w", v, err))
			return
		}
		r.inboxes[v].push(inFrame{port: port, msg: msg})
		rc.received++
	}
}

func (r *runner) acceptLoop(v graph.VertexID, expected int) {
	defer r.wg.Done()
	for i := 0; i < expected; i++ {
		conn, err := r.listeners[v].Accept()
		if err != nil {
			if !r.stopped() {
				r.finish(0, fmt.Errorf("netrun: accept at vertex %d: %w", v, err))
			}
			return
		}
		var hs [4]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil {
			r.finish(0, fmt.Errorf("netrun: handshake read at vertex %d: %w", v, err))
			conn.Close()
			return
		}
		port := int(binary.BigEndian.Uint32(hs[:]))
		if port < 0 || port >= r.g.InDegree(v) {
			r.finish(0, fmt.Errorf("netrun: vertex %d: bad handshake port %d", v, port))
			conn.Close()
			return
		}
		r.wg.Add(1)
		go r.readLoop(v, port, conn)
	}
}

// readLoop parses frames off one connection and feeds the vertex inbox.
// Frame format: uint32 bit length, then ceil(bits/8) payload bytes.
func (r *runner) readLoop(v graph.VertexID, port int, conn net.Conn) {
	defer r.wg.Done()
	defer conn.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// Connection closed: either shutdown or the peer is done
			// sending. Both are normal ends of stream.
			return
		}
		bits := int(binary.BigEndian.Uint32(hdr[:]))
		nbytes := (bits + 7) / 8
		buf := make([]byte, nbytes)
		if _, err := io.ReadFull(conn, buf); err != nil {
			if !r.stopped() {
				r.finish(0, fmt.Errorf("netrun: short frame at vertex %d: %w", v, err))
			}
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.finish(0, fmt.Errorf("netrun: decode at vertex %d: %w", v, err))
			return
		}
		r.inboxes[v].push(inFrame{port: port, msg: msg})
	}
}

// start launches the vertex workers and injects sigma0.
func (r *runner) start() error {
	for v := 0; v < r.g.NumVertices(); v++ {
		r.wg.Add(1)
		go r.vertexLoop(graph.VertexID(v))
	}
	// Inject the initial message(s) from the root.
	root := r.g.Root()
	inits, err := sim.InitialMessages(r.g, r.p)
	if err != nil {
		return err
	}
	for j, m := range inits {
		if m == nil {
			continue
		}
		if err := r.send(root, j, m); err != nil {
			return err
		}
	}
	return nil
}

// send encodes and writes one message on v's out-port j.
func (r *runner) send(v graph.VertexID, j int, msg protocol.Message) error {
	data, bits, err := r.codec.Encode(msg)
	if err != nil {
		return fmt.Errorf("netrun: encode at vertex %d: %w", v, err)
	}
	e := r.g.OutEdge(v, j)
	if err := r.meter(e.ID, bits); err != nil {
		return err
	}
	if r.obs != nil {
		// Observe the send before the frame hits the wire: the peer cannot
		// deliver a message whose send was not yet linearized.
		r.obs.OnSend(e.ID, msg)
	}
	// Fault plan: a dropped send is metered and observed (above) but its
	// frame never hits the wire and it is never counted in flight. Only v's
	// vertex loop (or the pre-worker injection) sends on v's out-edges, so
	// the per-edge fault slots are race-free.
	if r.faults.DropSend(e.ID) {
		r.obsSend(true)
		return nil
	}
	r.obsSend(false)
	r.inFlight.Inc()

	frame := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(frame[:4], uint32(bits))
	copy(frame[4:], data)
	if r.senders != nil {
		if err := r.senders[v][j].send(frame); err != nil {
			if errors.Is(err, errChaosStopped) || r.stopped() {
				return nil
			}
			return fmt.Errorf("netrun: write on edge %d->%d: %w", e.From, e.To, err)
		}
		return nil
	}
	if _, err := r.outConns[v][j].Write(frame); err != nil {
		if r.stopped() {
			return nil
		}
		return fmt.Errorf("netrun: write on edge %d->%d: %w", e.From, e.To, err)
	}
	return nil
}

func (r *runner) vertexLoop(v graph.VertexID) {
	defer r.wg.Done()
	node := r.nodes[v]
	for {
		f, ok := r.inboxes[v].pop()
		if !ok {
			return
		}
		r.steps.Add(1)
		if r.obs != nil {
			// Observe the delivery before processing it, so the sends it
			// triggers are linearized after it. The observer renumbers steps
			// in linearization order; our racy counter value is ignored.
			r.obs.OnDeliver(0, r.g.InEdge(v, f.port).ID, f.msg)
		}
		if r.faults.CrashDelivery(v) {
			// Crash-stopped vertex: consume the frame without processing it.
			// Only this loop delivers to v, so the quota slot is race-free.
			r.obsDeliver(true)
			r.inFlight.Dec()
			continue
		}
		r.visitedMu.Lock()
		r.res.Visited[v] = true
		r.visitedMu.Unlock()

		outs, err := node.Receive(f.msg, f.port)
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
		for j, out := range outs {
			if out == nil {
				continue
			}
			if err := r.send(v, j, out); err != nil {
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

func (r *runner) closeAll() {
	r.finish(sim.Quiescent, r.err) // no-op if already finished
	for _, l := range r.listeners {
		if l != nil {
			l.Close()
		}
	}
	for _, conns := range r.outConns {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, row := range r.senders {
		for _, s := range row {
			if s != nil {
				s.close()
			}
		}
	}
	for _, ib := range r.inboxes {
		if ib != nil {
			ib.close()
		}
	}
}

// inbox is an unbounded multi-producer single-consumer queue of in-frames;
// the sharded mode instantiates the same queue over its own frame type.
type inbox = mpsc[inFrame]

func newInbox() *inbox { return newMpsc[inFrame]() }

// mpsc is an unbounded multi-producer single-consumer queue.
type mpsc[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
}

func newMpsc[T any]() *mpsc[T] {
	ib := &mpsc[T]{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *mpsc[T]) push(f T) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return
	}
	ib.items = append(ib.items, f)
	ib.cond.Signal()
}

func (ib *mpsc[T]) pop() (T, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for len(ib.items) == 0 && !ib.closed {
		ib.cond.Wait()
	}
	if len(ib.items) == 0 {
		var zero T
		return zero, false
	}
	f := ib.items[0]
	ib.items = ib.items[1:]
	return f, true
}

func (ib *mpsc[T]) close() {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.closed = true
	ib.cond.Broadcast()
}

// Counter is an in-flight counter with wait-for-zero, shared with the
// concurrent engine's semantics: a message is counted from the moment it is
// sent until its processing (including the counting of its own sends) ends,
// so zero means global silence. The high-water mark is tracked in the same
// O(1) update and feeds Metrics.PeakInFlight.
type Counter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int64
	peak     int64
	released bool
}

func (c *Counter) lazyInit() {
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
}

// Inc increments the counter.
func (c *Counter) Inc() { c.add(1) }

// Dec decrements the counter.
func (c *Counter) Dec() { c.add(-1) }

func (c *Counter) add(d int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	c.n += d
	if c.n > c.peak {
		c.peak = c.n
	}
	if c.n == 0 {
		c.cond.Broadcast()
	}
}

// Peak returns the counter's high-water mark.
func (c *Counter) Peak() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// WaitZero blocks until zero (true) or release (false).
func (c *Counter) WaitZero() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	for c.n != 0 && !c.released {
		c.cond.Wait()
	}
	return !c.released
}

// Release wakes all waiters regardless of count.
func (c *Counter) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	c.released = true
	c.cond.Broadcast()
}
