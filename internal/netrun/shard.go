package netrun

// This file is the sharded io-loop mode of the TCP tier (Options.Shards >=
// 2). The goroutine-per-vertex, connection-per-edge wiring in netrun.go is
// faithful to the model but linear in sockets: |V| listeners and |E|
// connections cap the graph sizes the tier can open file descriptors for.
// Sharded mode keeps the transport real while making the socket count a
// function of the PARTITION, not the graph: vertices are grouped by
// graph.PartitionGraph — the same partitioner and ownership rule as the
// in-memory shard engine — each shard runs ONE worker goroutine draining one
// inbox, ONE listener accepts the shard's incoming connections, and all
// cut-edge traffic between an ordered shard pair shares a single muxed
// connection whose frames carry the edge ID explicitly:
//
//	[edge ID uint32][bit length uint32][ceil(bits/8) payload bytes]
//
// In-shard messages skip the socket layer entirely — the locality dividend
// the partitioner is optimized for. Per-edge FIFO still holds: an in-shard
// edge is a FIFO append to the owner's inbox, and a cut edge rides one TCP
// stream, which is order-preserving.
//
// The ownership rule is what keeps the fault and visited slots race-free
// without per-vertex locks: an edge's tail belongs to exactly one shard, so
// only that shard's worker (or the pre-worker injection) sends on it, and a
// head's owner is the only worker that delivers to it — per-edge drop
// quotas, per-vertex crash quotas, Visited, and the node states are all
// single-writer.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// shardFrame is one delivered message in sharded mode: the edge it arrived
// on names the head vertex and its in-port.
type shardFrame struct {
	edge graph.EdgeID
	msg  protocol.Message
}

// shardHdrLen is the muxed frame header: edge ID, then payload bit length.
const shardHdrLen = 8

type shardRunner struct {
	runCore

	g     *graph.G
	p     protocol.Protocol
	part  *graph.Partition
	codec protocol.Codec
	nodes []protocol.Node
	term  protocol.Terminal

	// listeners[s] accepts shard s's incoming shard-pair connections (nil
	// when no cut edge points into s).
	listeners []net.Listener
	// conns[src][dst] is the single muxed connection carrying every src->dst
	// cut edge (nil when the pair has none). After injection, only shard
	// src's worker writes to it.
	conns [][]net.Conn
	// need[src][dst] records which ordered shard pairs exchange traffic; it
	// doubles as handshake validation on accept.
	need [][]bool
	// inboxes[s] is shard s's MPSC delivery queue, fed by the shard's reader
	// goroutines and by its own worker's in-shard sends.
	inboxes []*mpsc[shardFrame]

	// Chaos mode (nil slices when off): the logical channel is the ordered
	// shard pair. senders[src][dst] owns the pair's muxed stream with its
	// frame log and reconnect machinery; recv[dst][src] serializes the
	// pair's connections and tracks the delivered-frame count.
	chaos   *Chaos
	senders [][]*chaosSender
	recv    [][]*chaosRecv
}

// runSharded executes p on g in sharded mode. The caller (Run) has already
// applied option defaults and guaranteed opts.Shards >= 2.
func runSharded(g *graph.G, p protocol.Protocol, codec protocol.Codec, opts Options) (*sim.Result, error) {
	nodes, term, err := sim.BuildNodes(g, p)
	if err != nil {
		return nil, err
	}
	r := &shardRunner{
		g:     g,
		p:     p,
		part:  graph.PartitionGraph(g, opts.Shards, opts.Seed),
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
	// Telemetry: the kernel's schedule is still wild, but the shard layout
	// is seeded — report the partition seed and shard count as provenance.
	r.telemetry(opts.Obs, p.Name(), opts.Seed, r.part.K)

	setupDone := obsStart(opts.Obs, "setup")
	if err := r.listen(); err != nil {
		r.closeAll()
		return nil, err
	}
	if err := r.dial(); err != nil {
		r.closeAll()
		return nil, err
	}
	// Inject before any worker starts: the injection is then the sole writer
	// on the root shard's connections, and the workers' single-writer claim
	// on conns[src] starts clean.
	if err := r.inject(); err != nil {
		r.closeAll()
		return nil, err
	}
	for s := 0; s < r.part.K; s++ {
		r.wg.Add(1)
		go r.workerLoop(s)
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

// listen builds the shard inboxes, the pair-traffic matrix, and one listener
// per shard with incoming cut edges.
func (r *shardRunner) listen() error {
	k := r.part.K
	r.inboxes = make([]*mpsc[shardFrame], k)
	for s := range r.inboxes {
		r.inboxes[s] = newMpsc[shardFrame]()
	}
	r.need = make([][]bool, k)
	for s := range r.need {
		r.need[s] = make([]bool, k)
	}
	needIn := make([]bool, k)
	for _, e := range r.g.Edges() {
		src, dst := r.part.Of[e.From], r.part.Of[e.To]
		if src != dst {
			r.need[src][dst] = true
			needIn[dst] = true
		}
	}
	if r.chaos != nil {
		r.recv = make([][]*chaosRecv, k)
		for dst := 0; dst < k; dst++ {
			r.recv[dst] = make([]*chaosRecv, k)
			for src := 0; src < k; src++ {
				if r.need[src][dst] {
					r.recv[dst][src] = &chaosRecv{}
				}
			}
		}
	}
	r.listeners = make([]net.Listener, k)
	for s := 0; s < k; s++ {
		if !needIn[s] {
			continue
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netrun: listen for shard %d: %w", s, err)
		}
		r.listeners[s] = l
	}
	return nil
}

// dial spawns the accept loops, then opens one connection per ordered shard
// pair with traffic. The dialer's handshake names its source shard.
func (r *shardRunner) dial() error {
	k := r.part.K
	for dst := 0; dst < k; dst++ {
		if r.listeners[dst] == nil {
			continue
		}
		if r.chaos != nil {
			r.wg.Add(1)
			go r.chaosAcceptLoop(dst)
			continue
		}
		expected := 0
		for src := 0; src < k; src++ {
			if r.need[src][dst] {
				expected++
			}
		}
		r.wg.Add(1)
		go r.acceptLoop(dst, expected)
	}
	if r.chaos != nil {
		return r.dialChaos()
	}
	r.conns = make([][]net.Conn, k)
	for src := 0; src < k; src++ {
		r.conns[src] = make([]net.Conn, k)
		for dst := 0; dst < k; dst++ {
			if !r.need[src][dst] {
				continue
			}
			conn, err := net.DialTimeout("tcp", r.listeners[dst].Addr().String(), 10*time.Second)
			if err != nil {
				return fmt.Errorf("netrun: dial shard pair %d->%d: %w", src, dst, err)
			}
			var hs [4]byte
			binary.BigEndian.PutUint32(hs[:], uint32(src))
			if _, err := conn.Write(hs[:]); err != nil {
				conn.Close()
				return fmt.Errorf("netrun: handshake %d->%d: %w", src, dst, err)
			}
			r.conns[src][dst] = conn
		}
	}
	return nil
}

// dialChaos builds one chaosSender per ordered shard pair with traffic: the
// logical channel is src<<32|dst, the identity handshake names the source
// shard, and the initial connect runs the resume protocol.
func (r *shardRunner) dialChaos() error {
	k := r.part.K
	r.senders = make([][]*chaosSender, k)
	for src := 0; src < k; src++ {
		r.senders[src] = make([]*chaosSender, k)
		for dst := 0; dst < k; dst++ {
			if !r.need[src][dst] {
				continue
			}
			s := &chaosSender{
				chaos:   r.chaos,
				channel: uint64(src)<<32 | uint64(dst),
				addr:    r.listeners[dst].Addr().String(),
				stopped: r.stopped,
			}
			binary.BigEndian.PutUint32(s.hello[:], uint32(src))
			if err := s.connect(); err != nil {
				return fmt.Errorf("netrun: chaos dial shard pair %d->%d: %w", src, dst, err)
			}
			r.senders[src][dst] = s
		}
	}
	return nil
}

// chaosAcceptLoop accepts shard dst's connections until the listener closes
// at shutdown; reconnects arrive throughout the run, so there is no fixed
// accept count. Each connection is handled off-loop so one pair's
// serialization never blocks another pair's reconnect.
func (r *shardRunner) chaosAcceptLoop(dst int) {
	defer r.wg.Done()
	for {
		conn, err := r.listeners[dst].Accept()
		if err != nil {
			if !r.stopped() {
				r.finish(0, fmt.Errorf("netrun: accept at shard %d: %w", dst, err))
			}
			return
		}
		r.wg.Add(1)
		go r.chaosHandle(dst, conn)
	}
}

// chaosHandle serves one accepted shard-pair connection: source-shard
// handshake in, resume count out (serialized per pair), then the counting
// muxed read loop until the connection dies.
func (r *shardRunner) chaosHandle(dst int, conn net.Conn) {
	defer r.wg.Done()
	defer conn.Close()
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	src := int(binary.BigEndian.Uint32(hs[:]))
	if src < 0 || src >= r.part.K || !r.need[src][dst] {
		r.finish(0, fmt.Errorf("netrun: shard %d: bad handshake source %d", dst, src))
		return
	}
	rc := r.recv[dst][src]
	// Serialize per pair: wait for the previous connection's read loop to
	// drain to EOF so the count quoted below is final.
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err := rc.ackResume(conn); err != nil {
		return
	}
	var hdr [shardHdrLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		eid := graph.EdgeID(binary.BigEndian.Uint32(hdr[:4]))
		bits := int(binary.BigEndian.Uint32(hdr[4:]))
		if int(eid) >= r.g.NumEdges() {
			r.finish(0, fmt.Errorf("netrun: shard %d: frame names edge %d of %d", dst, eid, r.g.NumEdges()))
			return
		}
		e := r.g.Edge(eid)
		if r.part.Of[e.To] != dst || r.part.Of[e.From] == dst {
			r.finish(0, fmt.Errorf("netrun: shard %d: misrouted frame for edge %d->%d", dst, e.From, e.To))
			return
		}
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			// Torn mid-frame: not counted, so the sender replays it whole.
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.finish(0, fmt.Errorf("netrun: decode at shard %d: %w", dst, err))
			return
		}
		r.inboxes[dst].push(shardFrame{edge: eid, msg: msg})
		rc.received++
	}
}

func (r *shardRunner) acceptLoop(dst, expected int) {
	defer r.wg.Done()
	for i := 0; i < expected; i++ {
		conn, err := r.listeners[dst].Accept()
		if err != nil {
			if !r.stopped() {
				r.finish(0, fmt.Errorf("netrun: accept at shard %d: %w", dst, err))
			}
			return
		}
		var hs [4]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil {
			r.finish(0, fmt.Errorf("netrun: handshake read at shard %d: %w", dst, err))
			conn.Close()
			return
		}
		src := int(binary.BigEndian.Uint32(hs[:]))
		if src < 0 || src >= r.part.K || !r.need[src][dst] {
			r.finish(0, fmt.Errorf("netrun: shard %d: bad handshake source %d", dst, src))
			conn.Close()
			return
		}
		r.wg.Add(1)
		go r.readLoop(dst, conn)
	}
}

// readLoop parses muxed frames off one shard-pair connection and feeds the
// destination shard's inbox. Every frame names its edge, so routing needs no
// per-connection state beyond the destination shard.
func (r *shardRunner) readLoop(dst int, conn net.Conn) {
	defer r.wg.Done()
	defer conn.Close()
	var hdr [shardHdrLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// Connection closed: either shutdown or the peer is done
			// sending. Both are normal ends of stream.
			return
		}
		eid := graph.EdgeID(binary.BigEndian.Uint32(hdr[:4]))
		bits := int(binary.BigEndian.Uint32(hdr[4:]))
		if int(eid) >= r.g.NumEdges() {
			r.finish(0, fmt.Errorf("netrun: shard %d: frame names edge %d of %d", dst, eid, r.g.NumEdges()))
			return
		}
		e := r.g.Edge(eid)
		if r.part.Of[e.To] != dst || r.part.Of[e.From] == dst {
			r.finish(0, fmt.Errorf("netrun: shard %d: misrouted frame for edge %d->%d", dst, e.From, e.To))
			return
		}
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			if !r.stopped() {
				r.finish(0, fmt.Errorf("netrun: short frame at shard %d: %w", dst, err))
			}
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.finish(0, fmt.Errorf("netrun: decode at shard %d: %w", dst, err))
			return
		}
		r.inboxes[dst].push(shardFrame{edge: eid, msg: msg})
	}
}

// inject sends sigma0 from the root through its shard's send path.
func (r *shardRunner) inject() error {
	inits, err := sim.InitialMessages(r.g, r.p)
	if err != nil {
		return err
	}
	root := r.g.Root()
	src := r.part.Of[root]
	for j, m := range inits {
		if m == nil {
			continue
		}
		if err := r.send(src, r.g.OutEdge(root, j).ID, m); err != nil {
			return err
		}
	}
	return nil
}

// send encodes and routes one message on eid, whose tail shard src owns:
// in-shard straight to the local inbox, cross-shard as a muxed frame.
func (r *shardRunner) send(src int, eid graph.EdgeID, msg protocol.Message) error {
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
	if r.faults.DropSend(eid) {
		r.obsSend(true)
		return nil
	}
	r.obsSend(false)
	r.inFlight.Inc()

	e := r.g.Edge(eid)
	dst := r.part.Of[e.To]
	if dst == src {
		r.inboxes[src].push(shardFrame{edge: eid, msg: msg})
		return nil
	}
	frame := make([]byte, shardHdrLen+len(data))
	binary.BigEndian.PutUint32(frame[:4], uint32(eid))
	binary.BigEndian.PutUint32(frame[4:8], uint32(bits))
	copy(frame[shardHdrLen:], data)
	if r.senders != nil {
		if err := r.senders[src][dst].send(frame); err != nil {
			if errors.Is(err, errChaosStopped) || r.stopped() {
				return nil
			}
			return fmt.Errorf("netrun: write on edge %d->%d: %w", e.From, e.To, err)
		}
		return nil
	}
	if _, err := r.conns[src][dst].Write(frame); err != nil {
		if r.stopped() {
			return nil
		}
		return fmt.Errorf("netrun: write on edge %d->%d: %w", e.From, e.To, err)
	}
	return nil
}

// workerLoop is shard s's single io loop: it delivers every message whose
// head s owns, in inbox order.
func (r *shardRunner) workerLoop(s int) {
	defer r.wg.Done()
	for {
		f, ok := r.inboxes[s].pop()
		if !ok {
			return
		}
		e := r.g.Edge(f.edge)
		v := e.To
		r.steps.Add(1)
		if r.obs != nil {
			// Observe the delivery before processing it, so the sends it
			// triggers are linearized after it.
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
		for j, out := range outs {
			if out == nil {
				continue
			}
			if err := r.send(s, r.g.OutEdge(v, j).ID, out); err != nil {
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

func (r *shardRunner) closeAll() {
	r.finish(sim.Quiescent, r.err) // no-op if already finished
	for _, l := range r.listeners {
		if l != nil {
			l.Close()
		}
	}
	for _, row := range r.conns {
		for _, c := range row {
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
