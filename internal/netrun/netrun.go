// Package netrun is the socket transport for sim's wild runner: it executes
// anonymous protocols over real TCP connections on 127.0.0.1, and every
// message that crosses a socket travels as actual bytes produced by the
// protocol's wire codec. It is the "does this survive a real transport" tier
// above the in-memory engines of package sim — same protocols, same runner,
// same verdicts, real sockets.
//
// A TCP wiring is a partition (see sim.Wild): each vertex belongs to one
// worker. Each ordered worker pair with at least one edge between them is
// one channel: a TCP connection into the destination worker's listener
// whose frames name the edge they ride on,
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
// Infrastructure vs. protocol knowledge: the transport wires edges to
// sockets during setup (the physical cabling of the network); the protocol
// running on top still observes only (in-degree, out-degree, port numbers),
// exactly as the model requires. Per-edge FIFO holds because a cross-worker
// edge rides one ordered TCP stream. Counters live in process while payloads
// cross the loopback interface.
package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Engine returns the TCP tier as a sim.Engine, so callers can select the
// real-socket tier exactly like the in-memory engines. The codec turns
// protocol messages into wire bytes, and the metered bits are the codec's;
// opts carries the transport settings. From sim.Options the engine honors
// Faults, Obs, Seed (the partition seed when Options.Shards >= 2) and
// Observer: events are serialized through a sim.SerializedObserver, so a
// kernel-born schedule can be recorded and replayed on the sequential engine
// (see internal/replay). The scheduler and step limit do not apply — the
// schedule comes from the kernel's loopback stack, and the backstop is
// Options.MaxMessages/Timeout.
func Engine(codec protocol.Codec, opts Options) sim.Engine {
	return tcpEngine{codec: codec, opts: opts}
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

// hdrLen is the frame header: edge ID, then payload bit length.
const hdrLen = 8

type tcpEngine struct {
	codec protocol.Codec
	opts  Options
}

func (e tcpEngine) Name() string { return "tcp" }

func (e tcpEngine) Run(g *graph.G, p protocol.Protocol, simOpts sim.Options) (*sim.Result, error) {
	t := &sockets{Codec: e.codec}
	if e.opts.Chaos.active() {
		t.chaos = e.opts.Chaos
	}
	w := sim.Wild{
		Provenance:  "wild-tcp",
		SetupPhase:  "setup",
		RunPhase:    "io-loop",
		MaxMessages: e.opts.MaxMessages,
		Timeout:     e.opts.Timeout,
		Transport:   t,
	}
	if w.Timeout <= 0 {
		w.Timeout = defaultTimeout
	}
	if w.MaxMessages <= 0 {
		w.MaxMessages = defaultMaxMessages
	}
	// Telemetry provenance: the kernel's schedule is wild and unseeded, so the
	// identity wiring reports seed 0; a partitioned wiring reports the seed
	// and shard count that laid it out.
	if e.opts.Shards > 1 {
		part := graph.PartitionGraph(g, e.opts.Shards, simOpts.Seed)
		w.Owner, w.Workers, w.Seed = part.Of, part.K, simOpts.Seed
	}
	return w.Run(g, p, simOpts)
}

// sockets is one TCP run's transport: the listeners and channels built from
// the owner map. The codec's Encode is the transport's, so the runner meters
// codec bits.
type sockets struct {
	protocol.Codec
	chaos *Chaos
	w     *sim.Wiring
	// listeners[i] accepts worker i's incoming channels (nil when no channel
	// points into i).
	listeners []net.Listener
	// chans holds one entry per ordered worker pair with an edge between
	// them, and edgeChan[e] indexes e's channel (-1 for an in-worker edge).
	chans    []channel
	edgeChan []int32
	wg       sync.WaitGroup
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

// Open builds the channels and listeners, starts the accept loops, and
// opens one connection per channel.
func (s *sockets) Open(w *sim.Wiring) error {
	s.w = w
	s.edgeChan = make([]int32, w.G.NumEdges())
	ids := make(map[uint64]int32)
	for _, e := range w.G.Edges() {
		src, dst := w.Owner[e.From], w.Owner[e.To]
		if src == dst {
			s.edgeChan[e.ID] = -1
			continue
		}
		key := uint64(src)<<32 | uint64(dst)
		c, ok := ids[key]
		if !ok {
			c = int32(len(s.chans))
			ids[key] = c
			s.chans = append(s.chans, channel{src: src, dst: dst})
		}
		s.edgeChan[e.ID] = c
	}
	s.listeners = make([]net.Listener, w.Workers)
	for i := range s.chans {
		dst := s.chans[i].dst
		if s.listeners[dst] != nil {
			continue
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netrun: listen for worker %d: %w", dst, err)
		}
		s.listeners[dst] = l
		s.wg.Add(1)
		go s.acceptLoop(dst)
	}
	for i := range s.chans {
		if err := s.dial(i); err != nil {
			return err
		}
	}
	return nil
}

// dial opens channel i. The handshake names the channel; under chaos the
// initial connect runs the resume protocol (expecting a zero count), and the
// chaos channel identity is src<<32|dst.
func (s *sockets) dial(i int) error {
	ch := &s.chans[i]
	addr := s.listeners[ch.dst].Addr().String()
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(i))
	if s.chaos != nil {
		ch.sender = &chaosSender{
			chaos:   s.chaos,
			channel: uint64(ch.src)<<32 | uint64(ch.dst),
			addr:    addr,
			hello:   hello,
			stopped: s.w.Stopped,
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
func (s *sockets) acceptLoop(dst int) {
	defer s.wg.Done()
	for {
		conn, err := s.listeners[dst].Accept()
		if err != nil {
			if !s.w.Stopped() {
				s.w.Fail(fmt.Errorf("netrun: accept at worker %d: %w", dst, err))
			}
			return
		}
		s.wg.Add(1)
		go s.readLoop(dst, conn)
	}
}

// readLoop serves one accepted connection: the channel handshake in, then
// frames into dst's inbox until the stream ends. Under chaos the handshake
// is answered with the channel's delivered-frame count, and a connection
// torn before the handshake or mid-frame is dropped silently: the dialer's
// backoff loop owns the retry, and an uncounted frame is replayed whole.
func (s *sockets) readLoop(dst int, conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		s.failUnlessChaos(fmt.Errorf("netrun: handshake read at worker %d: %w", dst, err))
		return
	}
	id := int(binary.BigEndian.Uint32(hs[:]))
	if id >= len(s.chans) || s.chans[id].dst != dst {
		s.w.Fail(fmt.Errorf("netrun: worker %d: bad handshake channel %d", dst, id))
		return
	}
	ch := &s.chans[id]
	if s.chaos != nil {
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
		if int(eid) >= len(s.edgeChan) || int(s.edgeChan[eid]) != id {
			s.w.Fail(fmt.Errorf("netrun: worker pair %d->%d: misrouted frame for edge %d", ch.src, dst, eid))
			return
		}
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			s.failUnlessChaos(fmt.Errorf("netrun: short frame at worker %d: %w", dst, err))
			return
		}
		msg, err := s.Decode(buf, bits)
		if err != nil {
			s.w.Fail(fmt.Errorf("netrun: decode at worker %d: %w", dst, err))
			return
		}
		s.w.Deliver(eid, msg)
		ch.recv.received++
	}
}

// failUnlessChaos ends the run with err, unless chaos tore the connection
// (its reconnect heals it) or the run is already stopping.
func (s *sockets) failUnlessChaos(err error) {
	if s.chaos == nil && !s.w.Stopped() {
		s.w.Fail(err)
	}
}

// Send frames encoded data for eid and writes it on the edge's channel.
func (s *sockets) Send(eid graph.EdgeID, data []byte, bits int) error {
	ch := &s.chans[s.edgeChan[eid]]
	buf := make([]byte, hdrLen+len(data))
	binary.BigEndian.PutUint32(buf[:4], uint32(eid))
	binary.BigEndian.PutUint32(buf[4:8], uint32(bits))
	copy(buf[hdrLen:], data)
	var err error
	if ch.sender != nil {
		err = ch.sender.send(buf)
	} else {
		_, err = ch.conn.Write(buf)
	}
	if err == nil || errors.Is(err, errChaosStopped) {
		return nil
	}
	e := s.w.G.Edge(eid)
	return fmt.Errorf("netrun: write on edge %d->%d: %w", e.From, e.To, err)
}

// Close closes every listener and connection and waits for the accept and
// read loops.
func (s *sockets) Close() {
	for _, l := range s.listeners {
		if l != nil {
			l.Close()
		}
	}
	for i := range s.chans {
		if ch := &s.chans[i]; ch.sender != nil {
			ch.sender.close()
		} else if ch.conn != nil {
			ch.conn.Close()
		}
	}
	s.wg.Wait()
}
