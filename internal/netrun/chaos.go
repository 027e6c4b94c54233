package netrun

// This file is the socket-chaos layer of the TCP tier: deterministic,
// per-connection disturbance (latency jitter, forced disconnects, and
// "lost" writes) plus the recovery machinery that heals every disturbance —
// reconnect with bounded exponential backoff and resend of unacked frames.
//
// Chaos is seeded exactly like the Bernoulli fault hash in package sim: each
// decision is a pure function of (seed, logical channel, per-channel frame
// index), so the SAME frames are disturbed on every run regardless of the
// kernel's schedule. A logical channel is an ordered worker pair, identified
// as src<<32|dst.
//
// The invariant chaos must preserve: a disturbed run reaches the SAME verdict
// and visited set as an undisturbed one. Chaos therefore never loses a
// message for the protocol — a "lost" write tears the connection down BEFORE
// the frame hits the wire, and the reconnect protocol replays it. Loss at
// this layer is delay, exactly as TCP itself promises; message-level loss
// stays the job of the sim fault plan, which is shared by every engine.
//
// Exactly-once delivery across reconnects rests on two pieces:
//
//   - The sender keeps a per-channel log of every frame it accepted and a
//     cursor of how many the CURRENT connection has carried. On reconnect the
//     receiver answers the identity handshake with the count of frames it
//     fully delivered (8 bytes, big-endian); the sender rewinds its cursor to
//     that count and replays everything after it.
//   - The receiver serializes connections per channel: a new connection's
//     handshake is not answered until the previous connection's read loop has
//     drained to EOF. TCP flushes buffered bytes before the FIN, so the
//     delivered-count the receiver reports is final — no frame from the old
//     connection can arrive after the count was quoted, and no frame is
//     delivered twice.
//
// A frame torn mid-read is not counted as delivered; the replay carries it
// again from its first byte. Frames are counted, metered, and observed once,
// when first accepted — a replayed frame is the same message, not new
// traffic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Chaos configures deterministic socket disturbance for the TCP tier. The
// zero value (and a nil pointer) disables chaos entirely; the non-chaos wire
// paths are untouched byte for byte.
type Chaos struct {
	// DisconnectEvery > 0 forcibly tears a channel's connection down before
	// every Nth frame (by per-channel index); the sender reconnects and
	// resends the unacked tail.
	DisconnectEvery int
	// LossPct in [0, 100] is the percentage of frames whose first write
	// attempt is "lost": the connection is torn down before the frame is
	// written, so the frame travels only after the reconnect. Decided per
	// frame by the seeded hash.
	LossPct int
	// DelayMaxMS > 0 adds seeded latency jitter in [0, DelayMaxMS) ms before
	// each frame's first write attempt.
	DelayMaxMS int
	// Seed drives every chaos decision; the same seed disturbs the same
	// (channel, frame) pairs on every run.
	Seed int64
}

// active reports whether any disturbance is configured; nil-safe.
func (c *Chaos) active() bool {
	return c != nil && (c.DisconnectEvery > 0 || c.LossPct > 0 || c.DelayMaxMS > 0)
}

// ParseChaos parses a chaos spec of comma-separated key=value terms:
//
//	disconnect=N   tear each channel down before every Nth frame
//	loss=PCT       percent of frames whose first write attempt is lost
//	delay=MS       max seeded per-frame latency jitter, in milliseconds
//	seed=S         seed for the chaos hash
//
// An empty spec returns (nil, nil): chaos off.
func ParseChaos(spec string) (*Chaos, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	c := &Chaos{}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("netrun: chaos term %q is not key=value", term)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("netrun: chaos term %q: bad value", term)
		}
		switch strings.TrimSpace(key) {
		case "disconnect":
			if n < 0 {
				return nil, fmt.Errorf("netrun: chaos disconnect=%d is negative", n)
			}
			c.DisconnectEvery = n
		case "loss":
			if n < 0 || n > 100 {
				return nil, fmt.Errorf("netrun: chaos loss=%d is not a percentage in [0,100]", n)
			}
			c.LossPct = n
		case "delay":
			if n < 0 {
				return nil, fmt.Errorf("netrun: chaos delay=%d is negative", n)
			}
			c.DelayMaxMS = n
		case "seed":
			c.Seed = int64(n)
		default:
			return nil, fmt.Errorf("netrun: unknown chaos key %q (have disconnect|loss|delay|seed)", key)
		}
	}
	return c, nil
}

// chaosHash mirrors the sim fault plan's bernoulli idiom: (seed, channel,
// frame index, decision salt) through splitmix64. Each decision kind uses its
// own salt so loss and delay draw independent coins for the same frame.
func chaosHash(seed int64, channel, idx, salt uint64) uint64 {
	x := uint64(seed) ^ (channel+1)*0x9e3779b97f4a7c15 ^ (idx+1)*0xbf58476d1ce4e5b9 ^ (salt+1)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	chaosSaltLoss  = 1
	chaosSaltDelay = 2
)

// dropWrite decides whether frame idx's first write attempt on channel is
// torn down — the seeded analogue of a lost packet, healed by resend.
func (c *Chaos) dropWrite(channel, idx uint64) bool {
	if c.LossPct <= 0 {
		return false
	}
	h := chaosHash(c.Seed, channel, idx, chaosSaltLoss)
	return float64(h>>11)/(1<<53) < float64(c.LossPct)/100
}

// disconnectAt decides whether the channel's connection is forcibly torn
// down before frame idx.
func (c *Chaos) disconnectAt(idx uint64) bool {
	return c.DisconnectEvery > 0 && idx > 0 && idx%uint64(c.DisconnectEvery) == 0
}

// delayFor is the seeded latency jitter before frame idx's first write,
// drawn with microsecond granularity in [0, DelayMaxMS) ms.
func (c *Chaos) delayFor(channel, idx uint64) time.Duration {
	if c.DelayMaxMS <= 0 {
		return 0
	}
	h := chaosHash(c.Seed, channel, idx, chaosSaltDelay)
	return time.Duration(h%(uint64(c.DelayMaxMS)*1000)) * time.Microsecond
}

// Reconnect backoff: bounded exponential, starting small because the peer is
// on loopback and its accept loop runs for the whole run.
const (
	chaosBackoffStart = 2 * time.Millisecond
	chaosBackoffMax   = 250 * time.Millisecond
	chaosDialRetries  = 64
	chaosWriteRetries = 64
)

// errChaosStopped reports that a chaos reconnect was abandoned because the
// run is shutting down; callers swallow it like any post-stop write error.
var errChaosStopped = errors.New("netrun: chaos channel closed at shutdown")

// chaosSender owns one logical channel's sending side under chaos: the
// current connection, the full frame log, and the cursor of frames the
// current connection has carried. Exactly one goroutine sends on a channel
// (the worker that owns its tails, after the pre-worker injection), so the
// mutex only arbitrates against close() at shutdown.
type chaosSender struct {
	chaos   *Chaos
	channel uint64      // src<<32|dst of the worker pair
	addr    string      // listener to (re)dial
	hello   [4]byte     // identity handshake: the channel's index
	stopped func() bool // run-level stop check; aborts backoff loops

	mu      sync.Mutex
	conn    net.Conn
	frames  [][]byte // every frame ever accepted on this channel
	flushed int      // frames the current connection has fully written
	closed  bool
}

// connect establishes the initial connection (expecting a zero resume count).
func (s *chaosSender) connect() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.redialLocked()
}

// send accepts one frame, applies the seeded disturbances owed to it, and
// flushes the backlog — reconnecting as often as it takes.
func (s *chaosSender) send(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := uint64(len(s.frames))
	s.frames = append(s.frames, frame)
	if d := s.chaos.delayFor(s.channel, idx); d > 0 {
		// Jitter outside the lock so shutdown's close() is never delayed.
		s.mu.Unlock()
		time.Sleep(d)
		s.mu.Lock()
	}
	if s.conn != nil && (s.chaos.disconnectAt(idx) || s.chaos.dropWrite(s.channel, idx)) {
		// Tear down BEFORE the frame hits the wire: the disturbance is
		// delay, never protocol-visible loss — the reconnect replays it.
		s.conn.Close()
		s.conn = nil
	}
	return s.flushLocked()
}

// flushLocked writes every unflushed frame on the current connection,
// redialing on failure until the backlog drains or the run stops.
func (s *chaosSender) flushLocked() error {
	for attempt := 0; ; attempt++ {
		if s.closed || s.stopped() {
			return errChaosStopped
		}
		if s.conn == nil {
			if err := s.redialLocked(); err != nil {
				return err
			}
		}
		var err error
		for s.flushed < len(s.frames) {
			if _, err = s.conn.Write(s.frames[s.flushed]); err != nil {
				break
			}
			s.flushed++
		}
		if err == nil {
			return nil
		}
		s.conn.Close()
		s.conn = nil
		if attempt >= chaosWriteRetries {
			return fmt.Errorf("netrun: chaos write %s: %w", s.addr, err)
		}
	}
}

// redialLocked re-establishes the connection with bounded exponential
// backoff and runs the resume handshake: identity out, delivered-count back,
// cursor rewound so flushLocked replays exactly the unacked tail.
func (s *chaosSender) redialLocked() error {
	backoff := chaosBackoffStart
	var lastErr error
	for attempt := 0; attempt < chaosDialRetries; attempt++ {
		if s.closed || s.stopped() {
			return errChaosStopped
		}
		conn, err := net.DialTimeout("tcp", s.addr, 10*time.Second)
		if err == nil {
			if err = s.resume(conn); err == nil {
				s.conn = conn
				return nil
			}
			conn.Close()
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff *= 2; backoff > chaosBackoffMax {
			backoff = chaosBackoffMax
		}
	}
	return fmt.Errorf("netrun: chaos redial %s: %w", s.addr, lastErr)
}

// resume performs the chaos handshake on a fresh connection: write the
// channel identity, read the receiver's count of fully delivered frames, and
// rewind the flush cursor to it.
func (s *chaosSender) resume(conn net.Conn) error {
	if _, err := conn.Write(s.hello[:]); err != nil {
		return err
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint64(ack[:])
	if n > uint64(len(s.frames)) {
		return fmt.Errorf("peer acked %d of %d frames", n, len(s.frames))
	}
	s.flushed = int(n)
	return nil
}

// close abandons the channel at shutdown: subsequent sends and in-flight
// backoff loops return errChaosStopped, and the live connection (if any) is
// closed so the peer's read loop sees EOF.
func (s *chaosSender) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.conn != nil {
		s.conn.Close()
	}
}

// chaosRecv is one logical channel's receiving side: the count of frames
// fully delivered to the inbox, and the mutex that serializes connections.
// The mutex is held from before the resume count is quoted until the
// connection's read loop drains to EOF, so a reconnect's handshake always
// sees a final count and never races a frame from the old connection.
type chaosRecv struct {
	mu       sync.Mutex
	received uint64
}

// ackResume quotes the delivered-count to a freshly accepted connection.
// The caller must hold rc.mu.
func (rc *chaosRecv) ackResume(conn net.Conn) error {
	var ack [8]byte
	binary.BigEndian.PutUint64(ack[:], rc.received)
	_, err := conn.Write(ack[:])
	return err
}
