// Package msgq is the pooled per-edge message FIFO shared by the delivery
// engines: the sequential engine keeps one Queue per edge inside its
// per-edge record, and the sharded engine (internal/sim/shard) keeps the same
// queues partitioned across workers.
//
// A Queue is 32 bytes: its front message (with its send sequence) sits inline
// in the Queue value, and only the second and later messages go to
// fixed-size chunks drawn from a shared sync.Pool. The queue's bookkeeping
// for those (tail chunk, indices, count) lives on its head chunk. In the
// paper's grounded-tree broadcast every edge carries exactly one message, so
// a tree run never touches a chunk. Giving each in-flight message a 776-byte
// chunk of its own instead pins about 6 MB at the peak of a 50,000-vertex
// tree, and on the repository benchmark's tree_seq inputs a push or pop then
// costs about 32 ns against 8 ns with the inline slot (2-vCPU VM).
//
// Pops clear the slot they vacate, so a delivered payload is collectable at
// once, and chunks are recycled across edges, runs and shards as soon as
// they drain, so steady-state allocation is proportional to the peak number
// of messages queued behind a front, not to the total traffic.
//
// A Queue is single-owner: exactly one goroutine may touch it at a time (the
// shard engine guarantees this by edge ownership and superstep barriers).
// The chunk pool itself is a sync.Pool and safe for concurrent Get/Put from
// many shard workers.
package msgq

import (
	"sync"

	"repro/internal/protocol"
)

const chunkSize = 32

// flightMsg is one queued message with its global send-sequence number (the
// scheduler's notion of send time).
type flightMsg struct {
	msg protocol.Message
	seq uint64
}

// chunk is one pooled segment of a queue's chain of messages.
type chunk struct {
	items [chunkSize]flightMsg
	next  *chunk
	// A queue's head chunk also keeps the queue's bookkeeping, so the Queue
	// value holds only its front message and one pointer. It is zero on
	// every other chunk.
	chain
}

// chain describes the messages queued behind a queue's front.
type chain struct {
	// last is the tail chunk.
	last *chunk
	// hi is the index of the next message in the head chunk; ti is the index
	// one past the back message in last.
	hi, ti int
	// n counts the messages in the chain.
	n int
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// TestingRecycleObserver, when non-nil, receives the number of live
// (non-zero) slots of every chunk at the moment it is returned to the pool.
// Test-only: the leak-regression tests use it to assert that no recycled
// chunk still pins a message payload. Must not be set while any engine runs
// concurrently.
var TestingRecycleObserver func(liveSlots int)

// putChunk recycles a chunk whose items are already clear. Clearing is the
// pop side's job, one slot per pop: a delivered message's pointer is dropped
// the moment it leaves the queue (so a large payload is collectable
// immediately, not when its chunk drains), and by the time a chunk comes
// back here every slot has been popped — re-zeroing all 32 slots per recycle
// was pure overhead. Paths that retire a chunk with live slots (Release)
// must clear them before calling putChunk.
func putChunk(c *chunk) {
	if TestingRecycleObserver != nil {
		live := 0
		for i := range c.items {
			if c.items[i] != (flightMsg{}) {
				live++
			}
		}
		TestingRecycleObserver(live)
	}
	c.next, c.chain = nil, chain{}
	chunkPool.Put(c)
}

// Warm pre-seeds the pool so a large run's first wave of queue growth does
// not pay one allocation per chunk. Called once per process by the engines;
// sized for a few thousand simultaneously in-flight messages, after which
// the pool sustains itself by recycling.
var warmOnce sync.Once

func Warm() {
	warmOnce.Do(func() {
		const warm = 128
		for i := 0; i < warm; i++ {
			chunkPool.Put(new(chunk))
		}
	})
}

// Queue is an unbounded FIFO whose front message lives inline in the Queue
// value; the second and later messages live in pooled chunks. The zero value
// is an empty queue. Messages must be non-nil: a nil front marks the empty
// queue.
type Queue struct {
	front flightMsg
	// head is the first chunk, or nil while at most one message is queued.
	head *chunk
}

// Push appends a message with its global send-sequence number.
func (q *Queue) Push(m protocol.Message, seq uint64) {
	if m == nil {
		panic("msgq: Push of a nil message")
	}
	if q.front.msg == nil {
		q.front = flightMsg{msg: m, seq: seq}
		return
	}
	h := q.head
	if h == nil {
		h = chunkPool.Get().(*chunk)
		h.last = h
		q.head = h
	} else if h.ti == chunkSize {
		c := chunkPool.Get().(*chunk)
		h.last.next = c
		h.last = c
		h.ti = 0
	}
	h.last.items[h.ti] = flightMsg{msg: m, seq: seq}
	h.ti++
	h.n++
}

// Pop removes and returns the front message.
func (q *Queue) Pop() protocol.Message {
	m := q.front.msg
	h := q.head
	if h == nil {
		q.front = flightMsg{}
		return m
	}
	q.front = h.items[h.hi]
	h.items[h.hi] = flightMsg{}
	h.hi++
	h.n--
	if h.n == 0 || h.hi == chunkSize {
		// h is drained: the next chunk, if any, inherits the chain.
		if next := h.next; next != nil {
			next.chain = chain{last: h.last, ti: h.ti, n: h.n}
		}
		q.head = h.next
		putChunk(h)
	}
	return m
}

// FrontSeq returns the send-sequence number of the front message.
func (q *Queue) FrontSeq() uint64 { return q.front.seq }

// Len reports the number of queued messages.
func (q *Queue) Len() int {
	switch {
	case q.front.msg == nil:
		return 0
	case q.head == nil:
		return 1
	}
	return 1 + q.head.n
}

// Release returns all remaining chunks to the pool (used when a run ends
// with messages still queued, e.g. on early termination). Unlike the pop
// path, these chunks still hold undelivered messages, so their live ranges
// are cleared here — pooled chunks must never pin payloads.
func (q *Queue) Release() {
	if h := q.head; h != nil {
		tail, lo, ti := h.last, h.hi, h.ti
		for c := h; c != nil; {
			next := c.next
			hi := chunkSize
			if c == tail {
				hi = ti
			}
			clear(c.items[lo:hi])
			putChunk(c)
			lo, c = 0, next
		}
	}
	*q = Queue{}
}
