package msgq

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/bitio"
)

// testMsg is a minimal protocol.Message: a counter, gamma-encoded.
type testMsg struct{ n uint64 }

func (m testMsg) Bits() int   { return bitio.Gamma0Len(m.n) }
func (m testMsg) Key() string { return fmt.Sprintf("t:%d", m.n) }

// TestFIFOAcrossChunks pins the FIFO contract and sequence numbers across
// several chunk boundaries.
func TestFIFOAcrossChunks(t *testing.T) {
	var q Queue
	const n = 3*chunkSize + 11
	for i := 0; i < n; i++ {
		q.Push(testMsg{n: uint64(i)}, uint64(100+i))
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := q.FrontSeq(); got != uint64(100+i) {
			t.Fatalf("FrontSeq = %d, want %d", got, 100+i)
		}
		if got := q.Pop(); got != (testMsg{n: uint64(i)}) {
			t.Fatalf("Pop %d returned %v", i, got)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after full drain", q.Len())
	}
}

// holds reports whether any slot of q, inline or chunked, still references
// the message m.
func holds(q *Queue, m testMsg) bool {
	if q.front.msg == m {
		return true
	}
	for c := q.head; c != nil; c = c.next {
		for _, it := range c.items {
			if it.msg == m {
				return true
			}
		}
	}
	return false
}

// TestPopClearsSlotImmediately pins the incremental clearing contract: the
// moment a message is popped no slot of the queue references it, so a large
// payload becomes collectable at delivery time — not when its whole chunk
// drains, and not at run teardown. It covers the inline front slot (emptied,
// or refilled from the head chunk) and chunk slots that the queue still
// holds after the pop.
func TestPopClearsSlotImmediately(t *testing.T) {
	var q Queue

	// Inline slot, emptied: the only message leaves the queue.
	q.Push(testMsg{n: 1}, 0)
	if q.Pop() != (testMsg{n: 1}) {
		t.Fatal("pop returned wrong message")
	}
	if q.front != (flightMsg{}) {
		t.Fatalf("popped inline slot still holds %+v", q.front)
	}

	// Chunk slots: the popped chunk slot must be zero while the queue still
	// holds the chunk, across a chunk-to-chunk boundary too.
	const n = 2*chunkSize + 3
	for i := 0; i < n; i++ {
		q.Push(testMsg{n: uint64(100 + i)}, uint64(i))
	}
	for i := 0; i < n; i++ {
		popped := testMsg{n: uint64(100 + i)}
		head := q.head
		var hi int
		if head != nil {
			hi = head.hi
		}
		if q.Pop() != popped {
			t.Fatalf("pop %d returned the wrong message", i)
		}
		if holds(&q, popped) {
			t.Fatalf("pop %d: the queue still references the popped message", i)
		}
		if head != nil && q.head == head && head.items[hi] != (flightMsg{}) {
			t.Fatalf("pop %d: chunk slot %d still holds %+v", i, hi, head.items[hi])
		}
	}
	if q != (Queue{}) {
		t.Fatalf("drained queue left state behind: %+v", q)
	}
}

// TestQueueSize pins the Queue value's footprint: the engines keep one per
// edge (the sequential engine inside a 40-byte record), so growing it grows
// every run's per-edge memory.
func TestQueueSize(t *testing.T) {
	if got := unsafe.Sizeof(Queue{}); got > 32 {
		t.Fatalf("Queue is %d bytes, want <= 32", got)
	}
}

// TestChunkRecycleNeverPinsPayloads is the leak-regression test for the
// chunk pool: every chunk returned to the pool — whether drained by pops or
// retired by Release with messages still queued — must have every slot
// cleared, or pooled chunks would pin arbitrary payloads for the life of the
// process. The recycle observer sees chunks at the recycle boundary. (The
// engine-teardown variant of this invariant lives in internal/sim.)
func TestChunkRecycleNeverPinsPayloads(t *testing.T) {
	dirty := 0
	TestingRecycleObserver = func(live int) { dirty += live }
	defer func() { TestingRecycleObserver = nil }()

	// Path 1: full drain via pop across several chunks.
	var q Queue
	for i := 0; i < 5*chunkSize+7; i++ {
		q.Push(testMsg{n: uint64(i)}, uint64(i))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if dirty != 0 {
		t.Fatalf("pop-drained chunks reached the pool with %d live slots", dirty)
	}

	// Path 2: partial drain then Release (early-termination teardown),
	// exercising a partially popped head, full middle chunks, and a
	// partially filled tail.
	for i := 0; i < 3*chunkSize+5; i++ {
		q.Push(testMsg{n: uint64(i)}, uint64(i))
	}
	for i := 0; i < chunkSize/2; i++ {
		q.Pop()
	}
	q.Release()
	if dirty != 0 {
		t.Fatalf("released chunks reached the pool with %d live slots", dirty)
	}
	if q != (Queue{}) {
		t.Fatalf("Release left queue state behind: %+v", q)
	}
}

// FuzzQueueMatchesSliceFIFO drives a Queue with a random stream of Push,
// Pop, FrontSeq, Len and Release and checks every answer against a plain
// slice FIFO. Bursts push or pop up to 64 messages at once, so streams cross
// the inline-slot-to-chunk and chunk-to-chunk boundaries in both directions.
// Every chunk the queue recycles, drained by pops or retired with messages
// still queued by Release (after op 0xff, and at the end of the stream),
// must come back with no live slot.
func FuzzQueueMatchesSliceFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 2, 2})
	f.Add([]byte{0, 0, 0, 2, 0, 2, 2, 2})
	f.Add([]byte{0xfd, 3, 0xfd, 0xf7, 4})
	f.Add([]byte{0x85, 0x81, 0x87, 0x43, 0x0, 0x83, 0x7b, 0x4, 0x1})
	f.Add([]byte{0xfd, 0xfd, 0xff, 0xfd, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		dirty := 0
		TestingRecycleObserver = func(live int) { dirty += live }
		defer func() { TestingRecycleObserver = nil }()

		type item struct {
			msg testMsg
			seq uint64
		}
		var (
			q    Queue
			want []item
			next uint64
		)
		check := func(step int) {
			t.Helper()
			if q.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, want %d", step, q.Len(), len(want))
			}
			if len(want) > 0 && q.FrontSeq() != want[0].seq {
				t.Fatalf("op %d: FrontSeq = %d, want %d", step, q.FrontSeq(), want[0].seq)
			}
		}
		for step, op := range ops {
			burst := int(op>>2) + 1
			switch op & 3 {
			case 0, 1: // push one (0) or a burst (1)
				if op&3 == 0 {
					burst = 1
				}
				for k := 0; k < burst; k++ {
					m := testMsg{n: next}
					q.Push(m, 1000+next)
					want = append(want, item{m, 1000 + next})
					next++
				}
			case 2, 3: // pop one (2) or a burst (3); an empty queue releases
				if len(want) == 0 {
					q.Release()
					break
				}
				if op&3 == 2 {
					burst = 1
				}
				for k := 0; k < burst && len(want) > 0; k++ {
					if got := q.Pop(); got != want[0].msg {
						t.Fatalf("op %d: Pop = %v, want %v", step, got, want[0].msg)
					}
					if holds(&q, want[0].msg) {
						t.Fatalf("op %d: the queue still references popped %v", step, want[0].msg)
					}
					want = want[1:]
				}
			}
			check(step)
			if op == 0xff {
				q.Release()
				want = want[:0]
				check(step)
			}
		}
		q.Release()
		if q != (Queue{}) {
			t.Fatalf("Release left queue state behind: %+v", q)
		}
		if dirty != 0 {
			t.Fatalf("recycled chunks held %d live slots", dirty)
		}
	})
}
