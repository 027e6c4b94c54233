package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// Metering pipeline sizes. They are tuned on the repository benchmark
// (bench/, 2-vCPU VM) and are not options.
const (
	// meterInline is how many sends a run that only counts (no alphabet
	// or first-symbol tracking) meters inline before it hands the rest to
	// a metering goroutine. Served executions of serve_mix's
	// torus:w=5,h=5 count 1,247–1,996 sends (9 runs), and a pipeline that
	// started at the first send made serve_mix's op_ms_p90 6–15% slower:
	// both cores already serve two clients there, and such short runs pay
	// for the buffering without gaining a core. At twice the largest of
	// those runs, every such execution stays inline. A run that interns
	// its symbols pipelines from its first send: interning is most of
	// what metering a send costs, and moving it off the delivery
	// goroutine pays even on runs of a few thousand sends.
	meterInline = 4096
	// meterBatch is the number of sends handed over at once. Metering one
	// send costs about 0.15 µs on tree_seq, so a batch is some 40 µs of
	// work against one channel handoff and wakeup of a few µs.
	meterBatch = 256
	// meterDepth bounds the filled batches waiting for the goroutine. The
	// goroutine outpaces the delivery loop (metering is about a quarter of
	// its work), so the depth only absorbs the goroutine being descheduled;
	// past it the delivery loop blocks.
	meterDepth = 4
	// meterRing is the number of batches a pipe cycles through: the one
	// being filled, meterDepth waiting, and the one being metered.
	meterRing = meterDepth + 2
)

// meter meters the sends of a sequential run (Run, and Synchronous, which
// is Run under fifo) in send order. A run that only counts meters its first
// meterInline sends inline, into the run's own Metrics; a run that interns
// symbols meters none inline. Past the inline sends, sends are buffered
// into fixed batches that one goroutine meters, batch after batch and send
// after send, into a copy of the metrics that close folds back. Metering is
// then off the delivery goroutine's critical path, and exact: the goroutine
// sees every send in the order the engine made them. This leans on protocol.Message's rule
// that a sent message is never written again, so the goroutine may read a
// message the run has already delivered.
//
// The sharded engine and the wild runner meter inline. Shards already run
// on every core and meter into per-shard slots, and the wild runner reads
// its message count mid-run against Wild.MaxMessages under one lock shared
// by its workers, so a deferred count would let a run overshoot its budget.
type meter struct {
	m    *Metrics
	p    *meterPipe // nil while the run meters inline
	slot int        // the ring slot being filled
	fill int        // sends in it
}

// sendRecord is one buffered send.
type sendRecord struct {
	e   graph.EdgeID
	msg protocol.Message
}

// meterPipe is the goroutine's side of a meter.
type meterPipe struct {
	// acc is the metrics the goroutine meters into. The delivery side keeps
	// writing its in-flight counters into the run's own Metrics, a separate
	// object, and the padding keeps acc off the ring's cache lines, so no
	// cache line is written by both goroutines.
	acc Metrics
	// panicked is a panic raised while metering. close re-raises it on the
	// run's goroutine, where a caller that recovers a run's panics (the run
	// server does) can catch it.
	panicked any
	_        [64]byte
	// full carries the length of each filled batch, in fill order; -1 stops
	// the goroutine. The k-th batch handed over is ring[k%meterRing].
	full chan int
	done sync.WaitGroup
	ring [meterRing][meterBatch]sendRecord
}

// spareMeterPipe keeps the last closed pipe for the next run that
// pipelines, so runs one after another allocate neither batches nor a
// channel. A sync.Pool loses its one pipe whenever a run's Put and the next
// run's Get land on different Ps: about one churn_seq run in five allocated
// a new pipe that way (2 vCPUs).
var spareMeterPipe atomic.Pointer[meterPipe]

// record meters one send of msg on e.
func (m *meter) record(e graph.EdgeID, msg protocol.Message) {
	if m.p == nil {
		if m.m.interner == nil && m.m.Messages < meterInline {
			m.m.record(e, msg)
			return
		}
		m.start()
	}
	m.p.ring[m.slot][m.fill] = sendRecord{e, msg}
	if m.fill++; m.fill == meterBatch {
		m.handOver()
	}
}

// start hands the metrics to the spare pipe, or a new one, and starts its
// goroutine.
func (m *meter) start() {
	p := spareMeterPipe.Swap(nil)
	if p == nil {
		p = &meterPipe{full: make(chan int, meterDepth)}
	}
	p.acc = *m.m
	p.done.Add(1)
	go p.run()
	m.p = p
}

// handOver passes the filled batch to the goroutine and moves to the next
// slot. The goroutine meters batches one at a time in order, so once the
// channel has accepted batch k, only batches k down to k-meterDepth can be
// waiting or in hand, and slot k+1, last used by batch k+1-meterRing, is
// free.
func (m *meter) handOver() {
	m.p.full <- m.fill
	m.slot, m.fill = (m.slot+1)%meterRing, 0
}

// close waits for the goroutine to meter every buffered send and folds its
// metrics into the run's, keeping the in-flight counters the delivery side
// kept. Engines defer it after finalize, so it runs first on every return
// path, panics included; no goroutine outlives the run.
func (m *meter) close() {
	p := m.p
	if p == nil {
		return
	}
	if m.fill > 0 {
		p.full <- m.fill
	}
	p.full <- -1
	p.done.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
	peak, cur := m.m.PeakInFlight, m.m.curInFlight
	*m.m = p.acc
	m.m.PeakInFlight, m.m.curInFlight = peak, cur
	p.acc = Metrics{}
	clear(p.ring[:])
	spareMeterPipe.Store(p)
}

// run meters the handed-over batches until close stops it. After a panic it
// keeps receiving, so the delivery side never blocks, but meters nothing.
func (p *meterPipe) run() {
	defer p.done.Done()
	for k := 0; ; k++ {
		n := <-p.full
		if n < 0 {
			return
		}
		if p.panicked == nil {
			p.meter(p.ring[k%meterRing][:n])
		}
	}
}

func (p *meterPipe) meter(batch []sendRecord) {
	defer func() { p.panicked = recover() }()
	for _, s := range batch {
		p.acc.record(s.e, s.msg)
	}
}
