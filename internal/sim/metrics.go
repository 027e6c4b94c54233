// Package sim provides independent executions of anonymous protocols on
// directed anonymous networks, all behind the Engine interface:
//
//   - Run (Sequential): a deterministic, event-driven simulator whose
//     adversarial delivery order is a pluggable, seeded Scheduler —
//     asynchrony is modeled as an adversary choosing which in-flight message
//     is delivered next, with per-edge FIFO links;
//   - Concurrent: the wild runner (Wild) with one worker goroutine and
//     one mailbox per vertex, where asynchrony comes from the Go scheduler
//     itself;
//   - RunSynchronous (Synchronous): global rounds, the paper's Section 2
//     extension, which additionally measures time (Result.Rounds).
//
// A fourth engine — real TCP sockets — is the same wild runner over the
// socket Transport of package netrun, and satisfies the same interface. All engines meter communication exactly in bits and
// agree on verdicts under every schedule; that agreement is asserted by the
// cross-engine conformance suite in internal/conformance.
package sim

import (
	"errors"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Verdict is the outcome of a run.
type Verdict int

// Possible outcomes.
const (
	// Terminated means the terminal's stopping predicate S became true.
	Terminated Verdict = iota + 1
	// Quiescent means no messages remained in flight and S never held; this
	// is the simulator's finite witness for "the protocol does not
	// terminate" (the paper's protocols are eventually silent on graphs
	// where termination must not happen).
	Quiescent
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Terminated:
		return "terminated"
	case Quiescent:
		return "quiescent"
	default:
		return "unknown"
	}
}

// Metrics aggregates the paper's quality measures for one run.
type Metrics struct {
	// Messages is the total number of messages delivered.
	Messages int
	// TotalBits is the total communication complexity: the sum of encoded
	// lengths of all delivered messages.
	TotalBits int64
	// PerEdgeBits[e] is the number of bits carried by edge e over the whole
	// run; its maximum is the paper's "required bandwidth".
	PerEdgeBits []int64
	// PerEdgeMsgs[e] is the number of messages carried by edge e.
	PerEdgeMsgs []int
	// MaxMsgBits is the largest single message, a lower bound on the
	// message-space size log2|Sigma|.
	MaxMsgBits int
	// PeakInFlight is the maximum number of messages simultaneously in
	// flight at any point of the run, maintained as an O(1) running counter
	// on every send and delivery (never by walking queues). For the
	// concurrent engine and the TCP tier a message being processed still
	// counts as in flight (both report the high-water mark of their
	// quiescence counter); the sharded engine samples the global count at
	// superstep barriers, the only points where it is well defined.
	PeakInFlight int
	// Alphabet holds the distinct symbols transmitted (Sigma_G of
	// Theorem 3.2), keyed by Message.Key. Populated only when requested.
	Alphabet map[string]int
	// FirstSymbol maps each edge to the key of the first symbol it carried.
	// Populated only when requested; used by the linear-cut snapshots.
	FirstSymbol map[graph.EdgeID]string

	// Hot-path alphabet accounting. During the run symbols are interned to
	// dense IDs and counted in flat slices; the string-keyed maps above are
	// materialized once, by finalize, at the measurement boundary. A
	// comparable message is found in the interner's value memo, and a
	// protocol.KeyAppender appends its key into a reused buffer, so a send
	// whose symbol is already known allocates nothing; only other message
	// types build a Key() string per send.
	interner      *protocol.Interner
	symCounts     []int
	firstSym      []uint32 // per-edge symbol+1; 0 = edge carried nothing yet
	trackAlphabet bool
	trackFirstSym bool
	curInFlight   int
}

// MaxEdgeBits returns the required bandwidth: the maximal number of bits
// transmitted over a single edge.
func (m *Metrics) MaxEdgeBits() int64 {
	var mx int64
	for _, b := range m.PerEdgeBits {
		if b > mx {
			mx = b
		}
	}
	return mx
}

// MaxEdgeMsgs returns the maximal number of messages on a single edge.
func (m *Metrics) MaxEdgeMsgs() int {
	mx := 0
	for _, c := range m.PerEdgeMsgs {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// AlphabetSize returns |Sigma_G| when alphabet tracking was enabled, else 0.
func (m *Metrics) AlphabetSize() int { return len(m.Alphabet) }

// newMetrics returns run-ready metrics for a graph with nE edges, with the
// interned alphabet accounting armed when the options request it.
func newMetrics(nE int, opts *Options) Metrics {
	m := Metrics{
		PerEdgeBits:   make([]int64, nE),
		PerEdgeMsgs:   make([]int, nE),
		trackAlphabet: opts.TrackAlphabet,
		trackFirstSym: opts.TrackFirstSymbol,
	}
	if m.trackAlphabet || m.trackFirstSym {
		m.interner = protocol.NewInterner()
	}
	if m.trackFirstSym {
		m.firstSym = make([]uint32, nE)
	}
	return m
}

// record meters one send of msg on e: its bits, and its symbol when the
// alphabet accounting is armed.
func (m *Metrics) record(e graph.EdgeID, msg protocol.Message) {
	m.count(e, msg.Bits())
	if m.interner != nil {
		sym := m.interner.Intern(msg)
		if m.trackAlphabet {
			if int(sym) == len(m.symCounts) {
				m.symCounts = append(m.symCounts, 0)
			}
			m.symCounts[sym]++
		}
		if m.trackFirstSym && m.firstSym[e] == 0 {
			m.firstSym[e] = uint32(sym) + 1
		}
	}
}

// count meters one send of bits on e.
func (m *Metrics) count(e graph.EdgeID, bits int) {
	m.Messages++
	m.TotalBits += int64(bits)
	m.PerEdgeBits[e] += int64(bits)
	m.PerEdgeMsgs[e]++
	if bits > m.MaxMsgBits {
		m.MaxMsgBits = bits
	}
}

// sent and delivered maintain the O(1) in-flight counter: every message put
// in flight bumps it, every delivery drops it, and the peak is folded in on
// the way up. Engines call them exactly once per send/delivery.
func (m *Metrics) sent() {
	m.curInFlight++
	if m.curInFlight > m.PeakInFlight {
		m.PeakInFlight = m.curInFlight
	}
}

func (m *Metrics) delivered() { m.curInFlight-- }

// finalize materializes the measurement-boundary views — the string-keyed
// Alphabet and FirstSymbol maps — from the interned per-symbol slices. It
// runs once per run (the engines defer it), so Message.Key is evaluated at
// most once per distinct symbol, never per delivery. The resulting maps are
// byte-identical to the ones the pre-interning engines built inline.
func (m *Metrics) finalize() {
	if m.interner == nil {
		return
	}
	if m.trackAlphabet {
		m.Alphabet = make(map[string]int, len(m.symCounts))
		for s, c := range m.symCounts {
			m.Alphabet[m.interner.KeyOf(protocol.Symbol(s))] = c
		}
	}
	if m.trackFirstSym {
		m.FirstSymbol = make(map[graph.EdgeID]string)
		for e, s := range m.firstSym {
			if s != 0 {
				m.FirstSymbol[graph.EdgeID(e)] = m.interner.KeyOf(protocol.Symbol(s - 1))
			}
		}
	}
}

// Result is the outcome of one run of a protocol on a graph.
type Result struct {
	Verdict Verdict
	// Output is the terminal's output when Verdict == Terminated.
	Output any
	// Visited[v] reports whether vertex v received at least one message
	// (every message carries the broadcast payload, so this is "v received
	// the broadcast"). The root is considered visited by definition.
	Visited []bool
	// Steps is the number of delivery steps executed.
	Steps int
	// ForcedSteps is the number of deliveries the sequential engine (or a
	// shard's local loop) executed as forced choices — runs of messages
	// drained from one edge without a scheduler Push/Pop round-trip because
	// the adversary provably had no other option. Always 0 for schedulers
	// without batch capabilities and under Options.NoBatchDrain; the
	// delivery sequence is identical either way.
	ForcedSteps int
	// Rounds is the number of synchronous rounds (RunSynchronous only; the
	// asynchronous engines leave it 0 — time is undefined for them).
	Rounds int
	// Dropped counts messages discarded by the run's fault plan
	// (Options.Faults): sends dropped at the link plus
	// deliveries consumed unprocessed by crashed vertices. Always 0 on a
	// fault-free run.
	Dropped int
	// Churn is the run's dynamic-network report — fired crash/recover/
	// cut/join/loss-step events against the global delivery clock, from
	// which per-event re-stabilization (deliveries-to-quiescence) follows.
	// Nil when the fault plan has no churn terms. Every engine fills it.
	Churn *ChurnReport
	// Steals is the number of barrier-time work donations the sharded
	// engine performed: at a superstep barrier an overloaded shard donated a
	// chunk of its pending head vertices to an idle one. Deterministic per
	// (graph, protocol, scheduler, seed, shards); always 0 for the other
	// engines and under Options.NoWorkSteal.
	Steals int
	// StolenEdges is the total number of pending edges that changed owner
	// across all donations counted by Steals.
	StolenEdges int
	Metrics     Metrics
	// Nodes holds the final protocol state of every vertex, indexed by
	// vertex ID. The protocols themselves never see vertex identities; this
	// field exists so callers can extract per-vertex outcomes (e.g. assigned
	// labels) after the run, playing the role of an omniscient observer.
	Nodes []protocol.Node
}

// MaxStateBits returns the largest per-vertex state (the paper's memory
// measure) at the end of the run, or 0 if the protocol's nodes do not
// implement protocol.StateSized. States are monotone in all protocols here,
// so the final state is the run's maximum.
func (r *Result) MaxStateBits() int {
	m := 0
	for _, n := range r.Nodes {
		if s, ok := n.(protocol.StateSized); ok {
			if b := s.StateBits(); b > m {
				m = b
			}
		}
	}
	return m
}

// AllVisited reports whether every vertex received the broadcast.
func (r *Result) AllVisited() bool {
	for _, ok := range r.Visited {
		if !ok {
			return false
		}
	}
	return true
}

// Options configures a run. The zero value is a sensible default: FIFO
// order, a generous step limit, no alphabet tracking.
type Options struct {
	// Scheduler is the adversarial delivery order of the sequential engine
	// (see the Scheduler interface); nil selects the fifo adversary, global
	// send order. The other engines ignore it: the
	// concurrent and TCP engines draw their schedule from the Go scheduler
	// and the network, the synchronous engine is itself one fixed schedule.
	Scheduler Scheduler
	// Seed drives the seeded schedulers (random, latency, ...).
	Seed int64
	// MaxSteps aborts runaway executions; 0 means the default limit.
	MaxSteps int
	// TrackAlphabet enables Metrics.Alphabet collection.
	TrackAlphabet bool
	// TrackFirstSymbol enables Metrics.FirstSymbol collection.
	TrackFirstSymbol bool
	// Observer, when non-nil, receives every send and delivery event. The
	// deterministic engines (Run, RunSynchronous) invoke it inline; the
	// nondeterministic engines (Concurrent and the TCP tier in netrun)
	// serialize their events through an internal lock (SerializedObserver),
	// so the observer sees one linearization of the wild schedule that
	// respects causality — every message's send is observed before its
	// delivery, and a delivery is observed before the sends it triggers.
	// Observer implementations therefore never need their own locking.
	Observer Observer
	// NoBatchDrain disables forced-choice batch draining in the sequential
	// engine and the shard engine's local loops. The delivery sequence is
	// identical with and without batching (that equivalence is what the
	// batch tests assert); this switch exists for those tests and for
	// isolating the optimization when profiling.
	NoBatchDrain bool
	// NoGhosts disables ghost-vertex routing in the sharded engine: every
	// cut edge pays the general outbox/merge path even when the partition
	// marked it ghost-routed. Outcomes are identical either way (the
	// ghost-on/ghost-off equivalence tests assert it); the switch exists for
	// those tests and for isolating the optimization when profiling.
	NoGhosts bool
	// NoWorkSteal disables barrier-time work donation between shards in the
	// sharded engine. Donation is a pure function of (pending counts, shard
	// IDs, superstep index), so outcomes are identical either way (the
	// steal-on/steal-off schedule-equivalence tests assert it); the switch
	// exists for those tests and for profiling.
	NoWorkSteal bool
	// Faults is the full deterministic fault plan — per-edge first-k drops,
	// seeded Bernoulli loss, vertex crash-stops — applied by every engine;
	// see the Faults type. The paper's model has reliable links; faults
	// exist to check the safety half of the theorems — a lost message may
	// cost liveness (the protocol hangs, correctly refusing to terminate)
	// but must never let the terminal declare termination before everyone
	// got the broadcast.
	Faults *Faults
	// Obs, when non-nil, collects the run's telemetry: the deterministic
	// timeline plane (logical-clock samples, per-shard tracks, superstep
	// occupancy) and the wall-clock phase plane — see package obs. Every
	// engine honors it. When nil the hooks are nil-receiver no-ops, so the
	// steady-state delivery path keeps its zero-allocation guarantee.
	Obs *obs.Recorder
}

// Observer receives the event stream of a deterministic run: protocol
// tracing, conservation checking and visualization hook into it.
type Observer interface {
	// OnSend fires when a message is put in flight on an edge.
	OnSend(e graph.EdgeID, msg protocol.Message)
	// OnDeliver fires when a message is handed to the receiving vertex;
	// step is the 1-based delivery step.
	OnDeliver(step int, e graph.EdgeID, msg protocol.Message)
}

// BarrierObserver is an optional Observer extension for the sharded engine:
// OnBarrier fires at each superstep barrier, after the superstep's drains
// have finished and before cross-shard outboxes merge — the exact instant
// the engine samples its global in-flight peak. Observers that implement it
// can reconstruct the barrier-sampled PeakInFlight from the event stream
// (count OnSend minus OnDeliver between barriers), which is how the
// peak-under-stealing equivalence test pins the sampling as a pure function
// of the schedule rather than of drain timing.
type BarrierObserver interface {
	OnBarrier(superstep int)
}

// TeeObserver fans every event out to all given observers in order, so a run
// can feed e.g. a human-readable trace recorder and a binary replay recorder
// at once. Nil entries are skipped.
func TeeObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return teeObserver(live)
}

type teeObserver []Observer

func (t teeObserver) OnSend(e graph.EdgeID, msg protocol.Message) {
	for _, o := range t {
		o.OnSend(e, msg)
	}
}

func (t teeObserver) OnDeliver(step int, e graph.EdgeID, msg protocol.Message) {
	for _, o := range t {
		o.OnDeliver(step, e, msg)
	}
}

// OnBarrier forwards the barrier to every member that listens for it, so a
// tee of a replay recorder and a barrier-counting observer keeps both views.
func (t teeObserver) OnBarrier(superstep int) {
	for _, o := range t {
		if b, ok := o.(BarrierObserver); ok {
			b.OnBarrier(superstep)
		}
	}
}

// SerializedObserver adapts an Observer for engines whose events originate on
// many goroutines (the concurrent and TCP engines): every OnSend/OnDeliver
// passes through one mutex, so the wrapped observer sees a single total order
// — a linearization of the wild schedule. Because engines invoke OnSend
// before a message becomes receivable and OnDeliver before processing its
// effects, the linearization respects causality: a send precedes its
// delivery, and a delivery precedes the sends it triggers. That property is
// exactly what makes a captured wild schedule replayable on the sequential
// engine (see internal/replay).
//
// Seal stops the stream: events arriving after Seal are dropped. Engines seal
// at the moment the run's verdict is decided, so a trace never records the
// post-termination drain of still-queued messages.
//
// Delivery step numbers are assigned here, under the lock, in linearization
// order — the step passed by the engine is ignored. An engine-side counter
// is read before the lock is taken, so two workers could otherwise present
// steps N and N+1 in the wrong order; renumbering inside the critical
// section keeps the wrapped observer's view monotone, matching the contract
// of the deterministic engines.
type SerializedObserver struct {
	mu     sync.Mutex
	obs    Observer
	step   int
	sealed bool
}

// NewSerializedObserver wraps obs; a nil obs yields a nil wrapper (callers
// check for nil exactly like a plain Options.Observer).
func NewSerializedObserver(obs Observer) *SerializedObserver {
	if obs == nil {
		return nil
	}
	return &SerializedObserver{obs: obs}
}

// OnSend implements Observer.
func (s *SerializedObserver) OnSend(e graph.EdgeID, msg protocol.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	s.obs.OnSend(e, msg)
}

// OnDeliver implements Observer. The step argument is ignored; the wrapper
// numbers deliveries 1,2,... in linearization order (see the type comment).
func (s *SerializedObserver) OnDeliver(_ int, e graph.EdgeID, msg protocol.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	s.step++
	s.obs.OnDeliver(s.step, e, msg)
}

// OnBarrier forwards a superstep barrier to the wrapped observer when it
// implements BarrierObserver. The sharded engine emits barriers from its
// coordinating goroutine between drain phases, so the call is already
// ordered against the superstep's events; the lock only keeps the wrapped
// observer single-threaded.
func (s *SerializedObserver) OnBarrier(superstep int) {
	b, ok := s.obs.(BarrierObserver)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	b.OnBarrier(superstep)
}

// Seal drops all subsequent events.
func (s *SerializedObserver) Seal() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sealed = true
	s.mu.Unlock()
}

const DefaultMaxSteps = 50_000_000

// ErrStepLimit is returned when a run exceeds its step budget, which for the
// protocols in this repository indicates a bug rather than a slow graph.
var ErrStepLimit = errors.New("sim: step limit exceeded")
