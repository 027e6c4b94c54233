package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Faults is a first-class, deterministic fault plan. The paper's model has reliable links; this
// adversary exists to check the safety half of the theorems under faults — a
// lost message or a crashed vertex may cost liveness (the protocol hangs,
// correctly refusing to terminate) but must never let the terminal declare
// termination before everyone got the broadcast.
//
// All fault decisions are pure functions of per-edge send indices and
// per-vertex delivery counts, never of wall-clock or scheduler state. The
// k-th message sent on an edge is dropped (or not) identically under every
// schedule and on every engine, which is what keeps recorded traces
// replayable, shrinkable and fuzzable with the plan applied.
type Faults struct {
	// DropFirst[e] = k discards the first k messages sent on edge e. Dropped
	// messages are metered as traffic (Metrics.record, Observer.OnSend) but
	// are never put in flight or delivered.
	DropFirst map[graph.EdgeID]int
	// LossRate, in [0, 1], drops each message surviving DropFirst with this
	// probability, decided by a hash of (Seed, edge, per-edge send index) —
	// seeded Bernoulli loss that is reproducible across engines and
	// schedules.
	LossRate float64
	// Seed drives the Bernoulli loss decisions. Independent of Options.Seed
	// so the same loss pattern can be replayed under different schedules.
	Seed int64
	// CrashAfter[v] = k crash-stops vertex v after it has processed k
	// deliveries: later messages addressed to v are consumed off the link
	// (metered as delivered) but never processed — no state change, no
	// outputs, and v does not count as having received the broadcast for
	// deliveries past the quota. k = 0 means v is down from the start.
	CrashAfter map[graph.VertexID]int
	// RecoverAfter[v] = k turns v's crash into a transient one: v crashes
	// after CrashAfter[v] processed deliveries, consumes deliveries
	// CrashAfter[v]+1..k unprocessed, and resumes processing from delivery
	// k+1 with its pre-crash state intact (crash-recovery with stable
	// memory). Requires a CrashAfter entry for v with CrashAfter[v] <= k.
	// Like every trigger here, k counts v's own deliveries — a logical
	// clock, never wall time — so recovery is schedule-independent.
	RecoverAfter map[graph.VertexID]int
	// JoinAfter[e] = k adds edge e to the network only after k send
	// attempts on it: sends with per-edge index < k are dropped (the edge
	// did not exist yet), later sends go through. k = 0 is a no-op.
	JoinAfter map[graph.EdgeID]int
	// CutAfter[e] = k removes edge e from the network after k sends on it:
	// sends with per-edge index >= k are dropped. k = 0 means the edge
	// never existed. When e also has a JoinAfter entry, JoinAfter[e] must
	// be strictly below CutAfter[e], so the edge's up-window is non-empty.
	CutAfter map[graph.EdgeID]int
	// LossSteps is an adversarial loss schedule: once an edge's send index
	// reaches Step.AfterSend the Bernoulli loss rate becomes Step.Rate,
	// replacing LossRate (and any earlier step). Steps must carry strictly
	// ascending AfterSend triggers and rates in [0, 1]. The trigger is the
	// per-edge send index, so the schedule is a pure function of the plan.
	LossSteps []LossStep
}

// LossStep is one step of an adversarial loss schedule; see Faults.LossSteps.
type LossStep struct {
	// AfterSend is the per-edge send index at which the step takes effect.
	AfterSend int
	// Rate is the Bernoulli loss rate, in [0, 1], from that index on.
	Rate float64
}

// empty reports whether the plan injects no faults at all. A negative
// LossRate is NOT empty: it must reach validation and be rejected rather
// than silently disabling the plan.
func (f *Faults) empty() bool {
	return f == nil || (len(f.DropFirst) == 0 && f.LossRate == 0 && len(f.CrashAfter) == 0 &&
		len(f.RecoverAfter) == 0 && len(f.JoinAfter) == 0 && len(f.CutAfter) == 0 &&
		len(f.LossSteps) == 0)
}

// Churn event kinds, in ChurnEvent.Kind.
const (
	// ChurnCrash: a vertex consumed its first delivery while crash-stopped.
	ChurnCrash = "crash"
	// ChurnRecover: a recovered vertex processed its first post-recovery
	// delivery.
	ChurnRecover = "recover"
	// ChurnCut: a cut edge dropped its first send past the cut trigger.
	ChurnCut = "cut"
	// ChurnJoin: a late-joining edge carried its first send at or past the
	// join trigger.
	ChurnJoin = "join"
	// ChurnLoss: a loss-schedule step saw its first send at or past its
	// trigger (on any edge).
	ChurnLoss = "loss"
)

// ChurnEvent is one topology or rate change that became observable during a
// run. Events fire at the first delivery or send the change actually affects
// — a planned change that no traffic ever exercises emits no event.
type ChurnEvent struct {
	// Kind is one of the Churn* constants.
	Kind string
	// Vertex is the affected vertex for crash/recover events, else -1.
	Vertex int
	// Edge is the affected edge for cut/join events, else -1.
	Edge int
	// At is the plan's trigger index: a per-vertex delivery count for
	// crash/recover, a per-edge send index for cut/join and loss steps.
	At int
	// Clock is the global delivery clock (deliveries completed anywhere,
	// under any fault plan with churn terms) when the event fired. On the
	// deterministic engines it is a pure function of (plan, schedule): the
	// sharded engine counts the deliveries before the superstep plus the
	// delivering shard's own, whatever the thread timing. The wild engines
	// report one honest linearization of their run.
	Clock int64
}

// ChurnReport summarizes a run's dynamic-network activity: every churn event
// that fired, against the run's final delivery clock. The re-stabilization
// cost of event i — deliveries the network needed to go quiet again after
// the change — is Restabilize(i).
type ChurnReport struct {
	// Deliveries is the final global delivery clock of the run.
	Deliveries int64
	// Events are the fired churn events, sorted by (Clock, Kind, Vertex,
	// Edge, At) so the report is stable even on the wild engines.
	Events []ChurnEvent
}

// Restabilize returns the deliveries-to-quiescence after event i: the number
// of deliveries the run still performed once the change became observable.
func (r *ChurnReport) Restabilize(i int) int64 {
	return r.Deliveries - r.Events[i].Clock
}

// FaultState is the per-run compiled form of a fault plan. A nil *FaultState
// is valid and injects nothing, so engines call its methods unconditionally.
//
// Concurrency contract: DropSend(e) may only be called by e's single sender
// (every engine here has exactly one sending goroutine or owning shard per
// edge) and CrashDelivery(v) only by v's single delivery consumer — the
// per-edge and per-vertex slots then have one owner each and need no locks.
// The aggregate dropped counter is atomic, so Dropped is safe anywhere.
type FaultState struct {
	drops    []int32  // remaining first-k drops, per edge
	sendIdx  []uint32 // messages sent so far, per edge (drives Bernoulli loss)
	lossRate float64
	lossSeed int64
	crash    []int32 // deliveries v may still process; -1 = never crashes
	dropped  atomic.Int64

	// Churn state. The per-vertex and per-edge slots (including the fired
	// flags) follow the single-owner contract above; the event log and the
	// per-step fired clocks are shared and guarded by evMu / atomics. clock
	// ticks once per CrashDelivery call — every engine but the sharded one
	// makes exactly one such call per delivery, and the sharded one keeps
	// the clock itself (CrashDeliveryAt) — and is only maintained when
	// churn is tracked, so plain loss/drop plans stay lock- and atomic-free
	// on the delivery path.
	churnTracked bool
	crashAt      []int32 // original crash quota per vertex (event At field)
	recover      []int32 // crashed deliveries still to consume; -1 = never recovers
	recoverAt    []int32 // absolute recovery trigger per vertex (event At field)
	join         []int32 // sends dropped below this per-edge index; 0 = always up
	cut          []int32 // sends dropped at/past this per-edge index; -1 = never
	lossSteps    []compiledLossStep
	crashFired   []bool // per vertex, owned by v's delivery consumer
	joinFired    []bool // per edge, owned by e's sender
	cutFired     []bool // per edge, owned by e's sender
	clock        atomic.Int64
	evMu         sync.Mutex
	events       []ChurnEvent
}

type compiledLossStep struct {
	after uint32
	rate  float64
	// fired is one more than the earliest clock at which a send reached the
	// step, 0 until one does. Shards reach a step concurrently, so it keeps
	// the minimum rather than whichever shard got there first.
	fired atomic.Int64
}

// NewFaultState compiles opts.Faults against g. It returns (nil, nil) when
// no faults are configured and an error when the plan names an edge or
// vertex g does not have, or carries an invalid rate or count.
func NewFaultState(g *graph.G, opts *Options) (*FaultState, error) {
	f := opts.Faults
	if f.empty() {
		return nil, nil
	}
	nE, nV := g.NumEdges(), g.NumVertices()
	fs := &FaultState{
		drops:   make([]int32, nE),
		sendIdx: make([]uint32, nE),
	}
	for e, k := range f.DropFirst {
		if int(e) < 0 || int(e) >= nE {
			return nil, fmt.Errorf("sim: fault plan drops on edge %d, graph has %d edges", e, nE)
		}
		if k < 0 {
			return nil, fmt.Errorf("sim: fault plan drop count %d on edge %d is negative", k, e)
		}
		fs.drops[e] = int32(k)
	}
	if f.LossRate < 0 || f.LossRate > 1 {
		return nil, fmt.Errorf("sim: fault plan loss rate %v outside [0, 1]", f.LossRate)
	}
	fs.lossRate = f.LossRate
	fs.lossSeed = f.Seed
	if len(f.CrashAfter) > 0 {
		fs.crash = make([]int32, nV)
		for i := range fs.crash {
			fs.crash[i] = -1
		}
		for v, k := range f.CrashAfter {
			if int(v) < 0 || int(v) >= nV {
				return nil, fmt.Errorf("sim: fault plan crashes vertex %d, graph has %d vertices", v, nV)
			}
			if k < 0 {
				return nil, fmt.Errorf("sim: fault plan crash quota %d on vertex %d is negative", k, v)
			}
			fs.crash[v] = int32(k)
		}
	}
	if len(f.RecoverAfter) > 0 {
		fs.recover = make([]int32, nV)
		fs.recoverAt = make([]int32, nV)
		for i := range fs.recover {
			fs.recover[i] = -1
		}
		for v, k := range f.RecoverAfter {
			if int(v) < 0 || int(v) >= nV {
				return nil, fmt.Errorf("sim: fault plan recovers vertex %d, graph has %d vertices", v, nV)
			}
			crash, ok := f.CrashAfter[v]
			if !ok {
				return nil, fmt.Errorf("sim: fault plan recovers vertex %d without crashing it (recover needs a crash entry)", v)
			}
			if k < crash {
				return nil, fmt.Errorf("sim: fault plan recovers vertex %d at delivery %d, before its crash at %d", v, k, crash)
			}
			fs.recover[v] = int32(k - crash)
			fs.recoverAt[v] = int32(k)
		}
	}
	addWindow := func(m map[graph.EdgeID]int, what string) ([]int32, error) {
		if len(m) == 0 {
			return nil, nil
		}
		w := make([]int32, nE)
		for i := range w {
			w[i] = -1
		}
		for e, k := range m {
			if int(e) < 0 || int(e) >= nE {
				return nil, fmt.Errorf("sim: fault plan %ss edge %d, graph has %d edges", what, e, nE)
			}
			if k < 0 {
				return nil, fmt.Errorf("sim: fault plan %s trigger %d on edge %d is negative", what, k, e)
			}
			w[e] = int32(k)
		}
		return w, nil
	}
	var err error
	if fs.cut, err = addWindow(f.CutAfter, "cut"); err != nil {
		return nil, err
	}
	if fs.join, err = addWindow(f.JoinAfter, "join"); err != nil {
		return nil, err
	}
	for e, j := range f.JoinAfter {
		if c, ok := f.CutAfter[e]; ok && j >= c {
			return nil, fmt.Errorf("sim: fault plan joins edge %d at send %d but cuts it at %d (the up-window is empty)", e, j, c)
		}
	}
	if len(f.LossSteps) > 0 {
		fs.lossSteps = make([]compiledLossStep, len(f.LossSteps))
		prev := -1
		for i, s := range f.LossSteps {
			if s.Rate < 0 || s.Rate > 1 {
				return nil, fmt.Errorf("sim: loss step %d rate %v outside [0, 1]", i, s.Rate)
			}
			if s.AfterSend < 0 || s.AfterSend <= prev {
				return nil, fmt.Errorf("sim: loss step triggers must be non-negative and strictly ascending (step %d at %d, previous %d)", i, s.AfterSend, prev)
			}
			prev = s.AfterSend
			fs.lossSteps[i].after = uint32(s.AfterSend)
			fs.lossSteps[i].rate = s.Rate
		}
	}
	if fs.crash != nil || fs.cut != nil || fs.join != nil || len(fs.lossSteps) > 0 {
		fs.churnTracked = true
		fs.crashFired = make([]bool, nV)
		fs.joinFired = make([]bool, nE)
		fs.cutFired = make([]bool, nE)
		fs.crashAt = make([]int32, nV)
		for v, k := range f.CrashAfter {
			fs.crashAt[v] = int32(k)
		}
	}
	return fs, nil
}

// DropSend decides the fate of the next message sent on e: true means the
// engine must discard it after metering (no queueing, no in-flight count).
// Callable only by e's single sender; see the type comment.
func (fs *FaultState) DropSend(e graph.EdgeID) bool {
	if fs == nil {
		return false
	}
	return fs.DropSendAt(e, fs.clock.Load())
}

// DropSendAt is DropSend for an engine that keeps the delivery clock itself:
// now is the clock of the delivery that made the send, 0 for the root's.
func (fs *FaultState) DropSendAt(e graph.EdgeID, now int64) bool {
	if fs == nil {
		return false
	}
	idx := fs.sendIdx[e]
	fs.sendIdx[e] = idx + 1
	if fs.drops[e] > 0 {
		fs.drops[e]--
		fs.dropped.Add(1)
		return true
	}
	if fs.join != nil {
		if j := fs.join[e]; j > 0 {
			if int32(idx) < j {
				// The edge has not joined the network yet.
				fs.dropped.Add(1)
				return true
			}
			if !fs.joinFired[e] {
				fs.joinFired[e] = true
				fs.addEvent(ChurnEvent{Kind: ChurnJoin, Vertex: -1, Edge: int(e), At: int(j), Clock: now})
			}
		}
	}
	if fs.cut != nil {
		if c := fs.cut[e]; c >= 0 && int32(idx) >= c {
			if !fs.cutFired[e] {
				fs.cutFired[e] = true
				fs.addEvent(ChurnEvent{Kind: ChurnCut, Vertex: -1, Edge: int(e), At: int(c), Clock: now})
			}
			fs.dropped.Add(1)
			return true
		}
	}
	rate := fs.lossRate
	for i := range fs.lossSteps {
		s := &fs.lossSteps[i]
		if idx < s.after {
			break // triggers ascend; later steps cannot apply either
		}
		rate = s.rate
		for f := s.fired.Load(); f == 0 || now+1 < f; f = s.fired.Load() {
			if s.fired.CompareAndSwap(f, now+1) {
				break
			}
		}
	}
	if rate > 0 && bernoulli(fs.lossSeed, e, idx, rate) {
		fs.dropped.Add(1)
		return true
	}
	return false
}

// CrashDelivery decides the fate of the next delivery to v: true means v has
// crash-stopped and the engine must consume the message without processing
// it. Callable only by v's single delivery consumer; see the type comment.
// Every engine but the sharded one calls it exactly once per delivery,
// which is what makes it double as the global delivery clock when churn is
// tracked.
func (fs *FaultState) CrashDelivery(v graph.VertexID) bool {
	if fs == nil {
		return false
	}
	var now int64
	if fs.churnTracked {
		now = fs.clock.Add(1)
	}
	return fs.CrashDeliveryAt(v, now)
}

// CrashDeliveryAt is CrashDelivery for an engine that keeps the delivery
// clock itself: now is this delivery's clock, counting it.
func (fs *FaultState) CrashDeliveryAt(v graph.VertexID, now int64) bool {
	if fs == nil || fs.crash == nil {
		return false
	}
	q := fs.crash[v]
	if q < 0 {
		return false
	}
	if q > 0 {
		fs.crash[v] = q - 1
		return false
	}
	// q == 0: v is crash-stopped right now.
	if !fs.crashFired[v] {
		fs.crashFired[v] = true
		fs.addEvent(ChurnEvent{Kind: ChurnCrash, Vertex: int(v), Edge: -1, At: int(fs.crashAt[v]), Clock: now})
	}
	r := int32(-1)
	if fs.recover != nil {
		r = fs.recover[v]
	}
	if r > 0 {
		fs.recover[v] = r - 1
		fs.dropped.Add(1)
		return true
	}
	if r == 0 {
		// The crash window is exhausted: v recovers and processes this
		// delivery with its pre-crash state intact.
		fs.crash[v] = -1
		fs.addEvent(ChurnEvent{Kind: ChurnRecover, Vertex: int(v), Edge: -1, At: int(fs.recoverAt[v]), Clock: now})
		return false
	}
	fs.dropped.Add(1)
	return true
}

// addEvent appends a fired churn event to the log. Events are rare (at most
// one per plan term), so one mutex is fine even on the wild engines.
func (fs *FaultState) addEvent(ev ChurnEvent) {
	fs.evMu.Lock()
	fs.events = append(fs.events, ev)
	fs.evMu.Unlock()
}

// ChurnReport returns the run's churn activity, or nil when the plan has no
// churn terms (crash, recover, cut, join, loss steps). Safe to call from any
// goroutine once the run is over; also safe on a nil receiver. Its
// Deliveries is the clock CrashDelivery kept, which an engine that keeps
// the clock itself overwrites.
func (fs *FaultState) ChurnReport() *ChurnReport {
	if fs == nil || !fs.churnTracked {
		return nil
	}
	fs.evMu.Lock()
	evs := append([]ChurnEvent(nil), fs.events...)
	fs.evMu.Unlock()
	for i := range fs.lossSteps {
		s := &fs.lossSteps[i]
		if f := s.fired.Load(); f != 0 {
			evs = append(evs, ChurnEvent{Kind: ChurnLoss, Vertex: -1, Edge: -1, At: int(s.after), Clock: f - 1})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Clock != b.Clock {
			return a.Clock < b.Clock
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Vertex != b.Vertex {
			return a.Vertex < b.Vertex
		}
		if a.Edge != b.Edge {
			return a.Edge < b.Edge
		}
		return a.At < b.At
	})
	return &ChurnReport{Deliveries: fs.clock.Load(), Events: evs}
}

// Dropped returns the number of messages the plan discarded so far: sends
// dropped by DropFirst or Bernoulli loss plus deliveries consumed unprocessed
// by crashed vertices.
func (fs *FaultState) Dropped() int {
	if fs == nil {
		return 0
	}
	return int(fs.dropped.Load())
}

// bernoulli hashes (seed, edge, per-edge send index) through splitmix64 and
// compares the top 53 bits against rate — a schedule-independent coin flip
// for each individual message.
func bernoulli(seed int64, e graph.EdgeID, idx uint32, rate float64) bool {
	x := uint64(seed) ^ (uint64(e)+1)*0x9e3779b97f4a7c15 ^ (uint64(idx)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < rate
}
