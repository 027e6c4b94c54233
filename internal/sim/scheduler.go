package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Scheduler is the pluggable adversary of the sequential engine: it decides
// which pending edge delivers its front message next. The engine maintains
// the per-edge FIFO queues; the scheduler only tracks the set of edges with
// undelivered messages, under the following contract:
//
//   - Reset is called once per run, before any Push.
//   - Push(pe) is called when edge pe.Edge acquires a front message it did
//     not have before: either its queue went from empty to non-empty, or the
//     engine just delivered its previous front and more messages remain. An
//     edge is never in the scheduler twice.
//   - Pop removes and returns the edge whose front message is delivered next.
//     It is called only when Len() > 0.
//
// Implementations must be deterministic functions of the Reset arguments and
// the Push/Pop sequence: two runs with the same graph, protocol, scheduler
// name and seed must produce byte-identical delivery traces. A Scheduler
// instance may be reused for several runs (Reset reinitializes it) but never
// concurrently.
type Scheduler interface {
	// Name identifies the scheduler in reports and CLI flags.
	Name() string
	// Reset prepares the scheduler for a fresh run.
	Reset(ctx SchedContext)
	// Push registers an edge whose front message became deliverable.
	Push(pe PendingEdge)
	// Pop selects the next edge to deliver on and removes it.
	Pop() graph.EdgeID
	// Len reports how many edges are currently pending.
	Len() int
}

// SchedContext is what a scheduler may consult: the (public, anonymous-model
// irrelevant) graph structure, the run seed, and the engine's live view of
// which vertices have already received a message. Visited is monotone over a
// run, which lets priority schedulers cache it lazily.
type SchedContext struct {
	Graph   *graph.G
	Seed    int64
	Visited func(graph.VertexID) bool
}

// PendingEdge is the scheduler's view of one deliverable edge.
type PendingEdge struct {
	// Edge is the edge whose front message is deliverable.
	Edge graph.EdgeID
	// HeadSeq is the global send-sequence number of the edge's front
	// message: messages are numbered 0,1,2,... in the order they were put
	// in flight, so comparing HeadSeq compares send times.
	HeadSeq uint64
}

// NewScheduler returns a fresh scheduler by name. Valid names are listed by
// SchedulerNames.
func NewScheduler(name string) (Scheduler, error) {
	f, ok := schedulerFactories[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown scheduler %q (have %v)", name, SchedulerNames())
	}
	return f(), nil
}

// SchedulerNames lists the registered adversaries, sorted.
func SchedulerNames() []string {
	names := make([]string, 0, len(schedulerFactories))
	for n := range schedulerFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var schedulerFactories = map[string]func() Scheduler{
	"fifo":           func() Scheduler { return NewFIFOScheduler() },
	"lifo":           func() Scheduler { return NewLIFOScheduler() },
	"random":         func() Scheduler { return NewRandomScheduler() },
	"rr-vertex":      func() Scheduler { return NewRoundRobinScheduler() },
	"latency":        func() Scheduler { return NewLatencyScheduler() },
	"latency-pareto": func() Scheduler { return NewParetoScheduler() },
	"starve-oldest":  func() Scheduler { return NewStarvationScheduler() },
	"greedy":         func() Scheduler { return NewGreedyScheduler() },
}

// BatchCapable is declared only because the repository benchmark's schedule
// replay (bench/replay.go) still type-asserts it to skip batch-draining
// schedulers. The engines deliver one edge per Pop and no scheduler
// implements it, so that assertion is always false; delete this stub with
// its last use.
type BatchCapable interface{ batchCapable() }

// --- edge heap, shared by the priority schedulers ---------------------------

// edgeItem is one heap entry: an edge with a primary/secondary priority.
type edgeItem struct {
	edge  graph.EdgeID
	prio  uint64
	prio2 uint64
}

// edgeHeap is a min-heap on (prio, prio2, edge); wrap priorities to flip the
// direction. The final edge-ID tiebreak makes every comparison total, so heap
// order — and with it the delivery trace — is fully deterministic. The sift
// routines are hand-rolled rather than container/heap: the stdlib interface
// boxes every pushed item into an `any`, which costs one heap allocation per
// send on the delivery hot path; this version moves concrete values only, so
// pushes and pops allocate nothing once the backing array is grown.
type edgeHeap []edgeItem

func (h edgeHeap) Len() int { return len(h) }
func (h edgeHeap) less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	if h[i].prio2 != h[j].prio2 {
		return h[i].prio2 < h[j].prio2
	}
	return h[i].edge < h[j].edge
}
func (h *edgeHeap) reset() { *h = (*h)[:0] }

// reserve pre-sizes the heap for a run on a graph with nE edges, so the
// pending set never regrows mid-run. Capped: the pending set rarely reaches
// |E| and a reused scheduler keeps its backing array anyway.
func (h *edgeHeap) reserve(nE int) {
	if nE > maxPresize {
		nE = maxPresize
	}
	if cap(*h) < nE {
		*h = make(edgeHeap, 0, nE)
	}
	*h = (*h)[:0]
}

// maxPresize bounds degree-derived pre-allocations so a million-edge sweep
// does not commit megabytes per scheduler before the first delivery.
const maxPresize = 1 << 14

func (h *edgeHeap) pushItem(e edgeItem) {
	*h = append(*h, e)
	// Sift up.
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
}

func (h *edgeHeap) popMin() edgeItem {
	hh := *h
	it := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh[n] = edgeItem{}
	hh = hh[:n]
	*h = hh
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && hh.less(l, smallest) {
			smallest = l
		}
		if r < n && hh.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		hh[i], hh[smallest] = hh[smallest], hh[i]
		i = smallest
	}
	return it
}

// --- fifo -------------------------------------------------------------------

// fifoScheduler delivers messages in global send order: the pending edge
// whose front message was sent earliest goes first. O(log n) per operation.
type fifoScheduler struct{ h edgeHeap }

// NewFIFOScheduler returns the global-send-order adversary (the default).
func NewFIFOScheduler() Scheduler { return &fifoScheduler{} }

func (s *fifoScheduler) Name() string           { return "fifo" }
func (s *fifoScheduler) Reset(ctx SchedContext) { s.h.reserve(ctx.Graph.NumEdges()) }
func (s *fifoScheduler) Push(pe PendingEdge) {
	s.h.pushItem(edgeItem{edge: pe.Edge, prio: pe.HeadSeq})
}
func (s *fifoScheduler) Pop() graph.EdgeID { return s.h.popMin().edge }
func (s *fifoScheduler) Len() int          { return s.h.Len() }

// --- lifo -------------------------------------------------------------------

// lifoScheduler is a stack over edges: the most recently activated edge is
// drained first. O(1) per operation.
type lifoScheduler struct{ stack []graph.EdgeID }

// NewLIFOScheduler returns the newest-edge-first adversary.
func NewLIFOScheduler() Scheduler { return &lifoScheduler{} }

func (s *lifoScheduler) Name() string { return "lifo" }
func (s *lifoScheduler) Reset(ctx SchedContext) {
	if n := min(ctx.Graph.NumEdges(), maxPresize); cap(s.stack) < n {
		s.stack = make([]graph.EdgeID, 0, n)
	}
	s.stack = s.stack[:0]
}
func (s *lifoScheduler) Push(pe PendingEdge) { s.stack = append(s.stack, pe.Edge) }
func (s *lifoScheduler) Pop() graph.EdgeID {
	e := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return e
}
func (s *lifoScheduler) Len() int { return len(s.stack) }

// --- random -----------------------------------------------------------------

// randomScheduler picks a uniformly random pending edge, seeded. Removal is
// by swap-with-last, so every operation is O(1).
type randomScheduler struct {
	rng   *rand.Rand
	items []graph.EdgeID
}

// NewRandomScheduler returns the seeded uniform adversary.
func NewRandomScheduler() Scheduler { return &randomScheduler{} }

func (s *randomScheduler) Name() string { return "random" }
func (s *randomScheduler) Reset(ctx SchedContext) {
	s.rng = rand.New(rand.NewSource(ctx.Seed))
	if n := min(ctx.Graph.NumEdges(), maxPresize); cap(s.items) < n {
		s.items = make([]graph.EdgeID, 0, n)
	}
	s.items = s.items[:0]
}
func (s *randomScheduler) Push(pe PendingEdge) { s.items = append(s.items, pe.Edge) }
func (s *randomScheduler) Pop() graph.EdgeID {
	i := s.rng.Intn(len(s.items))
	e := s.items[i]
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.items = s.items[:last]
	return e
}
func (s *randomScheduler) Len() int { return len(s.items) }

// --- rr-vertex --------------------------------------------------------------

// rrScheduler cycles round-robin over destination vertices: each turn the
// next vertex (in activation order) that has any deliverable in-edge receives
// one message, from its earliest-activated pending in-edge. This is the
// classic fair scheduler of self-stabilization analyses — every vertex makes
// progress at the same rate no matter how lopsided the message load is.
// O(1) per operation.
type rrScheduler struct {
	graph  *graph.G
	perV   []vertexQueue    // pending in-edges per destination, FIFO
	ring   []graph.VertexID // vertices with pending in-edges, rotation order
	inRing []bool
	n      int
}

// vertexQueue is a head-indexed FIFO so popping the front is O(1); the
// backing array is compacted only when fully drained.
type vertexQueue struct {
	items []graph.EdgeID
	head  int
}

func (q *vertexQueue) push(e graph.EdgeID) { q.items = append(q.items, e) }
func (q *vertexQueue) pop() graph.EdgeID {
	e := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return e
}
func (q *vertexQueue) len() int { return len(q.items) - q.head }

// NewRoundRobinScheduler returns the round-robin-by-destination adversary.
func NewRoundRobinScheduler() Scheduler { return &rrScheduler{} }

func (s *rrScheduler) Name() string { return "rr-vertex" }
func (s *rrScheduler) Reset(ctx SchedContext) {
	nV := ctx.Graph.NumVertices()
	if cap(s.perV) < nV {
		s.perV = make([]vertexQueue, nV)
		s.inRing = make([]bool, nV)
	} else {
		s.perV = s.perV[:nV]
		s.inRing = s.inRing[:nV]
		for v := range s.perV {
			s.perV[v].items = s.perV[v].items[:0]
			s.perV[v].head = 0
			s.inRing[v] = false
		}
	}
	s.ring = s.ring[:0]
	s.graph = ctx.Graph
	s.n = 0
}

func (s *rrScheduler) Push(pe PendingEdge) {
	to := s.graph.Edge(pe.Edge).To
	s.perV[to].push(pe.Edge)
	s.n++
	if !s.inRing[to] {
		s.inRing[to] = true
		s.ring = append(s.ring, to)
	}
}

func (s *rrScheduler) Pop() graph.EdgeID {
	v := s.ring[0]
	s.ring = s.ring[1:]
	e := s.perV[v].pop()
	s.n--
	if s.perV[v].len() > 0 {
		s.ring = append(s.ring, v) // move to the back of the rotation
	} else {
		s.inRing[v] = false
	}
	return e
}

func (s *rrScheduler) Len() int { return s.n }

// --- latency ----------------------------------------------------------------

// latencyScheduler models per-edge latency classes: every edge is assigned a
// class (fast/medium/slow) from the seed, a message sent at time HeadSeq
// arrives at virtual time HeadSeq + class delay, and deliveries happen in
// arrival order. Slow edges therefore lag arbitrarily far behind fast ones —
// the standard "heterogeneous links" adversary. O(log n) per operation.
type latencyScheduler struct {
	delays []uint64
	h      edgeHeap
}

// Latency classes in virtual ticks. Spread out enough that class boundaries
// genuinely reorder traffic, small enough that HeadSeq never overflows.
var latencyClasses = [...]uint64{1, 16, 256}

// NewLatencyScheduler returns the per-edge-latency-class adversary.
func NewLatencyScheduler() Scheduler { return &latencyScheduler{} }

func (s *latencyScheduler) Name() string { return "latency" }
func (s *latencyScheduler) Reset(ctx SchedContext) {
	rng := rand.New(rand.NewSource(ctx.Seed))
	nE := ctx.Graph.NumEdges()
	if cap(s.delays) < nE {
		s.delays = make([]uint64, nE)
	} else {
		s.delays = s.delays[:nE]
	}
	for e := range s.delays {
		s.delays[e] = latencyClasses[rng.Intn(len(latencyClasses))]
	}
	s.h.reserve(nE)
}
func (s *latencyScheduler) Push(pe PendingEdge) {
	s.h.pushItem(edgeItem{edge: pe.Edge, prio: pe.HeadSeq + s.delays[pe.Edge], prio2: pe.HeadSeq})
}
func (s *latencyScheduler) Pop() graph.EdgeID { return s.h.popMin().edge }
func (s *latencyScheduler) Len() int          { return s.h.Len() }

// --- latency-pareto ---------------------------------------------------------

// paretoScheduler is the heavy-tailed cousin of latencyScheduler: each edge
// draws its delay from a Pareto(alpha) distribution instead of three fixed
// classes, so a few edges are extreme stragglers while most are fast — the
// empirical shape of wide-area links. Same arrival-order semantics: a message
// sent at time HeadSeq arrives at HeadSeq + delay(edge). O(log n) per
// operation.
type paretoScheduler struct {
	delays []uint64
	h      edgeHeap
}

// paretoAlpha is the tail index: small enough that the tail is genuinely
// heavy (infinite variance for alpha < 2), large enough that the mean exists.
const paretoAlpha = 1.2

// paretoMaxDelay caps a draw so HeadSeq + delay can never overflow and a
// single edge cannot stall a run beyond any bound the step limit would catch.
const paretoMaxDelay = 1 << 20

// NewParetoScheduler returns the heavy-tailed per-edge-latency adversary.
func NewParetoScheduler() Scheduler { return &paretoScheduler{} }

func (s *paretoScheduler) Name() string { return "latency-pareto" }
func (s *paretoScheduler) Reset(ctx SchedContext) {
	rng := rand.New(rand.NewSource(ctx.Seed))
	nE := ctx.Graph.NumEdges()
	if cap(s.delays) < nE {
		s.delays = make([]uint64, nE)
	} else {
		s.delays = s.delays[:nE]
	}
	for e := range s.delays {
		// Inverse-CDF sampling: U uniform in [0,1) gives 1/(1-U)^(1/alpha)
		// in [1, inf), truncated to the cap.
		d := math.Pow(1/(1-rng.Float64()), 1/paretoAlpha)
		if d > paretoMaxDelay {
			d = paretoMaxDelay
		}
		s.delays[e] = uint64(d)
	}
	s.h.reserve(nE)
}
func (s *paretoScheduler) Push(pe PendingEdge) {
	s.h.pushItem(edgeItem{edge: pe.Edge, prio: pe.HeadSeq + s.delays[pe.Edge], prio2: pe.HeadSeq})
}
func (s *paretoScheduler) Pop() graph.EdgeID { return s.h.popMin().edge }
func (s *paretoScheduler) Len() int          { return s.h.Len() }

// --- starve-oldest ----------------------------------------------------------

// starvationScheduler always delivers the globally newest front message, so
// the oldest in-flight message is starved for as long as anything newer
// exists. O(log n) per operation. On the sequential engine this is exactly
// lifo's schedule (lifo's stack stays sorted by head send time;
// TestStarveOldestIsLIFOOnSeq checks it), at 1.15–1.23× lifo's run time on
// a 50k-vertex tree, a 20×20 torus and a 200-vertex random digraph (median
// of 11 runs, 2 vCPUs), so reach for lifo there.
type starvationScheduler struct{ h edgeHeap }

// NewStarvationScheduler returns the oldest-message-starvation adversary.
func NewStarvationScheduler() Scheduler { return &starvationScheduler{} }

func (s *starvationScheduler) Name() string           { return "starve-oldest" }
func (s *starvationScheduler) Reset(ctx SchedContext) { s.h.reserve(ctx.Graph.NumEdges()) }
func (s *starvationScheduler) Push(pe PendingEdge) {
	// Negate the send time so the min-heap yields the newest message.
	s.h.pushItem(edgeItem{edge: pe.Edge, prio: ^pe.HeadSeq})
}
func (s *starvationScheduler) Pop() graph.EdgeID { return s.h.popMin().edge }
func (s *starvationScheduler) Len() int          { return s.h.Len() }

// --- greedy -----------------------------------------------------------------

// greedyScheduler is the worst-case-greedy adversary: it maximizes the number
// of in-flight messages by always delivering to the vertex most likely to
// fan out — an unvisited destination (whose first delivery typically
// triggers sends on every out-edge) with the largest out-degree. Deliveries
// into already-visited vertices happen only when no virgin destination has
// pending traffic, oldest first. Priorities are computed at Push time and
// lazily revalidated at Pop: Visited is monotone, so each edge is re-pushed
// at most once, keeping operations amortized O(log n).
type greedyScheduler struct {
	ctx SchedContext
	h   edgeHeap
}

// NewGreedyScheduler returns the max-in-flight greedy adversary.
func NewGreedyScheduler() Scheduler { return &greedyScheduler{} }

func (s *greedyScheduler) Name() string { return "greedy" }
func (s *greedyScheduler) Reset(ctx SchedContext) {
	s.ctx = ctx
	s.h.reserve(ctx.Graph.NumEdges())
}

// prio ranks unvisited destinations by descending out-degree; every visited
// destination shares one demoted priority class, so within it the prio2
// send-time tiebreak alone decides — oldest first, as documented.
func (s *greedyScheduler) prio(e graph.EdgeID) uint64 {
	to := s.ctx.Graph.Edge(e).To
	if s.ctx.Visited(to) {
		return 1 << 63
	}
	return uint64(1<<32) - uint64(s.ctx.Graph.OutDegree(to))
}

func (s *greedyScheduler) Push(pe PendingEdge) {
	s.h.pushItem(edgeItem{edge: pe.Edge, prio: s.prio(pe.Edge), prio2: pe.HeadSeq})
}

func (s *greedyScheduler) Pop() graph.EdgeID {
	for {
		it := s.h.popMin()
		if cur := s.prio(it.edge); cur != it.prio {
			// The destination was visited after this edge was pushed;
			// demote it and look again.
			it.prio = cur
			s.h.pushItem(it)
			continue
		}
		return it.edge
	}
}
func (s *greedyScheduler) Len() int { return s.h.Len() }
