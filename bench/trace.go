package main

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// The traced pass records spans from outside the engines, through the
// interfaces they already accept: a Protocol whose nodes time Receive, an
// Observer that captures one run's event stream for the offline replays
// (replay.go), sim.Options.Obs for the sharded engine's phases, and an
// http.Handler middleware for the run server. Layers whose calls take about
// as long as a clock read — the scheduler, the queues, metering, fault
// checks — are timed by the replays in aggregate instead: on a clock that
// costs 30-100 ns per read, timing each of their calls would mostly measure
// the clock.

// span is one aggregated span: Count calls of Name took TotalNS together, of
// which SelfNS were not covered by child spans. Per-call spans are corrected
// by the calibrated empty-span cost (trace.span_ns). Each op (one run or one
// request) gets one root span whose children are its layers.
type span struct {
	Name     string  `json:"name"`
	StartNS  int64   `json:"start_ns,omitempty"`
	Count    int64   `json:"count"`
	TotalNS  int64   `json:"total_ns"`
	SelfNS   int64   `json:"self_ns"`
	Children []*span `json:"children,omitempty"`
}

// child returns the named child span, or nil.
func (s *span) child(name string) *span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// leaf builds a leaf span from count calls that measured total together,
// each corrected by the empty-span cost.
func leaf(name string, count, total int64, spanNS float64) *span {
	self := total - int64(float64(count)*spanNS)
	return &span{Name: name, Count: count, TotalNS: total, SelfNS: max(self, 0)}
}

// root closes a root span: its self time is what its children do not cover.
func root(name string, start time.Time, origin time.Time, dur time.Duration, children ...*span) *span {
	s := &span{Name: name, StartNS: int64(start.Sub(origin)), Count: 1, TotalNS: int64(dur), Children: children}
	s.SelfNS = s.TotalNS
	for _, c := range children {
		s.SelfNS -= c.TotalNS
	}
	return s
}

// calibrateSpan measures what an empty span reads: the median, over many
// back-to-back clock pairs, of the interval between them. Subtracting it per
// call removes the clock's own cost from a layer's self time.
func calibrateSpan() float64 {
	const n = 20000
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return median(ds)
}

// timedProtocol decorates a protocol so every node times its Receive calls.
// The wrappers come from one arena per run, so decorating adds one
// allocation rather than one per vertex, and each wrapper fills its own
// cache line: the counters live in the nodes, each driven by one goroutine at
// a time, which keeps the decorator race-free — and free of false sharing —
// on the sharded engine.
type timedProtocol struct {
	protocol.Protocol
	arena *[]timedNode
}

// timedMultiProtocol additionally forwards MultiInitializer.
type timedMultiProtocol struct {
	timedProtocol
	protocol.MultiInitializer
}

// decorate wraps p for one run on a graph of nV vertices.
func decorate(p protocol.Protocol, nV int) protocol.Protocol {
	arena := make([]timedNode, 0, nV)
	tp := timedProtocol{p, &arena}
	if mi, ok := p.(protocol.MultiInitializer); ok {
		return timedMultiProtocol{tp, mi}
	}
	return tp
}

func (p timedProtocol) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	n := p.Protocol.NewNode(inDeg, outDeg, role)
	if t, ok := n.(protocol.Terminal); ok && role == protocol.RoleTerminal {
		return &timedTerminal{timedNode: timedNode{inner: n}, term: t}
	}
	if len(*p.arena) == cap(*p.arena) {
		return &timedNode{inner: n}
	}
	*p.arena = append(*p.arena, timedNode{inner: n})
	return &(*p.arena)[len(*p.arena)-1]
}

type timedNode struct {
	inner protocol.Node
	calls int64
	ns    int64
	_     [32]byte // pads the node to a 64-byte cache line
}

func (n *timedNode) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	t0 := time.Now()
	outs, err := n.inner.Receive(msg, inPort)
	n.ns += int64(time.Since(t0))
	n.calls++
	return outs, err
}

type timedTerminal struct {
	timedNode
	term protocol.Terminal
}

func (t *timedTerminal) Done() bool  { return t.term.Done() }
func (t *timedTerminal) Output() any { return t.term.Output() }

// receiveTotals sums the Receive counters of a decorated run's nodes.
func receiveTotals(nodes []protocol.Node) (calls, ns int64) {
	for _, n := range nodes {
		switch tn := n.(type) {
		case *timedNode:
			calls, ns = calls+tn.calls, ns+tn.ns
		case *timedTerminal:
			calls, ns = calls+tn.calls, ns+tn.ns
		}
	}
	return calls, ns
}

// event is one captured send or delivery.
type event struct {
	deliver bool
	edge    graph.EdgeID
	msg     protocol.Message
}

// capture is the Observer that records one run's event stream.
type capture struct{ events []event }

func (c *capture) OnSend(e graph.EdgeID, msg protocol.Message) {
	c.events = append(c.events, event{edge: e, msg: msg})
}

func (c *capture) OnDeliver(_ int, e graph.EdgeID, msg protocol.Message) {
	c.events = append(c.events, event{deliver: true, edge: e, msg: msg})
}

// timedHandler is the run server's middleware: it records how long the
// server's handler held each request, keyed by the request index the client
// puts in the X-Bench-Req header.
type timedHandler struct {
	next http.Handler
	ns   []atomic.Int64
}

func newTimedHandler(next http.Handler, requests int) *timedHandler {
	return &timedHandler{next: next, ns: make([]atomic.Int64, requests)}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	if i, err := strconv.Atoi(r.Header.Get("X-Bench-Req")); err == nil && i >= 0 && i < len(h.ns) {
		h.ns[i].Store(int64(time.Since(t0)))
	}
}

// meanChild averages the span at path below each root over the roots.
func meanChild(roots []*span, path ...string) (count, totalNS, selfNS float64) {
	if len(roots) == 0 {
		return 0, 0, 0
	}
	for _, r := range roots {
		s := r
		for _, name := range path {
			if s = s.child(name); s == nil {
				break
			}
		}
		if s != nil {
			count += float64(s.Count)
			totalNS += float64(s.TotalNS)
			selfNS += float64(s.SelfNS)
		}
	}
	n := float64(len(roots))
	return count / n, totalNS / n, selfNS / n
}

// rootDurations returns the root spans' durations in milliseconds.
func rootDurations(roots []*span) []float64 {
	out := make([]float64, len(roots))
	for i, r := range roots {
		out[i] = float64(r.TotalNS) / 1e6
	}
	return out
}
