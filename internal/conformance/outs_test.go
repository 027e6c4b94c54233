package conformance

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/netrun"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// pathMsg names the path a message has travelled: its length and a hash of
// the out-ports taken. On a DAG the multiset of messages on each edge is the
// set of paths ending there, whatever the schedule.
type pathMsg struct {
	hops, path uint64
}

func (m pathMsg) Bits() int { return bitio.Delta0Len(m.hops) + bitio.Delta0Len(m.path) }

func (m pathMsg) Key() string {
	return strconv.FormatUint(m.hops, 10) + "/" + strconv.FormatUint(m.path, 10)
}

// pathcast forwards every message it receives on every out-edge, extended
// by the out-port it leaves on. With retain set, each node fills and returns
// one slice it keeps, overwriting the messages it returned on its previous
// receipt; otherwise it returns a fresh slice every time. The terminal stops
// after as many receipts as the graph has root-to-terminal paths.
type pathcast struct {
	retain bool
	paths  int
}

func (p *pathcast) Name() string                     { return "pathcast" }
func (p *pathcast) InitialMessage() protocol.Message { return pathMsg{} }

func (p *pathcast) NewNode(_, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &pathTerminal{want: p.paths}
	}
	return &pathNode{outDeg: outDeg, retain: p.retain}
}

type pathNode struct {
	outDeg int
	retain bool
	outs   []protocol.Message
}

func (n *pathNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m, ok := msg.(pathMsg)
	if !ok {
		return nil, fmt.Errorf("pathcast: unexpected message type %T", msg)
	}
	if n.outDeg == 0 {
		return nil, nil
	}
	outs := n.outs
	if !n.retain || outs == nil {
		outs = make([]protocol.Message, n.outDeg)
	}
	if n.retain {
		n.outs = outs
	}
	for j := range outs {
		outs[j] = pathMsg{hops: m.hops + 1, path: (m.path*7 + uint64(j) + 1) % (1 << 40)}
	}
	return outs, nil
}

type pathTerminal struct {
	got, want int
}

func (t *pathTerminal) Receive(protocol.Message, int) ([]protocol.Message, error) {
	t.got++
	return nil, nil
}

func (t *pathTerminal) Done() bool  { return t.got == t.want }
func (t *pathTerminal) Output() any { return t.got }

// pathCodec puts pathMsg on the wire for the socket engine.
type pathCodec struct{}

func (pathCodec) Encode(m protocol.Message) ([]byte, int, error) {
	pm, ok := m.(pathMsg)
	if !ok {
		return nil, 0, fmt.Errorf("pathcast: cannot encode %T", m)
	}
	var w bitio.Writer
	w.WriteDelta0(pm.hops)
	w.WriteDelta0(pm.path)
	return w.Bytes(), w.Len(), nil
}

func (pathCodec) Decode(data []byte, bits int) (protocol.Message, error) {
	r := bitio.NewReader(data, bits)
	hops, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	path, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	return pathMsg{hops: hops, path: path}, nil
}

// pathCounts returns, per vertex, the number of paths from the root to it.
func pathCounts(g *graph.G) []int {
	n := g.NumVertices()
	in := make([]int, n)
	for v := range n {
		for j := range g.OutDegree(graph.VertexID(v)) {
			in[g.OutEdge(graph.VertexID(v), j).To]++
		}
	}
	counts := make([]int, n)
	counts[g.Root()] = 1
	ready := []graph.VertexID{g.Root()}
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for j := range g.OutDegree(v) {
			to := g.OutEdge(v, j).To
			counts[to] += counts[v]
			if in[to]--; in[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	return counts
}

// TestEnginesConsumeOutsBeforeNextReceive backs the outs contract of
// protocol.Node: a returned slice stays valid only until the node's next
// Receive. Every engine must therefore read a node's outs before it
// delivers to that node again. pathcast with retain set overwrites its one
// slice on every receipt, and vertices of in-degree two or more receive
// several times, so an engine that kept a slice past that point would send
// messages of the wrong path and meter different bits. On every engine the
// retaining run must match the fresh-slice run in deliveries, bits and
// verdict, and both must deliver one message per root path.
func TestEnginesConsumeOutsBeforeNextReceive(t *testing.T) {
	g := graph.RandomDAG(8, 10, 5)
	counts := pathCounts(g)
	wantSteps, multi := 0, 0
	for v, c := range counts {
		if graph.VertexID(v) != g.Root() {
			wantSteps += c
		}
		if c > 1 && g.OutDegree(graph.VertexID(v)) > 0 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no vertex with an out-edge receives twice: the retained slice is never reused")
	}
	paths := counts[g.Terminal()]
	engines := []struct {
		name string
		eng  sim.Engine
	}{
		{"seq", sim.Sequential()},
		{"concurrent", sim.Concurrent()},
		{"sync", sim.Synchronous()},
		{"shard2", shard.Engine(2)},
		{"tcp", netrun.Engine(pathCodec{}, netrun.Options{})},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			run := func(retain bool) *sim.Result {
				r, err := e.eng.Run(g, &pathcast{retain: retain, paths: paths}, sim.Options{})
				if err != nil {
					t.Fatalf("retain=%v: %v", retain, err)
				}
				return r
			}
			fresh, kept := run(false), run(true)
			if fresh.Verdict != sim.Terminated || kept.Verdict != sim.Terminated {
				t.Fatalf("verdicts: fresh %v, retained %v, want terminated", fresh.Verdict, kept.Verdict)
			}
			if fresh.Steps != wantSteps || kept.Steps != wantSteps {
				t.Fatalf("deliveries: fresh %d, retained %d, want %d (one per root path)", fresh.Steps, kept.Steps, wantSteps)
			}
			if fresh.Metrics.TotalBits != kept.Metrics.TotalBits || fresh.Metrics.Messages != kept.Metrics.Messages {
				t.Fatalf("fresh outs: %d messages, %d bits; retained outs: %d messages, %d bits",
					fresh.Metrics.Messages, fresh.Metrics.TotalBits, kept.Metrics.Messages, kept.Metrics.TotalBits)
			}
		})
	}
}
