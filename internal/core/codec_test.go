package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// wireProto wraps a protocol so every message crosses the real wire format:
// Receive encodes the message, decodes it back, and hands the decoded value
// to the inner node. If the codec or the Bits() accounting were wrong, the
// wrapped protocols would diverge from the direct runs.
type wireProto struct {
	inner protocol.Protocol
	t     *testing.T
}

func (w wireProto) Name() string { return w.inner.Name() + "+wire" }

func (w wireProto) InitialMessage() protocol.Message { return w.inner.InitialMessage() }

func (w wireProto) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	n := w.inner.NewNode(inDeg, outDeg, role)
	if t, ok := n.(protocol.Terminal); ok {
		return wireTerminal{wireNode{inner: n, t: w.t}, t}
	}
	return wireNode{inner: n, t: w.t}
}

type wireNode struct {
	inner protocol.Node
	t     *testing.T
}

func (n wireNode) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	// Round-trip through the wire.
	var w bitio.Writer
	if err := EncodeMessage(&w, msg); err != nil {
		return nil, err
	}
	// Verify the Bits() reconciliation exactly.
	if got, want := w.Len(), msg.Bits()+framingBits(msg); got != want {
		return nil, fmt.Errorf("wire length %d != Bits() %d + framing %d", got, msg.Bits(), want-msg.Bits())
	}
	decoded, err := DecodeMessage(bitio.NewReader(w.Bytes(), w.Len()))
	if err != nil {
		return nil, fmt.Errorf("decode %T: %w", msg, err)
	}
	if decoded.Key() != msg.Key() {
		return nil, fmt.Errorf("decode changed message: %q -> %q", msg.Key(), decoded.Key())
	}
	return n.inner.Receive(decoded, inPort)
}

type wireTerminal struct {
	wireNode
	term protocol.Terminal
}

func (t wireTerminal) Done() bool  { return t.term.Done() }
func (t wireTerminal) Output() any { return t.term.Output() }

func TestWireRoundTripAllProtocols(t *testing.T) {
	payload := []byte("wire-format payload")
	protos := []protocol.Protocol{
		NewTreeBroadcast(payload, RulePow2),
		NewTreeBroadcast(payload, RuleNaive),
		NewDAGBroadcast(payload),
		NewGeneralBroadcast(payload),
		NewLabelAssign(payload),
		NewMapExtract(payload),
	}
	graphs := map[string]*graph.G{
		"tree":    graph.Chain(6),
		"dag":     graph.RandomDAG(15, 10, 2),
		"general": graph.RandomDigraph(12, 3, graph.RandomDigraphOpts{ExtraEdges: 12, TerminalFrac: 0.3}),
	}
	for _, p := range protos {
		for name, g := range graphs {
			if name != "tree" && (p.Name() == "treecast/pow2" || p.Name() == "treecast/naive") {
				continue // tree protocols only run on grounded trees
			}
			if name == "general" && p.Name() == "dagcast" {
				continue // dagcast stalls on cycles by design
			}
			direct, err := sim.Run(g, p, sim.Options{})
			if err != nil {
				t.Fatalf("%s on %s direct: %v", p.Name(), g, err)
			}
			wired, err := sim.Run(g, wireProto{inner: p, t: t}, sim.Options{})
			if err != nil {
				t.Fatalf("%s on %s wired: %v", p.Name(), g, err)
			}
			if direct.Verdict != wired.Verdict {
				t.Fatalf("%s on %s: verdicts differ: %s vs %s", p.Name(), g, direct.Verdict, wired.Verdict)
			}
			if direct.Metrics.Messages != wired.Metrics.Messages {
				t.Fatalf("%s on %s: message counts differ: %d vs %d",
					p.Name(), g, direct.Metrics.Messages, wired.Metrics.Messages)
			}
			if direct.Metrics.TotalBits != wired.Metrics.TotalBits {
				t.Fatalf("%s on %s: bit counts differ: %d vs %d",
					p.Name(), g, direct.Metrics.TotalBits, wired.Metrics.TotalBits)
			}
		}
	}
}

// TestCodecAgreesWithNodes decodes every kind of message each core protocol
// sends, the initial message and an internal vertex's first sends, and
// checks that the decoded message has the sent message's dynamic type and
// that the protocol's internal and terminal nodes accept it. A codec that
// decoded a different form than the nodes take would otherwise fail only
// inside the TCP tier.
func TestCodecAgreesWithNodes(t *testing.T) {
	for _, p := range []protocol.Protocol{
		NewTreeBroadcast([]byte("m"), RulePow2),
		NewTreeBroadcast([]byte("m"), RuleNaive),
		NewDAGBroadcast([]byte("m")),
		NewGeneralBroadcast([]byte("m")),
		NewLabelAssign([]byte("m")),
		NewMapExtract([]byte("m")),
	} {
		msgs := []protocol.Message{p.InitialMessage()}
		outs, err := p.NewNode(1, 2, protocol.RoleInternal).Receive(p.InitialMessage(), 0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for _, m := range outs {
			if m != nil {
				msgs = append(msgs, m)
			}
		}
		for _, m := range msgs {
			var w bitio.Writer
			if err := EncodeMessage(&w, m); err != nil {
				t.Fatalf("%s: encode %T: %v", p.Name(), m, err)
			}
			decoded, err := DecodeMessage(bitio.NewReader(w.Bytes(), w.Len()))
			if err != nil {
				t.Fatalf("%s: decode %T: %v", p.Name(), m, err)
			}
			if got, want := reflect.TypeOf(decoded), reflect.TypeOf(m); got != want {
				t.Fatalf("%s: %v decodes as %v", p.Name(), want, got)
			}
			for _, n := range []protocol.Node{
				p.NewNode(1, 2, protocol.RoleInternal),
				p.NewNode(1, 0, protocol.RoleTerminal),
			} {
				if _, err := n.Receive(decoded, 0); err != nil {
					t.Fatalf("%s: %T refuses the decoded %T: %v", p.Name(), n, decoded, err)
				}
			}
		}
	}
}

func TestWireBitsMatchesAccounting(t *testing.T) {
	msgs := []protocol.Message{
		pow2Msg{exp: 0},
		pow2Msg{payload: Payload("abc"), exp: 17},
		NewDAGBroadcast([]byte("x")).InitialMessage(),
		NewGeneralBroadcast(nil).InitialMessage(),
		NewLabelAssign([]byte("yz")).InitialMessage(),
		NewMapExtract(nil).InitialMessage(),
		NewTreeBroadcast([]byte("q"), RuleNaive).InitialMessage(),
	}
	for _, m := range msgs {
		wb, err := WireBits(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if wb != m.Bits()+framingBits(m) {
			t.Fatalf("%T: wire %d != Bits %d + framing %d", m, wb, m.Bits(), framingBits(m))
		}
	}
}

// TestProtocolsCopyThePayload builds every protocol from a buffer, then
// overwrites the buffer: the messages on the wire must still carry the bytes
// the protocol was built with, so a caller may reuse its buffer.
func TestProtocolsCopyThePayload(t *testing.T) {
	const want = "payload"
	ctors := map[string]func([]byte) protocol.Protocol{
		"treecast/pow2":  func(m []byte) protocol.Protocol { return NewTreeBroadcast(m, RulePow2) },
		"treecast/naive": func(m []byte) protocol.Protocol { return NewTreeBroadcast(m, RuleNaive) },
		"dagcast":        func(m []byte) protocol.Protocol { return NewDAGBroadcast(m) },
		"generalcast":    func(m []byte) protocol.Protocol { return NewGeneralBroadcast(m) },
		"generalcast/literal": func(m []byte) protocol.Protocol {
			return NewGeneralBroadcastLiteral(m)
		},
		"labelcast": func(m []byte) protocol.Protocol { return NewLabelAssign(m) },
		"mapcast":   func(m []byte) protocol.Protocol { return NewMapExtract(m) },
	}
	for name, ctor := range ctors {
		buf := []byte(want)
		p := ctor(buf)
		copy(buf, "XXXXXXX")
		var w bitio.Writer
		if err := EncodeMessage(&w, p.InitialMessage()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := DecodeMessage(bitio.NewReader(w.Bytes(), w.Len()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got Payload
		switch m := m.(type) {
		case pow2Msg:
			got = m.payload
		case naiveMsg:
			got = m.payload
		case dagMsg:
			got = m.payload
		case *gcMsg:
			got = m.payload
		case mapMsg:
			got = m.gc.payload
		default:
			t.Fatalf("%s: unexpected message type %T", name, m)
		}
		if string(got) != want {
			t.Errorf("%s: payload on the wire is %q after the caller's buffer changed, want %q", name, got, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// Unknown tag.
	var w bitio.Writer
	w.WriteBits(7, 3)
	if _, err := DecodeMessage(bitio.NewReader(w.Bytes(), w.Len())); err == nil {
		t.Fatal("garbage tag accepted")
	}
	// Truncated stream.
	var w2 bitio.Writer
	if err := EncodeMessage(&w2, pow2Msg{payload: Payload("hello"), exp: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(bitio.NewReader(w2.Bytes(), w2.Len()/2)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestDecodeRecordsRoundTripComplexMap(t *testing.T) {
	// End-to-end wire check on a mapping run over a multi-edge cyclic graph.
	b := graph.NewBuilder(5).SetRoot(0).SetTerminal(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2).AddEdge(1, 3).AddEdge(1, 2) // parallel edges
	b.AddEdge(2, 4).AddEdge(2, 1)               // cycle
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewMapExtract([]byte("m"))
	wired, err := sim.Run(g, wireProto{inner: p, t: t}, sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if wired.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", wired.Verdict)
	}
	topo := wired.Output.(*Topology)
	if topo.NumEdges() != g.NumEdges() || topo.NumVertices() != g.NumVertices() {
		t.Fatalf("wire-run map mismatch: %d/%d vs %d/%d",
			topo.NumVertices(), topo.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}
