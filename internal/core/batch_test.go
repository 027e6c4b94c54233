package core

import (
	"math/rand"
	"testing"

	"repro/internal/interval"
	"repro/internal/protocol"
)

// batchVertices describes the vertices of a batch: a root, internal
// vertices of out-degrees 0 to 4, and the terminal.
var batchVertices = []struct {
	outDeg int
	role   protocol.Role
}{
	{1, protocol.RoleRoot}, {3, protocol.RoleInternal}, {0, protocol.RoleInternal}, {2, protocol.RoleInternal},
	{1, protocol.RoleInternal}, {4, protocol.RoleInternal}, {0, protocol.RoleTerminal},
}

func batchVertex(v int) (int, int, protocol.Role) {
	return 1, batchVertices[v].outDeg, batchVertices[v].role
}

// batchProtocols are the interval protocols with their message wrapping.
func batchProtocols() []struct {
	p    protocol.Protocol
	wrap func(*gcMsg) protocol.Message
} {
	return []struct {
		p    protocol.Protocol
		wrap func(*gcMsg) protocol.Message
	}{
		{NewGeneralBroadcast([]byte("m")), func(m *gcMsg) protocol.Message { return m }},
		{NewLabelAssign(nil), func(m *gcMsg) protocol.Message { return m }},
		{NewMapExtract(nil), func(m *gcMsg) protocol.Message {
			return mapMsg{gc: *m, sender: Endpoint{Kind: EndpointRoot}, senderDeg: 1}
		}},
	}
}

// TestBatchNodesMatchNewNode feeds the nodes of one NewNodes batch and
// nodes built one NewNode call each the same receipts, interleaved across
// the vertices so that every node's windows and scratch grow while its
// neighbours' are in use. Every receipt must send the same messages.
func TestBatchNodesMatchNewNode(t *testing.T) {
	for _, c := range batchProtocols() {
		batch := make([]protocol.Node, len(batchVertices))
		c.p.(protocol.BatchBuilder).NewNodes(batch, batchVertex)
		single := make([]protocol.Node, len(batchVertices))
		for v := range single {
			single[v] = c.p.NewNode(batchVertex(v))
		}
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 2000; i++ {
			v := rng.Intn(len(batchVertices))
			m := &gcMsg{alpha: randUnion(rng, 3, 10, 0), beta: randUnion(rng, 3, 10, 0)}
			if i < len(batchVertices) || rng.Intn(4) == 0 {
				m.alpha = interval.FullUnion()
			}
			inPort := rng.Intn(2)
			got, err := batch[v].Receive(c.wrap(m), inPort)
			if err != nil {
				t.Fatal(err)
			}
			want, err := single[v].Receive(c.wrap(m), inPort)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s receipt %d at vertex %d: %d messages, want %d", c.p.Name(), i, v, len(got), len(want))
			}
			for j := range got {
				if (got[j] == nil) != (want[j] == nil) || got[j] != nil && got[j].Key() != want[j].Key() {
					t.Fatalf("%s receipt %d at vertex %d: port %d sends %v, want %v", c.p.Name(), i, v, j, got[j], want[j])
				}
			}
		}
	}
}

// nodeWindows returns the windows of a batch node's backings: its alphas
// (with the label, if any), its outs slices and its step scratch.
func nodeWindows(n protocol.Node) ([]interval.Union, [][]protocol.Message, []interval.Interval) {
	switch n := n.(type) {
	case *gcNode:
		return n.alphas, [][]protocol.Message{n.outs}, n.scratch
	case *labelNode:
		return n.parts, [][]protocol.Message{n.outs}, n.scratch
	case *mapNode:
		return n.inner.parts, [][]protocol.Message{n.inner.outs, n.outs}, n.inner.scratch
	}
	return nil, nil, nil
}

// TestBatchWindowsAreCapped fills every window of a batch's nodes, one
// node at a time, to its capacity and appends one more element through it.
// The nodes after it must still hold only zero values: a window that is
// not capped would let the append overwrite its neighbour's.
func TestBatchWindowsAreCapped(t *testing.T) {
	full, msg := interval.FullUnion(), protocol.Message(&gcMsg{alpha: interval.FullUnion()})
	for _, c := range batchProtocols() {
		batch := make([]protocol.Node, len(batchVertices))
		c.p.(protocol.BatchBuilder).NewNodes(batch, batchVertex)
		for v, n := range batch {
			unions, outs, scratch := nodeWindows(n)
			unions = unions[:cap(unions)]
			for i := range unions {
				unions[i] = full
			}
			_ = append(unions, full)
			for _, o := range outs {
				o = o[:cap(o)]
				for i := range o {
					o[i] = msg
				}
				_ = append(o, msg)
			}
			scratch = scratch[:cap(scratch)]
			for i := range scratch {
				scratch[i] = interval.Full()
			}
			_ = append(scratch, interval.Full())
			for u := v + 1; u < len(batch); u++ {
				unions, outs, scratch := nodeWindows(batch[u])
				for _, x := range unions[:cap(unions)] {
					if !x.IsEmpty() {
						t.Fatalf("%s: filling vertex %d's unions reached vertex %d's", c.p.Name(), v, u)
					}
				}
				for _, o := range outs {
					for _, x := range o[:cap(o)] {
						if x != nil {
							t.Fatalf("%s: filling vertex %d's outs reached vertex %d's", c.p.Name(), v, u)
						}
					}
				}
				for _, x := range scratch[:cap(scratch)] {
					if x != (interval.Interval{}) {
						t.Fatalf("%s: filling vertex %d's scratch reached vertex %d's", c.p.Name(), v, u)
					}
				}
			}
		}
	}
}

// TestBatchSentMessagesStayPut feeds the nodes of one batch interleaved
// receipts and keeps every message they send. The messages live in the
// batch's first-receipt backing and in each node's chunks, which later
// receipts of the same and neighbouring nodes go on filling, so every kept
// message must still have the key it was sent with at the end.
func TestBatchSentMessagesStayPut(t *testing.T) {
	for _, c := range batchProtocols() {
		batch := make([]protocol.Node, len(batchVertices))
		c.p.(protocol.BatchBuilder).NewNodes(batch, batchVertex)
		rng := rand.New(rand.NewSource(29))
		var sent []protocol.Message
		var keys []string
		for i := 0; i < 2000; i++ {
			v := rng.Intn(len(batchVertices))
			m := &gcMsg{alpha: randUnion(rng, 3, 10, 0), beta: randUnion(rng, 3, 10, 0)}
			if i < len(batchVertices) || rng.Intn(4) == 0 {
				m.alpha = interval.FullUnion()
			}
			outs, err := batch[v].Receive(c.wrap(m), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if o != nil {
					sent, keys = append(sent, o), append(keys, o.Key())
				}
			}
		}
		for i, o := range sent {
			if o.Key() != keys[i] {
				t.Fatalf("%s: sent message %d changed after it was sent", c.p.Name(), i)
			}
		}
	}
}
