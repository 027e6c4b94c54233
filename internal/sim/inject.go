package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// InitialMessages returns sigma0 per root out-port. Roots with a single
// out-edge use Protocol.InitialMessage; wider roots (the Section 2
// extension) need the protocol to implement protocol.MultiInitializer so the
// unit commodity is split across the ports. Exported for the engines outside
// this package (internal/sim/shard, internal/netrun), which inject on their
// own.
func InitialMessages(g *graph.G, p protocol.Protocol) ([]protocol.Message, error) {
	d := g.OutDegree(g.Root())
	if d == 1 {
		return []protocol.Message{p.InitialMessage()}, nil
	}
	mi, ok := p.(protocol.MultiInitializer)
	if !ok {
		return nil, fmt.Errorf("sim: root has out-degree %d but protocol %q does not implement MultiInitializer", d, p.Name())
	}
	msgs := mi.InitialMessages(d)
	if len(msgs) != d {
		return nil, fmt.Errorf("sim: protocol %q returned %d initial messages for root out-degree %d", p.Name(), len(msgs), d)
	}
	return msgs, nil
}

// BuildNodes returns the initial node of every vertex of g, each built by p
// for the vertex's degrees and the role g gives it, and the terminal's node.
// A protocol that implements protocol.BatchBuilder builds them in one call;
// any other gets one NewNode call per vertex. Every engine builds its nodes
// here.
func BuildNodes(g *graph.G, p protocol.Protocol) ([]protocol.Node, protocol.Terminal, error) {
	nodes := make([]protocol.Node, g.NumVertices())
	vertex := func(v int) (int, int, protocol.Role) {
		id := graph.VertexID(v)
		role := protocol.RoleInternal
		switch id {
		case g.Root():
			role = protocol.RoleRoot
		case g.Terminal():
			role = protocol.RoleTerminal
		}
		return g.InDegree(id), g.OutDegree(id), role
	}
	if b, ok := p.(protocol.BatchBuilder); ok {
		b.NewNodes(nodes, vertex)
	} else {
		for v := range nodes {
			nodes[v] = p.NewNode(vertex(v))
		}
	}
	term, ok := nodes[g.Terminal()].(protocol.Terminal)
	if !ok {
		return nil, nil, fmt.Errorf("sim: protocol %q terminal node does not implement Terminal", p.Name())
	}
	return nodes, term, nil
}
