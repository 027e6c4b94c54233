// Package protocol defines the anonymous-protocol abstraction of Section 2
// of the paper: a protocol is a tuple (Pi, Sigma, pi0, sigma0, f, g, S) of
// state space, message space, initial state, initial message, state function,
// message function, and stopping predicate.
//
// In this implementation the state function f and message function g are
// fused into Node.Receive (they are always evaluated together, on the same
// inputs), and the stopping predicate S is the Done method of the terminal's
// node. A vertex's node is constructed knowing only the vertex's in-degree,
// out-degree and role — never its identity or position — which is exactly the
// information the paper grants an anonymous processor.
package protocol

import "fmt"

// Message is a symbol sigma in the message space Sigma. Implementations are
// immutable values, or pointers to values that are never written once sent:
// a sent message may sit in a queue or on another goroutine for the rest of
// a run, and one message may be sent on several edges.
type Message interface {
	// Bits returns the exact encoded length of the message in bits. All
	// communication metrics (total communication complexity, per-edge
	// bandwidth) are sums of this quantity, matching the paper's cost model.
	Bits() int
	// Key returns a canonical encoding of the message, used to measure the
	// alphabet Sigma_G actually transmitted on a given graph (the quantity
	// bounded from below in Theorem 3.2).
	Key() string
}

// KeyAppender is implemented by messages that can append their Key to a
// caller's buffer: AppendKey(dst) returns dst followed by exactly the bytes
// of Key(). Metering uses it to look a key up without building a string and
// without the Interner's value memo, so a message type that is not
// comparable, or a pointer to a message sent once, should implement it.
type KeyAppender interface {
	AppendKey(dst []byte) []byte
}

// Role distinguishes the three kinds of vertices of the model.
type Role int

// Vertex roles.
const (
	RoleRoot Role = iota + 1
	RoleInternal
	RoleTerminal
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleRoot:
		return "root"
	case RoleInternal:
		return "internal"
	case RoleTerminal:
		return "terminal"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Node is the state pi of one vertex together with its transition behaviour.
// A Node is driven by a single goroutine at a time; it needs no internal
// locking.
type Node interface {
	// Receive processes a message arriving on in-port inPort (f), and returns
	// the messages to transmit (g): outs[j] is sent on out-port j, nil means
	// phi (no message). The returned slice must have length equal to the
	// vertex's out-degree, or be nil when nothing is sent at all.
	//
	// The node owns the returned slice: the caller reads it and never writes
	// it. A node may return storage it keeps, so a slice stays valid only
	// until the node's next Receive; a node that fires at most once returns
	// storage it never reuses.
	Receive(msg Message, inPort int) (outs []Message, err error)
}

// Terminal is the node of the terminal vertex t; its Done method is the
// stopping predicate S and Output is the protocol's output (the state pi with
// S(pi) = 1).
type Terminal interface {
	Node
	// Done reports S(pi) for the current state.
	Done() bool
	// Output returns the protocol output; meaningful once Done is true.
	Output() any
}

// Protocol is a factory for nodes plus the initial message sigma0. The same
// Protocol value may be used for many runs; NewNode must return fresh,
// independent state each call.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// InitialMessage returns sigma0, injected by the run-time on the root's
	// single out-edge.
	InitialMessage() Message
	// NewNode returns the initial state pi0 for a vertex with the given
	// degrees and role. For RoleTerminal the result must implement Terminal.
	NewNode(inDeg, outDeg int, role Role) Node
}

// MultiInitializer is implemented by protocols that support the paper's
// Section 2 extension of a root with several outgoing edges: the unit
// commodity is split across the root's out-ports before injection.
type MultiInitializer interface {
	// InitialMessages returns one message per root out-port (nil entries
	// mean no message on that port). The returned slice must have length
	// rootOutDeg.
	InitialMessages(rootOutDeg int) []Message
}

// BatchBuilder is implemented by protocols that build all of a run's nodes
// in one call, so that per-vertex state can live in a few slabs shared by
// the run instead of one heap object per vertex. Like NewNode it sees no
// graph: the engine describes each vertex by its degrees and role.
// Protocols without it are built one NewNode call per vertex.
type BatchBuilder interface {
	// NewNodes sets nodes[v], for every v in [0, len(nodes)), to a node
	// equivalent to NewNode(vertex(v)): the same messages for the same
	// receipts, and independent of every other node's state. It may call
	// vertex more than once per v.
	NewNodes(nodes []Node, vertex func(v int) (inDeg, outDeg int, role Role))
}

// Compile-time helper: protocols may embed NopNode for roles that never
// receive (the root never has in-edges in this model).
type NopNode struct{}

// Receive implements Node by never producing output.
func (NopNode) Receive(Message, int) ([]Message, error) { return nil, nil }

// Codec serializes messages for transports that move real bytes (the TCP
// runtime). Implementations must round-trip every message the protocol can
// emit: Decode(Encode(m)) behaves identically to m.
type Codec interface {
	// Encode returns the wire bytes and the exact number of significant
	// bits (the final byte may be padding).
	Encode(m Message) (data []byte, bits int, err error)
	// Decode parses the first bits bits of data back into a message.
	Decode(data []byte, bits int) (Message, error)
}

// StateSized is implemented by nodes that can report the size of their
// current state pi in bits. The paper's third quality measure — "the size of
// the state space is related to the amount of memory needed at each vertex"
// — is measured through it. All protocol states in this repository grow
// monotonically, so the final state is the per-run maximum.
type StateSized interface {
	// StateBits returns the encoded size of the current state in bits.
	StateBits() int
}
