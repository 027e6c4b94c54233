package protocol

import (
	"reflect"
	"unsafe"
)

// Symbol is a dense interned identifier for one element of the transmitted
// alphabet Sigma_G: two messages receive the same Symbol iff their canonical
// encodings (Message.Key) are equal. Symbols are assigned 0,1,2,... in first-
// transmission order, so they index slices directly — the simulators count
// per-symbol statistics in flat arrays instead of string-keyed maps on the
// delivery hot path.
type Symbol uint32

// Interner hash-conses messages into Symbols. It is the measurement-boundary
// owner of Message.Key: the hot path asks only "which symbol is this?", and
// the string encodings are materialized once, when results are reported.
//
// Two lookup paths keep the steady state allocation-free:
//
//   - a KeyAppender's key is appended into a scratch buffer the Interner
//     reuses and probed in the canonical key map (map[string]Symbol)
//     without allocating; only a first-ever sighting of a key stores it,
//     copied into a chunked byte arena, so N first-seen keys cost about
//     N·len/arenaChunk allocations rather than N.
//   - any other message goes through a value memo (map[Message]Symbol),
//     which hits when the same message value is transmitted again.
//     Interface-keyed map lookups do not allocate, and the tree and DAG
//     protocols re-send small comparable message values, so after warm-up
//     an Intern call costs zero heap and one map probe (two when the
//     message's type differs from the previous call's). On a memo miss the
//     key map is consulted with Key.
//
// A KeyAppender never enters the memo. Such messages are pointers to
// immutable values a node sends once each (the interval protocols'), or
// values that are not comparable; the memo compares pointers by identity,
// so it would admit one entry per send and seldom hit, while its keys are
// already found without allocating. A protocol whose messages are neither
// should keep its message types comparable (no slice, map or func fields);
// a non-comparable type that does not implement KeyAppender renders Key on
// every call.
//
// Correctness never depends on the memo: distinct messages with equal keys
// unify through the key map, so Key -> Symbol stays injective (the property
// test in internal/core asserts this across every protocol).
//
// An Interner is not safe for concurrent use; engines whose events originate
// on many goroutines already serialize metering (see chansim's metricsMu).
type Interner struct {
	byKey map[string]Symbol
	keys  []string
	memo  map[Message]Symbol
	// hashable caches, per dynamic message type, whether values of that type
	// may be used as map keys at all (a slice-carrying message would panic).
	hashable map[reflect.Type]bool
	// lastType and lastHashable repeat the most recent hashable lookup, so a
	// stream of one message type skips the type probe.
	lastType     reflect.Type
	lastHashable bool
	// scratch receives KeyAppender keys; it is reused across calls, and a
	// key is copied out of it only when it is seen for the first time.
	scratch []byte
	// arena is the current chunk that first-seen KeyAppender keys are
	// copied into. The stored keys alias it; bytes below its length are
	// never written again.
	arena []byte
}

// arenaChunk is the size of one key arena chunk. A key longer than a
// quarter chunk gets a string of its own, so a chunk wastes at most a
// quarter of itself when the next key does not fit.
const arenaChunk = 4096

// memoCap bounds the value memo. Protocols that allocate a fresh pointer per
// message (e.g. big.Rat-backed symbols) would otherwise grow the memo with
// every transmission even though the key space is small; past the cap the
// memo keeps serving hits but stops admitting new values, degrading to the
// key-map path instead of degrading memory.
const memoCap = 1 << 16

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{
		byKey:    make(map[string]Symbol),
		memo:     make(map[Message]Symbol),
		hashable: make(map[reflect.Type]bool),
	}
}

// Intern returns the Symbol of m's canonical key, assigning the next dense
// Symbol on first sight. The fast paths (a KeyAppender whose key is already
// known, or a value already memoized) perform no allocation, and neither
// calls m.Key.
func (in *Interner) Intern(m Message) Symbol {
	if ka, ok := m.(KeyAppender); ok {
		in.scratch = ka.AppendKey(in.scratch[:0])
		// A map index by string(bytes) does not allocate.
		s, ok := in.byKey[string(in.scratch)]
		if !ok {
			s = in.add(in.save(in.scratch))
		}
		return s
	}
	hashable := in.typeHashable(reflect.TypeOf(m))
	if hashable {
		if s, ok := in.memo[m]; ok {
			return s
		}
	}
	k := m.Key()
	s, ok := in.byKey[k]
	if !ok {
		s = in.add(k)
	}
	if hashable && len(in.memo) < memoCap {
		in.memo[m] = s
	}
	return s
}

// add assigns the next Symbol to key k, which the table has not seen.
func (in *Interner) add(k string) Symbol {
	s := Symbol(len(in.keys))
	in.keys = append(in.keys, k)
	in.byKey[k] = s
	return s
}

// save returns a string holding the bytes of b, which the caller goes on
// reusing: a copy in the arena, or a string of its own for a long key.
func (in *Interner) save(b []byte) string {
	if len(b) > arenaChunk/4 {
		return string(b)
	}
	if cap(in.arena)-len(in.arena) < len(b) {
		in.arena = make([]byte, 0, arenaChunk)
	}
	start := len(in.arena)
	in.arena = append(in.arena, b...)
	// The saved bytes are never written again, so the string may alias them.
	return unsafe.String(unsafe.SliceData(in.arena[start:]), len(b))
}

// typeHashable reports whether values of dynamic type t are comparable.
func (in *Interner) typeHashable(t reflect.Type) bool {
	if t == in.lastType {
		return in.lastHashable
	}
	hashable, known := in.hashable[t]
	if !known {
		hashable = t.Comparable()
		in.hashable[t] = hashable
	}
	in.lastType, in.lastHashable = t, hashable
	return hashable
}

// KeyOf returns the canonical key interned as s. It panics on a Symbol this
// table never issued, exactly like an out-of-range slice index.
func (in *Interner) KeyOf(s Symbol) string { return in.keys[s] }

// Len returns the number of distinct symbols interned so far — |Sigma_G| of
// the traffic seen by this table.
func (in *Interner) Len() int { return len(in.keys) }
