package protocol

import "reflect"

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
// Two lookup tiers keep the steady state allocation-free:
//
//   - a value memo (map[Message]Symbol) hits when the same message value is
//     transmitted again. Interface-keyed map lookups do not allocate, and
//     most protocols here re-send small comparable message values, so after
//     warm-up an Intern call costs zero heap and one map probe (two when
//     the message's type differs from the previous call's).
//   - the canonical key map (map[string]Symbol) is consulted on a memo miss;
//     only a first-ever sighting of a key allocates (the key string itself).
//
// Only comparable message types reach the memo, so a protocol should keep
// its message types comparable (no slice, map or func fields): values of any
// other type render Key on every call.
//
// Correctness never depends on the memo: distinct message values with equal
// keys unify through the key map, so Key -> Symbol stays injective (the
// property test in internal/core asserts this across every protocol).
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
}

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
// Symbol on first sight. The fast path (value already memoized) performs no
// allocation and never calls m.Key.
func (in *Interner) Intern(m Message) Symbol {
	hashable := in.typeHashable(reflect.TypeOf(m))
	if hashable {
		if s, ok := in.memo[m]; ok {
			return s
		}
	}
	k := m.Key()
	s, ok := in.byKey[k]
	if !ok {
		s = Symbol(len(in.keys))
		in.keys = append(in.keys, k)
		in.byKey[k] = s
	}
	if hashable && len(in.memo) < memoCap {
		in.memo[m] = s
	}
	return s
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
