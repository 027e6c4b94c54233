package protocol

import (
	"fmt"
	"testing"
)

// keyMsg is a minimal comparable message whose Key is its value.
type keyMsg struct{ k string }

func (m keyMsg) Bits() int   { return 8 * len(m.k) }
func (m keyMsg) Key() string { return m.k }

// sliceMsg is deliberately unhashable (slice field): the interner must fall
// back to the key map instead of panicking on the value memo.
type sliceMsg struct{ b []byte }

func (m sliceMsg) Bits() int   { return 8 * len(m.b) }
func (m sliceMsg) Key() string { return string(m.b) }

// appendMsg is unhashable too, but appends its key: the interner must find
// its symbol through the scratch buffer, never calling Key.
type appendMsg struct{ b []byte }

func (m appendMsg) Bits() int                   { return 8 * len(m.b) }
func (m appendMsg) Key() string                 { panic("Intern called Key on a KeyAppender") }
func (m appendMsg) AppendKey(dst []byte) []byte { return append(dst, m.b...) }

func TestInternerBasics(t *testing.T) {
	in := NewInterner()
	a := in.Intern(keyMsg{"a"})
	b := in.Intern(keyMsg{"b"})
	if a == b {
		t.Fatal("distinct keys share a symbol")
	}
	if got := in.Intern(keyMsg{"a"}); got != a {
		t.Fatalf("re-interning returned %d, want %d", got, a)
	}
	if in.KeyOf(a) != "a" || in.KeyOf(b) != "b" {
		t.Fatal("KeyOf does not round-trip")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	// Symbols are dense and first-seen ordered.
	if a != 0 || b != 1 {
		t.Fatalf("symbols not dense: a=%d b=%d", a, b)
	}
}

// TestInternerUnifiesAcrossTypes pins the hash-consing contract: equal keys
// must unify to one symbol even when they arrive as different dynamic types
// (or as unhashable values the memo cannot cache).
func TestInternerUnifiesAcrossTypes(t *testing.T) {
	in := NewInterner()
	s1 := in.Intern(keyMsg{"xyz"})
	s2 := in.Intern(sliceMsg{[]byte("xyz")})
	if s1 != s2 {
		t.Fatalf("equal keys, distinct symbols: %d vs %d", s1, s2)
	}
	s3 := in.Intern(sliceMsg{[]byte("other")})
	if s3 == s1 {
		t.Fatal("distinct keys share a symbol across types")
	}
}

// TestInternerMemoCapDoesNotBreakInjectivity floods the memo far past its
// cap with distinct values of a tiny key space; the symbol space must stay
// exactly the key space.
func TestInternerMemoCapDoesNotBreakInjectivity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	in := NewInterner()
	for i := 0; i < memoCap+512; i++ {
		m := keyMsg{fmt.Sprint(i % 7)}
		s := in.Intern(m)
		if in.KeyOf(s) != m.k {
			t.Fatalf("iteration %d: symbol %d maps to %q, want %q", i, s, in.KeyOf(s), m.k)
		}
	}
	if in.Len() != 7 {
		t.Fatalf("interned %d symbols for a 7-key space", in.Len())
	}
}

// TestInternSteadyStateZeroAlloc asserts the hot-path contract the metrics
// rework relies on: re-interning an already-seen comparable message value
// performs no heap allocation at all.
func TestInternSteadyStateZeroAlloc(t *testing.T) {
	in := NewInterner()
	msgs := [4]Message{keyMsg{"a"}, keyMsg{"b"}, keyMsg{"c"}, keyMsg{"d"}}
	for _, m := range msgs {
		in.Intern(m)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		in.Intern(msgs[i&3])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern allocates %.1f per call, want 0", allocs)
	}
}

// TestInternKeyAppenderZeroAlloc: a KeyAppender message whose key has been
// seen before is interned without allocating, although it misses the value
// memo.
func TestInternKeyAppenderZeroAlloc(t *testing.T) {
	in := NewInterner()
	msgs := [4]Message{appendMsg{[]byte("alpha")}, appendMsg{[]byte("b")}, appendMsg{[]byte("gamma|delta")}, appendMsg{nil}}
	for _, m := range msgs {
		in.Intern(m)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		in.Intern(msgs[i&3])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern of a KeyAppender allocates %.1f per call, want 0", allocs)
	}
}

// ptrMsg is a pointer message like the interval protocols': comparable, so
// the memo could key on it, but each send is a distinct pointer.
type ptrMsg struct{ b []byte }

func (m *ptrMsg) Bits() int                   { return 8 * len(m.b) }
func (m *ptrMsg) Key() string                 { panic("Intern called Key on a KeyAppender") }
func (m *ptrMsg) AppendKey(dst []byte) []byte { return append(dst, m.b...) }

// TestInternPointerMessagesBypassMemo pins the memo rule for KeyAppender
// messages: they are found by key, never memoized. 10,000 distinct pointers
// over 50 keys intern to exactly 50 symbols, equal keys to equal symbols;
// the memo stays empty, where memoizing by pointer would admit every one;
// and re-interning them allocates nothing.
func TestInternPointerMessagesBypassMemo(t *testing.T) {
	const n, keys = 10000, 50
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = &ptrMsg{[]byte(fmt.Sprintf("key-%d", i%keys))}
	}
	in := NewInterner()
	syms := make([]Symbol, keys)
	for i, m := range msgs {
		s := in.Intern(m)
		if i < keys {
			syms[i] = s
		} else if s != syms[i%keys] {
			t.Fatalf("message %d: symbol %d, want %d as for key %d", i, s, syms[i%keys], i%keys)
		}
	}
	if in.Len() != keys {
		t.Fatalf("%d pointers over %d keys interned %d symbols", n, keys, in.Len())
	}
	if len(in.memo) != 0 {
		t.Fatalf("memo holds %d entries, want 0", len(in.memo))
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		in.Intern(msgs[i%n])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern of a pointer message allocates %.1f per call, want 0", allocs)
	}
}

// FuzzInternRoundTrip is the intern/lookup round-trip fuzz target: for an
// arbitrary pair of byte-string keys, interning must be injective
// (same symbol iff same key), KeyOf must invert Intern, and re-interning
// must be stable — via the hashable fast path, the unhashable fallback and
// the KeyAppender path, which must agree with Key and must not let its
// reused scratch buffer change a stored key.
func FuzzInternRoundTrip(f *testing.F) {
	f.Add("", "x")
	f.Add("a", "a")
	f.Add("2^-3", "2^-4")
	f.Add("\x00\xff", "\x00")
	f.Fuzz(func(t *testing.T, k1, k2 string) {
		in := NewInterner()
		s1 := in.Intern(keyMsg{k1})
		s2 := in.Intern(sliceMsg{[]byte(k2)})
		if (s1 == s2) != (k1 == k2) {
			t.Fatalf("injectivity broken: keys %q,%q -> symbols %d,%d", k1, k2, s1, s2)
		}
		if in.KeyOf(s1) != k1 || in.KeyOf(s2) != k2 {
			t.Fatalf("KeyOf does not invert Intern for %q,%q", k1, k2)
		}
		// Stability under re-interning, swapping the representations.
		if in.Intern(sliceMsg{[]byte(k1)}) != s1 || in.Intern(keyMsg{k2}) != s2 {
			t.Fatalf("re-interning unstable for %q,%q", k1, k2)
		}
		if k1 == k2 && in.Len() != 1 {
			t.Fatalf("equal keys produced %d symbols", in.Len())
		}
		if k1 != k2 && in.Len() != 2 {
			t.Fatalf("distinct keys produced %d symbols", in.Len())
		}
		// The AppendKey path finds the symbols the Key path assigned.
		if in.Intern(appendMsg{[]byte(k1)}) != s1 || in.Intern(appendMsg{[]byte(k2)}) != s2 {
			t.Fatalf("AppendKey and Key paths disagree for %q,%q", k1, k2)
		}
		// A table filled through the scratch buffer: the second key is
		// appended over the first one's bytes, which must already be copied.
		ap := NewInterner()
		a1 := ap.Intern(appendMsg{[]byte(k1)})
		a2 := ap.Intern(appendMsg{[]byte(k2)})
		if (a1 == a2) != (k1 == k2) || ap.KeyOf(a1) != k1 || ap.KeyOf(a2) != k2 {
			t.Fatalf("KeyAppender interning of %q,%q: symbols %d,%d keys %q,%q", k1, k2, a1, a2, ap.KeyOf(a1), ap.KeyOf(a2))
		}
		if ap.Intern(keyMsg{k1}) != a1 || ap.Intern(sliceMsg{[]byte(k2)}) != a2 {
			t.Fatalf("Key path disagrees with a table filled by AppendKey for %q,%q", k1, k2)
		}
	})
}

// TestInternerKeyArena interns N distinct KeyAppender keys. Their bytes go
// into the interner's chunked arena, so the table allocates about
// N·len/arenaChunk chunks plus its map's and key slice's growth, not one
// string per key; and every key stays intact as later keys fill the arena
// behind it. A string per key would cost N allocations.
func TestInternerKeyArena(t *testing.T) {
	const n, keyLen = 8192, 16
	// The messages are boxed once here, so that interning them does not.
	keys := make([]Message, n)
	for i := range keys {
		keys[i] = appendMsg{[]byte(fmt.Sprintf("%0*d", keyLen, i))}
	}
	// A key longer than a quarter chunk gets a string of its own.
	long := Message(appendMsg{make([]byte, arenaChunk/4+1)})
	var in *Interner
	allocs := testing.AllocsPerRun(3, func() {
		in = NewInterner()
		for _, k := range keys {
			in.Intern(k)
		}
		in.Intern(long)
	})
	chunks := n * keyLen / arenaChunk
	t.Logf("%d keys of %d bytes: %.0f allocations, %d of them arena chunks", n, keyLen, allocs, chunks)
	if allocs > n/32 {
		t.Fatalf("interning %d distinct keys allocates %.0f times, want <= %d", n, allocs, n/32)
	}
	for i, k := range keys {
		if got, want := in.KeyOf(Symbol(i)), string(k.(appendMsg).b); got != want {
			t.Fatalf("key %d reads %q, want %q", i, got, want)
		}
	}
	if in.KeyOf(Symbol(n)) != string(long.(appendMsg).b) {
		t.Fatal("the long key does not round-trip")
	}
}
