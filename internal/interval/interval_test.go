package interval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/dyadic"
)

func d(num uint64, p uint) dyadic.D { return dyadic.FromFrac(num, p) }

func iv(loNum uint64, loP uint, hiNum uint64, hiP uint) Interval {
	return Interval{Lo: d(loNum, loP), Hi: d(hiNum, hiP)}
}

// randUnion draws a random canonical union from up to n intervals whose end
// points are multiples of 2^-bits.
func randUnion(rng *rand.Rand, n int, bits uint) Union {
	u := EmptyUnion()
	den := uint64(1) << bits
	for i := 0; i < rng.Intn(n+1); i++ {
		a := rng.Uint64() % den
		b := rng.Uint64() % (den + 1)
		if a > b {
			a, b = b, a
		}
		u = u.AddInterval(Interval{Lo: d(a, bits), Hi: d(b, bits)})
	}
	return u
}

func TestIntervalBasics(t *testing.T) {
	if !Empty().IsEmpty() {
		t.Fatal("Empty not empty")
	}
	full := Full()
	if full.IsEmpty() || !full.Measure().IsOne() {
		t.Fatal("Full broken")
	}
	half := iv(0, 0, 1, 1) // [0, 1/2)
	if !half.Contains(d(1, 2)) {
		t.Fatal("1/4 should be in [0,1/2)")
	}
	if half.Contains(d(1, 1)) {
		t.Fatal("1/2 should not be in [0,1/2) (half-open)")
	}
	if !half.Measure().Equal(d(1, 1)) {
		t.Fatal("measure of [0,1/2) != 1/2")
	}
}

func TestSplitPartitions(t *testing.T) {
	for k := 1; k <= 9; k++ {
		parts := Full().appendSplit(nil, k)
		if len(parts) != k {
			t.Fatalf("Split(%d) returned %d parts", k, len(parts))
		}
		// Consecutive, covering, non-empty.
		if !parts[0].Lo.IsZero() {
			t.Fatalf("Split(%d) first part starts at %s", k, parts[0].Lo)
		}
		for i := 0; i < k; i++ {
			if parts[i].IsEmpty() {
				t.Fatalf("Split(%d) part %d empty: %s", k, i, parts[i])
			}
			if i > 0 && !parts[i].Lo.Equal(parts[i-1].Hi) {
				t.Fatalf("Split(%d) gap between parts %d and %d", k, i-1, i)
			}
		}
		if !parts[k-1].Hi.IsOne() {
			t.Fatalf("Split(%d) last part ends at %s", k, parts[k-1].Hi)
		}
	}
}

func TestSplitEndpointGrowth(t *testing.T) {
	// Theorem 4.3: each split adds only O(log k) bits to end points.
	in := iv(1, 2, 3, 2)            // [1/4, 3/4), endpoints have 2 fraction bits
	parts := in.appendSplit(nil, 5) // N = 8, delta = (1/2)/8 = 2^-4
	for _, p := range parts {
		if p.Lo.Prec() > 5 || p.Hi.Prec() > 5 {
			t.Fatalf("Split(5) endpoint precision too large: %s", p)
		}
	}
}

func TestAddIntervalMerging(t *testing.T) {
	u := NewUnion(iv(0, 0, 1, 2), iv(1, 2, 1, 1)) // [0,1/4) + [1/4,1/2) must merge
	if u.NumIntervals() != 1 {
		t.Fatalf("adjacent intervals did not merge: %s", u)
	}
	if !u.Equal(NewUnion(iv(0, 0, 1, 1))) {
		t.Fatalf("merge produced %s", u)
	}
	u2 := NewUnion(iv(0, 0, 1, 2), iv(1, 1, 3, 2)) // disjoint, gap at [1/4,1/2)
	if u2.NumIntervals() != 2 {
		t.Fatalf("disjoint intervals merged: %s", u2)
	}
}

func TestUnionIsFull(t *testing.T) {
	parts := Full().appendSplit(nil, 7)
	u := EmptyUnion()
	order := []int{3, 0, 6, 1, 5, 2, 4}
	for _, i := range order {
		if u.IsFull() {
			t.Fatal("IsFull before all parts added")
		}
		u = u.AddInterval(parts[i])
	}
	if !u.IsFull() {
		t.Fatalf("union of all parts not full: %s", u)
	}
}

func TestIntersectSubtractKnown(t *testing.T) {
	a := NewUnion(iv(0, 0, 1, 1)) // [0, 1/2)
	b := NewUnion(iv(1, 2, 3, 2)) // [1/4, 3/4)
	got := a.Intersect(b)         // [1/4, 1/2)
	want := NewUnion(iv(1, 2, 1, 1))
	if !got.Equal(want) {
		t.Fatalf("Intersect = %s, want %s", got, want)
	}
	got = a.Subtract(b) // [0, 1/4)
	want = NewUnion(iv(0, 0, 1, 2))
	if !got.Equal(want) {
		t.Fatalf("Subtract = %s, want %s", got, want)
	}
	got = b.Subtract(a) // [1/2, 3/4)
	want = NewUnion(iv(1, 1, 3, 2))
	if !got.Equal(want) {
		t.Fatalf("Subtract = %s, want %s", got, want)
	}
}

func TestContainsUnion(t *testing.T) {
	a := NewUnion(iv(0, 0, 1, 1), iv(3, 2, 1, 0)) // [0,1/2) ∪ [3/4,1)
	sub := NewUnion(iv(1, 3, 1, 2))               // [1/8,1/4)
	if !a.ContainsUnion(sub) {
		t.Fatal("ContainsUnion false negative")
	}
	if a.ContainsUnion(FullUnion()) {
		t.Fatal("ContainsUnion false positive")
	}
	if !a.ContainsUnion(EmptyUnion()) {
		t.Fatal("every union contains the empty union")
	}
}

func TestCanonicalPartitionMultiInterval(t *testing.T) {
	// u = [0,1/4) ∪ [1/2,5/8) ∪ [3/4,1): r = 3 intervals, d = 4 parts.
	u := NewUnion(iv(0, 0, 1, 2), iv(1, 1, 5, 3), iv(3, 2, 1, 0))
	parts := u.CanonicalPartition(4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	// Paper rule: first d-1 = 3 parts split I_1 = [0,1/4); last part is rest.
	for i := 0; i < 3; i++ {
		if !u.Intervals()[0].Lo.Equal(d(0, 0)) {
			t.Fatal("setup broken")
		}
		if parts[i].IsEmpty() {
			t.Fatalf("part %d empty", i)
		}
		if !NewUnion(iv(0, 0, 1, 2)).ContainsUnion(parts[i]) {
			t.Fatalf("part %d = %s escapes I_1", i, parts[i])
		}
	}
	wantLast := NewUnion(iv(1, 1, 5, 3), iv(3, 2, 1, 0))
	if !parts[3].Equal(wantLast) {
		t.Fatalf("last part = %s, want %s", parts[3], wantLast)
	}
	checkPartition(t, u, parts)
}

func TestCanonicalPartitionSingleInterval(t *testing.T) {
	// r == 1: the substitution in docs/ARCHITECTURE.md's faithfulness notes —
	// split into d non-empty parts.
	u := FullUnion()
	parts := u.CanonicalPartition(3)
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	for i, p := range parts {
		if p.IsEmpty() {
			t.Fatalf("part %d empty; the r==1 rule must produce non-empty parts", i)
		}
	}
	checkPartition(t, u, parts)
}

func checkPartition(t *testing.T, u Union, parts []Union) {
	t.Helper()
	whole := EmptyUnion()
	for i, p := range parts {
		for j := i + 1; j < len(parts); j++ {
			if !p.Intersect(parts[j]).IsEmpty() {
				t.Fatalf("parts %d and %d overlap: %s ∩ %s", i, j, p, parts[j])
			}
		}
		whole = whole.Union(p)
	}
	if !whole.Equal(u) {
		t.Fatalf("parts do not reassemble: got %s, want %s", whole, u)
	}
}

func TestEncodeDecodeUnion(t *testing.T) {
	u := NewUnion(iv(0, 0, 1, 2), iv(1, 1, 5, 3), iv(3, 2, 1, 0))
	var w bitio.Writer
	u.Encode(&w)
	if w.Len() != u.EncodedBits() {
		t.Fatalf("EncodedBits = %d but wrote %d", u.EncodedBits(), w.Len())
	}
	got, err := DecodeUnion(bitio.NewReader(w.Bytes(), w.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(u) {
		t.Fatalf("round trip %s -> %s", u, got)
	}
}

func TestQuickUnionAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randUnion(rng, 5, 7), randUnion(rng, 5, 7)
		// a = (a\b) ∪ (a∩b), disjointly.
		diff, inter := a.Subtract(b), a.Intersect(b)
		if !diff.Intersect(inter).IsEmpty() {
			return false
		}
		if !diff.Union(inter).Equal(a) {
			return false
		}
		// De Morgan-ish: (a∪b) \ b == a \ b.
		if !a.Union(b).Subtract(b).Equal(a.Subtract(b)) {
			return false
		}
		// Commutativity.
		return a.Union(b).Equal(b.Union(a)) && a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMeasureAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randUnion(rng, 4, 6), randUnion(rng, 4, 6)
		// |a| + |b| = |a∪b| + |a∩b|.
		lhs := a.Measure().Add(b.Measure())
		rhs := a.Union(b).Measure().Add(a.Intersect(b).Measure())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCanonicalPartition(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randUnion(rng, 4, 6)
		if u.IsEmpty() {
			return true
		}
		dd := int(dRaw%6) + 1
		parts := u.CanonicalPartition(dd)
		if len(parts) != dd {
			return false
		}
		whole := EmptyUnion()
		for i, p := range parts {
			for j := i + 1; j < len(parts); j++ {
				if !p.Intersect(parts[j]).IsEmpty() {
					return false
				}
			}
			whole = whole.Union(p)
		}
		return whole.Equal(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randUnion(rng, 6, 8)
		var w bitio.Writer
		u.Encode(&w)
		got, err := DecodeUnion(bitio.NewReader(w.Bytes(), w.Len()))
		return err == nil && got.Equal(u) && w.Len() == u.EncodedBits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickContainsPointConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randUnion(rng, 4, 5), randUnion(rng, 4, 5)
		// Sample dyadic points on a fine grid and cross-check set algebra
		// against pointwise membership.
		for num := uint64(0); num < 64; num++ {
			x := dyadic.FromFrac(num, 6)
			inA, inB := a.Contains(x), b.Contains(x)
			if a.Union(b).Contains(x) != (inA || inB) {
				return false
			}
			if a.Intersect(b).Contains(x) != (inA && inB) {
				return false
			}
			if a.Subtract(b).Contains(x) != (inA && !inB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxEndpointPrec(t *testing.T) {
	u := NewUnion(iv(1, 3, 1, 1)) // [1/8, 1/2)
	if got := u.MaxEndpointPrec(); got != 3 {
		t.Fatalf("MaxEndpointPrec = %d, want 3", got)
	}
	if EmptyUnion().MaxEndpointPrec() != 0 {
		t.Fatal("empty union should have prec 0")
	}
}

// TestFixed checks the fixed-point form at its edges: an interval that
// reaches 1 stores the last unit below it, and an empty interval or one
// with an end point past 64 fraction bits has no form.
func TestFixed(t *testing.T) {
	const max = ^uint64(0)
	for _, c := range []struct {
		iv   Interval
		want Fixed
		ok   bool
	}{
		{Full(), Fixed{0, max}, true},
		{iv(1, 1, 1, 0), Fixed{1 << 63, max}, true},
		{iv(1, 2, 1, 1), Fixed{1 << 62, 1<<63 - 1}, true},
		{iv(1, 64, 2, 64), Fixed{1, 1}, true},
		{iv(1, 65, 1, 1), Fixed{}, false},
		{iv(0, 0, 3, 65), Fixed{}, false},
		{iv(1, 1, 1, 1), Fixed{}, false},
		{Empty(), Fixed{}, false},
	} {
		if got, ok := c.iv.Fixed(); got != c.want || ok != c.ok {
			t.Errorf("%s.Fixed() = %+v, %v; want %+v, %v", c.iv, got, ok, c.want, c.ok)
		}
	}
	// AppendFixed inverts it, coalescing what touches.
	_, u := AppendFixed(nil, []Fixed{{1 << 63, max}, {0, 1<<62 - 1}, {1 << 62, 1<<63 - 1}})
	if !u.IsFull() {
		t.Errorf("AppendFixed of a half and two quarters = %s, want [0, 1)", u)
	}
}

// TestAppendFixedMatchesNewUnion checks AppendFixed against NewUnion on
// shuffled intervals, from a few (sorted in place) to hundreds (radix
// sorted), with end points of 1 to 64 fraction bits so that the radix sort
// both makes and skips passes.
func TestAppendFixedMatchesNewUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		p := uint(1 + rng.Intn(64))
		ivs := make([]Interval, n)
		fs := make([]Fixed, n)
		for i := range ivs {
			a, b := rng.Uint64()>>(64-p), rng.Uint64()>>(64-p)
			if a == b {
				b++
			}
			ivs[i] = Interval{Lo: d(min(a, b), p), Hi: d(max(a, b), p)}
			fs[i], _ = ivs[i].Fixed()
		}
		if _, got := AppendFixed(nil, fs); !got.Equal(NewUnion(ivs...)) {
			t.Fatalf("trial %d (%d intervals, %d bits): AppendFixed %s, NewUnion %s", trial, n, p, got, NewUnion(ivs...))
		}
	}
}
