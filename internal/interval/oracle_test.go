package interval

import (
	"math/rand"
	"slices"
	"testing"
)

// The set operations are merges with galloping searches and Absorb splices
// in place. The references below build every result only from AddInterval,
// one interval at a time, so they share none of that machinery. Results are
// compared by Key: canonical unions are unique per point set, so equal keys
// mean the same intervals with the same end-point encodings.

func refUnion(a, b Union) Union {
	for _, iv := range b.ivs {
		a = a.AddInterval(iv)
	}
	return a
}

// refIntersect adds every pairwise intersection.
func refIntersect(a, b Union) Union {
	out := EmptyUnion()
	for _, x := range a.ivs {
		for _, y := range b.ivs {
			out = out.AddInterval(Interval{Lo: maxD(x.Lo, y.Lo), Hi: minD(x.Hi, y.Hi)})
		}
	}
	return out
}

// refSubtract intersects a with the gaps of b inside [0, 1).
func refSubtract(a, b Union) Union {
	gaps := EmptyUnion()
	lo := Full().Lo
	for _, y := range b.ivs {
		gaps = gaps.AddInterval(Interval{Lo: lo, Hi: y.Lo})
		lo = y.Hi
	}
	gaps = gaps.AddInterval(Interval{Lo: lo, Hi: Full().Hi})
	return refIntersect(a, gaps)
}

// sparseUnion draws exactly k disjoint, non-adjacent intervals with end
// points on the 2^-bits grid.
func sparseUnion(rng *rand.Rand, k int, bits uint) Union {
	den := uint64(1) << bits
	seen := map[uint64]bool{}
	for len(seen) < 2*k {
		seen[rng.Uint64()%den] = true
	}
	pts := make([]uint64, 0, 2*k)
	for p := range seen {
		pts = append(pts, p)
	}
	slices.Sort(pts)
	u := EmptyUnion()
	for i := 0; i < 2*k; i += 2 {
		u = u.AddInterval(Interval{Lo: d(pts[i], bits), Hi: d(pts[i+1], bits)})
	}
	return u
}

// nearUnion draws 1..maxK intervals whose end points are, half of the time,
// end points of big itself, so the small side touches, straddles and
// exactly matches big's intervals as often as it falls in a gap.
func nearUnion(rng *rand.Rand, big Union, maxK int, bits uint) Union {
	den := uint64(1) << bits
	point := func() Interval {
		if len(big.ivs) > 0 && rng.Intn(2) == 0 {
			iv := big.ivs[rng.Intn(len(big.ivs))]
			return Interval{Lo: iv.Lo, Hi: iv.Hi}
		}
		a, b := rng.Uint64()%den, rng.Uint64()%(den+1)
		return Interval{Lo: d(min(a, b), bits), Hi: d(max(a, b), bits)}
	}
	u := EmptyUnion()
	for k := 1 + rng.Intn(maxK); k > 0; k-- {
		x, y := point(), point()
		lo := x.Lo
		if rng.Intn(2) == 0 {
			lo = x.Hi
		}
		hi := y.Hi
		if rng.Intn(2) == 0 {
			hi = y.Lo
		}
		u = u.AddInterval(Interval{Lo: minD(lo, hi), Hi: maxD(lo, hi)})
	}
	return u
}

// oraclePairs yields operand pairs of every shape the protocols produce:
// similar small sizes, up to 8 intervals each on a coarse grid (so end
// points of the two sides often coincide), and 1-3 intervals against 256 in
// both orders.
func oraclePairs(rng *rand.Rand, n int) [][2]Union {
	var pairs [][2]Union
	for i := 0; i < n; i++ {
		a, b := randUnion(rng, 6, 7), randUnion(rng, 6, 7)
		c, e := sparseUnion(rng, 1+rng.Intn(8), 5), sparseUnion(rng, 1+rng.Intn(8), 5)
		big := sparseUnion(rng, 256, 16)
		small := nearUnion(rng, big, 3, 16)
		pairs = append(pairs, [2]Union{a, b}, [2]Union{c, e}, [2]Union{small, big}, [2]Union{big, small})
	}
	return pairs
}

func checkSame(t *testing.T, op string, a, b, got, want Union) {
	t.Helper()
	if got.Key() != want.Key() {
		t.Fatalf("%s:\n a   = %s\n b   = %s\n got = %s\nwant = %s", op, a, b, got, want)
	}
}

func TestSetOperationsMatchAddIntervalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range oraclePairs(rng, 200) {
		a, b := p[0], p[1]
		checkSame(t, "Union", a, b, a.Union(b), refUnion(a, b))
		checkSame(t, "Intersect", a, b, a.Intersect(b), refIntersect(a, b))
		checkSame(t, "Subtract", a, b, a.Subtract(b), refSubtract(a, b))
		acc := a.Clone()
		acc.Absorb(b)
		checkSame(t, "Absorb", a, b, acc, refUnion(a, b))
	}
}

// TestAbsorbAccumulates grows one accumulator the way the terminal does —
// many small unions into an ever larger one — against AddInterval.
func TestAbsorbAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		var acc Union
		ref := EmptyUnion()
		pool := sparseUnion(rng, 256, 16)
		for step := 0; step < 200; step++ {
			in := nearUnion(rng, pool, 3, 16)
			if step%50 == 49 {
				in = sparseUnion(rng, 64, 16) // a large message takes the merge path
			}
			acc.Absorb(in)
			ref = refUnion(ref, in)
			checkSame(t, "Absorb step", acc, in, acc, ref)
		}
	}
}

// TestAbsorbDoesNotAlias shows that Absorb neither adopts its argument's
// storage (the messages in flight share it) nor lets later writes to the
// accumulator reach the argument, on both of Absorb's paths: the merge (an
// empty accumulator) and the in-place splice (a large one).
func TestAbsorbDoesNotAlias(t *testing.T) {
	clobber := Interval{Lo: d(1, 3), Hi: d(1, 2)}
	for _, big := range []bool{false, true} {
		setup := func() (acc, o Union) {
			rng := rand.New(rand.NewSource(9))
			if big {
				acc = sparseUnion(rng, 16, 12)
				return acc, nearUnion(rng, acc, 2, 12)
			}
			return EmptyUnion(), sparseUnion(rng, 4, 12)
		}

		acc, o := setup()
		acc.Absorb(o)
		want := acc.Key()
		for i := range o.Intervals() {
			o.Intervals()[i] = clobber
		}
		if acc.Key() != want {
			t.Fatalf("big=%v: writing to the argument after Absorb changed the accumulator", big)
		}

		acc, o = setup()
		want = o.Key()
		acc.Absorb(o)
		for i := range acc.Intervals() {
			acc.Intervals()[i] = clobber
		}
		if o.Key() != want {
			t.Fatalf("big=%v: writing to the accumulator after Absorb changed the argument", big)
		}
	}
}

// TestSetOperationResultsOwnStorage shows that writing to the result of
// Union, Intersect, Subtract or Clone never reaches an operand.
func TestSetOperationResultsOwnStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	clobber := Interval{Lo: d(1, 3), Hi: d(1, 2)}
	for _, p := range oraclePairs(rng, 50) {
		a, b := p[0], p[1]
		ka, kb := a.Key(), b.Key()
		for _, r := range []Union{a.Union(b), a.Intersect(b), a.Subtract(b), a.Clone(), b.Union(EmptyUnion())} {
			for i := range r.Intervals() {
				r.Intervals()[i] = clobber
			}
		}
		if a.Key() != ka || b.Key() != kb {
			t.Fatalf("a result shares storage with an operand:\n a = %s\n b = %s", a, b)
		}
	}
}
