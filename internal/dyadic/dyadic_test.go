package dyadic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/bitio"
)

// randD draws a random dyadic in [0, 1] with up to maxPrec fraction bits.
func randD(rng *rand.Rand, maxPrec uint) D {
	p := uint(rng.Intn(int(maxPrec))) + 1
	nl := (int(p) + 63) / 64
	limbs := make([]uint64, nl)
	for i := range limbs {
		limbs[i] = rng.Uint64()
	}
	// Mask above p bits so value < 1.
	top := p % 64
	if top != 0 {
		limbs[nl-1] &= (1 << top) - 1
	}
	return normalize(limbs, p)
}

func TestBasicConstructors(t *testing.T) {
	if !Zero().IsZero() {
		t.Fatal("Zero not zero")
	}
	if !One().IsOne() {
		t.Fatal("One not one")
	}
	if got := Pow2(3).String(); got != "0.001" {
		t.Fatalf("Pow2(3) = %s, want 0.001", got)
	}
	if got := FromFrac(6, 3).String(); got != "0.11" { // 6/8 = 3/4
		t.Fatalf("FromFrac(6,3) = %s, want 0.11", got)
	}
	if got := FromUint(5).String(); got != "5" {
		t.Fatalf("FromUint(5) = %s, want 5", got)
	}
}

func TestNormalization(t *testing.T) {
	a := FromFrac(4, 4) // 4/16 = 1/4
	b := Pow2(2)
	if !a.Equal(b) {
		t.Fatalf("4/16 != 1/4: %s vs %s", a, b)
	}
	if a.Prec() != 2 {
		t.Fatalf("Prec(1/4) = %d, want 2", a.Prec())
	}
	if FromFrac(0, 17).Prec() != 0 {
		t.Fatal("zero should normalize to prec 0")
	}
}

func TestAddSubKnown(t *testing.T) {
	half := Pow2(1)
	quarter := Pow2(2)
	sum := half.Add(quarter) // 3/4
	if got := sum.String(); got != "0.11" {
		t.Fatalf("1/2+1/4 = %s, want 0.11", got)
	}
	if !sum.Add(quarter).IsOne() {
		t.Fatal("3/4 + 1/4 != 1")
	}
	if !sum.Sub(half).Equal(quarter) {
		t.Fatal("3/4 - 1/2 != 1/4")
	}
	if !One().Sub(One()).IsZero() {
		t.Fatal("1 - 1 != 0")
	}
}

func TestSubNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub under-flow did not panic")
		}
	}()
	Pow2(2).Sub(Pow2(1))
}

func TestCmpOrdering(t *testing.T) {
	vals := []D{Zero(), Pow2(10), Pow2(3), FromFrac(3, 3), Pow2(1), FromFrac(7, 3), One()}
	// Expected ascending: 0 < 1/1024 < 1/8 < 3/8 < 1/2 < 7/8 < 1.
	for i := range vals {
		for j := range vals {
			got := vals[i].Cmp(vals[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Fatalf("Cmp(%s,%s) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestMulUint(t *testing.T) {
	d := Pow2(3)                                     // 1/8
	if got := d.MulUint(6).String(); got != "0.11" { // 6/8 = 3/4
		t.Fatalf("6 * 1/8 = %s, want 0.11", got)
	}
	if !d.MulUint(8).IsOne() {
		t.Fatal("8 * 1/8 != 1")
	}
	if !d.MulUint(0).IsZero() {
		t.Fatal("0 * d != 0")
	}
}

func TestMul(t *testing.T) {
	a := FromFrac(3, 2)                           // 3/4
	b := FromFrac(1, 1)                           // 1/2
	if got := a.Mul(b).String(); got != "0.011" { // 3/8
		t.Fatalf("3/4 * 1/2 = %s, want 0.011", got)
	}
	if !a.Mul(One()).Equal(a) {
		t.Fatal("a * 1 != a")
	}
	if !a.Mul(Zero()).IsZero() {
		t.Fatal("a * 0 != 0")
	}
}

func TestShrHalf(t *testing.T) {
	if !One().Half().Equal(Pow2(1)) {
		t.Fatal("1/2 mismatch")
	}
	if !One().Shr(64).Equal(Pow2(64)) {
		t.Fatal("2^-64 mismatch")
	}
	// Cross-limb precision.
	d := Pow2(130)
	if !d.Add(d).Equal(Pow2(129)) {
		t.Fatal("2^-130 + 2^-130 != 2^-129")
	}
}

// TestFrac64 checks the fixed-point form on known values and, over random
// values of up to 130 fraction bits, that it exists exactly for those of at
// most 64 and that FromFrac(x, 64) gives the value back.
func TestFrac64(t *testing.T) {
	for _, c := range []struct {
		d  D
		x  uint64
		ok bool
	}{
		{Zero(), 0, true},
		{Pow2(1), 1 << 63, true},
		{FromFrac(3, 64), 3, true},
		{Pow2(64), 1, true},
		{Pow2(65), 0, false},
		{One(), 0, false},
		{FromUint(3).Shr(1), 0, false},
	} {
		if x, ok := c.d.Frac64(); x != c.x || ok != c.ok {
			t.Errorf("%s.Frac64() = %d, %v; want %d, %v", c.d, x, ok, c.x, c.ok)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		d := randD(rng, 130)
		x, ok := d.Frac64()
		if ok != (d.Prec() <= 64) {
			t.Fatalf("%s (%d fraction bits): Frac64 ok = %v", d, d.Prec(), ok)
		}
		if ok && !FromFrac(x, 64).Equal(d) {
			t.Fatalf("FromFrac(%s.Frac64(), 64) = %s", d, FromFrac(x, 64))
		}
	}
}

func TestFracBit(t *testing.T) {
	d := FromFrac(5, 3) // 0.101
	want := []uint{1, 0, 1, 0, 0}
	for i, wb := range want {
		if got := d.FracBit(uint(i + 1)); got != wb {
			t.Fatalf("FracBit(%d) = %d, want %d", i+1, got, wb)
		}
	}
}

func TestEncodeDecodeKnown(t *testing.T) {
	for _, d := range []D{Zero(), One(), Pow2(1), Pow2(64), FromFrac(5, 3), FromFrac(12345, 20)} {
		var w bitio.Writer
		d.Encode(&w)
		if w.Len() != d.EncodedBits() {
			t.Fatalf("EncodedBits(%s) = %d but wrote %d", d, d.EncodedBits(), w.Len())
		}
		got, err := Decode(bitio.NewReader(w.Bytes(), w.Len()))
		if err != nil {
			t.Fatalf("Decode(%s): %v", d, err)
		}
		if !got.Equal(d) {
			t.Fatalf("round trip %s -> %s", d, got)
		}
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randD(rng, 200), randD(rng, 200)
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddCommutativeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randD(rng, 150), randD(rng, 150), randD(rng, 150)
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrderingConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randD(rng, 150), randD(rng, 150)
		switch a.Cmp(b) {
		case -1:
			return b.Cmp(a) == 1 && a.Less(b) && !a.Equal(b)
		case 0:
			return b.Cmp(a) == 0 && a.Equal(b) && !a.Less(b)
		case 1:
			return b.Cmp(a) == -1 && !a.Less(b) && !a.Equal(b)
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randD(rng, 300)
		var w bitio.Writer
		d.Encode(&w)
		got, err := Decode(bitio.NewReader(w.Bytes(), w.Len()))
		return err == nil && got.Equal(d) && w.Len() == d.EncodedBits()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeMatchesFracBits pins Encode's limb-at-a-time digits to the
// digit-at-a-time spelling through FracBit, across limb boundaries.
func TestEncodeMatchesFracBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := []D{Zero(), One(), Pow2(1), Pow2(63), Pow2(64), Pow2(65), Pow2(128), Pow2(129)}
	for i := 0; i < 2000; i++ {
		ds = append(ds, randD(rng, 300))
	}
	for _, d := range ds {
		var got, want bitio.Writer
		d.Encode(&got)
		if d.IsOne() {
			want.WriteBit(1)
		} else {
			want.WriteBit(0)
			want.WriteDelta0(uint64(d.Prec()))
			for i := uint(1); i <= d.Prec(); i++ {
				want.WriteBit(d.FracBit(i))
			}
		}
		if got.Len() != want.Len() || !slices.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Encode(%s) = %x (%d bits), digit by digit %x (%d bits)",
				d, got.Bytes(), got.Len(), want.Bytes(), want.Len())
		}
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randD(rng, 100), randD(rng, 100)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulUintIsRepeatedAdd(t *testing.T) {
	f := func(seed int64, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randD(rng, 100)
		c := uint64(cRaw % 17)
		sum := Zero()
		for i := uint64(0); i < c; i++ {
			sum = sum.Add(d)
		}
		return d.MulUint(c).Equal(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randD(rng, 200), randD(rng, 300)
		// Add and Sub reduce their results in place; normalizing any value
		// again must change nothing.
		for _, d := range []D{a, a.Add(b), a.Add(b).Sub(a)} {
			n := normalize(append([]uint64(nil), d.limbs()...), d.Prec())
			if !n.Equal(d) || n.prec != d.prec || !slices.Equal(n.limbs(), d.limbs()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPow2SumGeometric(t *testing.T) {
	// 1/2 + 1/4 + ... + 2^-k + 2^-k == 1.
	sum := Zero()
	const k = 80
	for i := uint(1); i <= k; i++ {
		sum = sum.Add(Pow2(i))
	}
	sum = sum.Add(Pow2(k))
	if !sum.IsOne() {
		t.Fatalf("geometric sum = %s, want 1", sum)
	}
}

func TestNormalizeStripsAfterShift(t *testing.T) {
	// Regression (found by fuzzing): a value whose reduction shifts by a
	// whole word used to keep a zero high limb, making Key non-canonical.
	// prec 130 with the low 64 fraction bits all zero reduces to prec 66.
	limbs := []uint64{0, 0x8181818181818181, 0x1} // value * 2^-130
	d := normalize(limbs, 130)
	if d.Prec() != 66 {
		t.Fatalf("prec = %d, want 66", d.Prec())
	}
	var w bitio.Writer
	d.Encode(&w)
	d2, err := Decode(bitio.NewReader(w.Bytes(), w.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Key() != d2.Key() {
		t.Fatalf("Key not canonical after word-aligned reduction:\n%q\n%q", d.Key(), d2.Key())
	}
	if !d.Equal(d2) {
		t.Fatal("value changed")
	}
}

// refCmp is the shift-then-compare definition of Cmp: both numerators are
// materialized at the common precision and compared limb by limb. Cmp must
// agree with it on every pair, including representations with redundant
// high zero limbs.
func refCmp(d, o D) int {
	p := max(d.Prec(), o.Prec())
	a, b := refShl(d.limbs(), p-d.Prec()), refShl(o.limbs(), p-o.Prec())
	an, bn := len(stripHigh(a)), len(stripHigh(b))
	if an != bn {
		if an < bn {
			return -1
		}
		return 1
	}
	for i := an - 1; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func refShl(a []uint64, k uint) []uint64 {
	if len(a) == 0 {
		return nil
	}
	lk, bk := k/64, k%64
	out := make([]uint64, len(a)+int(lk)+1)
	for i, v := range a {
		out[i+int(lk)] |= v << bk
		if bk != 0 {
			out[i+int(lk)+1] |= v >> (64 - bk)
		}
	}
	return out
}

func TestCmpMatchesShiftReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(a, b D) {
		t.Helper()
		if got, want := a.Cmp(b), refCmp(a, b); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, reference %d", a, b, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		// Precisions around one word decide the one-limb fast path: it
		// applies only while both aligned numerators fit in 64 bits.
		s, u := randD(rng, 70), randD(rng, 70).Shr(uint(rng.Intn(8)))
		check(s, u)
		check(u, s)
		// Precisions up to 300 bits span one to five limbs, so the virtual
		// shift crosses word boundaries in both directions.
		a, b := randD(rng, 300), randD(rng, 300)
		check(a, b)
		check(b, a)
		check(a, a)
		// Same value, different precision: a rescaled copy of a is equal to
		// it but carries more limbs before normalization.
		k := uint(rng.Intn(130))
		wide := rawD(refShl(a.limbs(), k), a.Prec()+k)
		check(a, wide)
		check(wide, a)
		check(wide, b)
		// Equal values with different limb counts: redundant high zero limbs.
		padded := rawD(append(append([]uint64(nil), a.limbs()...), 0, 0), a.Prec())
		check(a, padded)
		check(padded, b)
	}
	for _, v := range []D{Zero(), One(), FromUint(3), Pow2(64), Pow2(128), Pow2(200)} {
		for _, w := range []D{Zero(), One(), FromUint(2), Pow2(63), Pow2(129), Pow2(200)} {
			check(v, w)
			check(w, v)
		}
	}
}

func TestCmpAddSubDoNotAllocateBeyondResult(t *testing.T) {
	a, b := FromFrac(12345, 70), FromFrac(3, 5)
	if n := testing.AllocsPerRun(100, func() { _ = a.Cmp(b) }); n != 0 {
		t.Fatalf("Cmp allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.Add(b) }); n != 1 {
		t.Fatalf("Add allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.Sub(a) }); n != 1 {
		t.Fatalf("Sub allocates %.0f times, want 1", n)
	}
}

// TestAbsorbMatchesAdd folds random sequences with Absorb and with Add and
// requires the same canonical representation after every step. The operands
// reach past 128 bits (several limbs) and land both below and above the
// running sum's precision, and the sequences start from zero.
func TestAbsorbMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seq := 0; seq < 300; seq++ {
		var acc, ref D
		for step := 0; step < 40; step++ {
			o := randD(rng, []uint{8, 64, 130, 300}[rng.Intn(4)]).Shr(uint(rng.Intn(200)))
			if rng.Intn(8) == 0 {
				o = FromUint(uint64(rng.Intn(5)))
			}
			before := o.Clone()
			acc.Absorb(o)
			ref = ref.Add(o)
			if acc.prec != ref.prec || !slices.Equal(acc.limbs(), ref.limbs()) {
				t.Fatalf("seq %d step %d: Absorb gives %s (prec %d, %d limbs), Add gives %s (prec %d, %d limbs)",
					seq, step, acc, acc.prec, len(acc.limbs()), ref, ref.prec, len(ref.limbs()))
			}
			if o.prec != before.prec || !slices.Equal(o.limbs(), before.limbs()) {
				t.Fatalf("seq %d step %d: Absorb wrote its operand", seq, step)
			}
		}
	}
}

// TestAbsorbNormalizesToOne splits 1 into random powers of 2, some of them
// several limbs deep, and absorbs them in random order: the sum must shrink
// back to the one-limb 1, and absorbing more afterwards must still agree
// with Add (the words the reduction stripped are stale, not zero).
func TestAbsorbNormalizesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	deepest := uint(0)
	for trial := 0; trial < 200; trial++ {
		parts := []uint{0}
		for len(parts) < 200 {
			i := rng.Intn(len(parts))
			k := parts[i] + uint(rng.Intn(64)) + 1
			deepest = max(deepest, k)
			// Replace 2^-p by 2^-k plus the powers 2^-(p+1) .. 2^-k.
			for e := parts[i] + 1; e <= k; e++ {
				parts = append(parts, e)
			}
			parts[i] = k
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		var acc D
		for _, k := range parts {
			acc.Absorb(Pow2(k))
		}
		if !acc.IsOne() || len(acc.limbs()) != 1 {
			t.Fatalf("trial %d: %d powers of 2 sum to %s (%d limbs), want 1", trial, len(parts), acc, len(acc.limbs()))
		}
		ref := acc.Clone()
		for range 5 {
			o := randD(rng, 300)
			acc.Absorb(o)
			ref = ref.Add(o)
			if !acc.Equal(ref) || !slices.Equal(acc.limbs(), ref.limbs()) {
				t.Fatalf("trial %d: after reaching 1, Absorb gives %s, Add gives %s", trial, acc, ref)
			}
		}
	}
	if deepest <= 128 {
		t.Fatalf("deepest share 2^-%d: the splits never needed three limbs", deepest)
	}
}

// TestAbsorbDoesNotAlias checks that One and Pow2 stay 1 and 2^-k however
// often they are absorbed or absorbed into, and that a Clone is independent
// of the accumulator it copies.
func TestAbsorbDoesNotAlias(t *testing.T) {
	var acc D
	for k := uint(0); k < 300; k++ {
		acc.Absorb(Pow2(k % 150))
	}
	one := One()
	one.Absorb(Pow2(3))
	p := Pow2(7)
	p.Absorb(Pow2(7))
	snap := acc.Clone()
	acc.Absorb(Pow2(1))
	if !Pow2(0).IsOne() || !One().IsOne() || !Pow2(5).Equal(FromFrac(1, 5)) {
		t.Fatalf("constructor changed by Absorb: Pow2(0) = %s, One = %s, Pow2(5) = %s", Pow2(0), One(), Pow2(5))
	}
	if !one.Equal(FromFrac(9, 3)) || !p.Equal(Pow2(6)) {
		t.Fatalf("Absorb into One or Pow2: got %s and %s", one, p)
	}
	if !snap.Equal(acc.Sub(Pow2(1))) {
		t.Fatalf("Clone %s changed when the accumulator absorbed more", snap)
	}
}

func TestAbsorbInPlaceDoesNotAllocate(t *testing.T) {
	var acc D
	acc.Absorb(Pow2(63))
	k := uint(0)
	if n := testing.AllocsPerRun(100, func() {
		acc.Absorb(Pow2(62 + k%2))
		k++
	}); n != 0 {
		t.Fatalf("Absorb with room to spare allocates %.0f times, want 0", n)
	}
}

// rawD builds num/2^prec from limbs exactly as given, without normalizing,
// so Cmp can be checked on representations the operations never produce:
// an unreduced numerator, or high zero limbs. A numerator of at most one
// limb goes inline.
func rawD(limbs []uint64, prec uint) D {
	if len(limbs) <= 1 {
		return D{w: limbAt(limbs, 0), prec: prec32(prec)}
	}
	return D{w: uint64(cap(limbs)), prec: prec32(prec), n: uint32(len(limbs)), big: &limbs[0]}
}

// checkCanonical fails unless d is in the canonical form every operation
// must return: reduced, inline exactly when the numerator fits one word, and
// a multi-limb numerator of at least two limbs with a non-zero top limb that
// fits its array.
func checkCanonical(t *testing.T, what string, d D) {
	t.Helper()
	l := d.limbs()
	switch {
	case d.big == nil && d.n != 0:
		t.Fatalf("%s: inline value with limb count %d", what, d.n)
	case d.big != nil && (d.n < 2 || l[len(l)-1] == 0 || uint64(d.n) > d.w):
		t.Fatalf("%s: multi-limb value with %d limbs (top %#x, capacity %d)", what, d.n, limbAt(l, len(l)-1), d.w)
	case d.prec > 0 && (len(l) == 0 || l[0]&1 == 0):
		t.Fatalf("%s: unreduced: even numerator at prec %d", what, d.prec)
	}
}

func TestSizeOfD(t *testing.T) {
	if got := unsafe.Sizeof(D{}); got > 24 {
		t.Fatalf("dyadic.D is %d bytes, want <= 24", got)
	}
}

// TestOneWordArithmeticDoesNotAllocate pins the word-sized path: every
// operation whose operands and result fit one word, including sums that
// carry out of the word and reduce back into it, runs without the heap.
func TestOneWordArithmeticDoesNotAllocate(t *testing.T) {
	a, b := FromFrac(12345, 40), FromFrac(3, 5)
	near := FromFrac(1<<63+1, 64) // sums with itself past 2^64 and reduces
	var acc D
	buf := make([]byte, 0, 64)
	n := testing.AllocsPerRun(100, func() {
		_ = a.Cmp(b)
		_ = a.Add(b)
		_ = near.Add(near)
		_ = b.Sub(a)
		_ = a.Shr(70).Cmp(b.Shr(3))
		_ = a.MulUint(7)
		_ = FromFrac(6, 3)
		_ = Pow2(200).Add(Pow2(200))
		_ = One().Add(Zero())
		acc = Zero()
		acc.Absorb(near)
		acc.Absorb(near)
		acc.Absorb(FromFrac(1<<63-1, 63))
		w := bitio.AppendWriter(buf)
		a.Encode(&w)
		Pow2(64).Encode(&w)
		_ = a.EncodedBits()
	})
	if n != 0 {
		t.Fatalf("one-word arithmetic allocates %.0f times, want 0", n)
	}
	if !acc.Equal(FromUint(2)) || acc.big != nil {
		t.Fatalf("2 (2^63+1)/2^64 + (2^63-1)/2^63 = %s, want the inline 2", acc)
	}
}

// TestOneWordBoundary walks sums and differences across 2^64 and checks
// that each result is canonical, inline exactly when it fits one word, and
// round-trips through Encode and Key.
func TestOneWordBoundary(t *testing.T) {
	var vals []D
	for _, num := range []uint64{1, 3, 1<<63 - 1, 1<<63 + 1, 1<<64 - 1} {
		for _, p := range []uint{0, 1, 63, 64, 65, 128, 200} {
			vals = append(vals, FromFrac(num, p))
		}
	}
	for _, x := range vals {
		for _, y := range vals {
			s := x.Add(y)
			checkCanonical(t, x.String()+" + "+y.String(), s)
			if !s.Sub(y).Equal(x) {
				t.Fatalf("(%s + %s) - %s = %s", x, y, y, s.Sub(y))
			}
			var acc D
			acc.Absorb(x)
			acc.Absorb(y)
			if acc.prec != s.prec || !slices.Equal(acc.limbs(), s.limbs()) {
				t.Fatalf("Absorb %s, %s = %s, Add = %s", x, y, acc, s)
			}
			if x.Cmp(y) >= 0 {
				checkCanonical(t, x.String()+" - "+y.String(), x.Sub(y))
			}
			if s.Cmp(One()) < 0 {
				var w bitio.Writer
				s.Encode(&w)
				got, err := Decode(bitio.NewReader(w.Bytes(), w.Len()))
				if err != nil || got.Key() != s.Key() {
					t.Fatalf("Encode round trip of %s: %s (%v)", s, got, err)
				}
				checkCanonical(t, "Decode", got)
			}
		}
	}
}
