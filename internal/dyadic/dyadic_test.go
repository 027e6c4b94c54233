package dyadic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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
			n := normalize(append([]uint64(nil), d.limbs...), d.prec)
			if !n.Equal(d) || n.prec != d.prec || !slices.Equal(n.limbs, d.limbs) {
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
	p := max(d.prec, o.prec)
	a, b := refShl(d.limbs, p-d.prec), refShl(o.limbs, p-o.prec)
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
		// Precisions up to 300 bits span one to five limbs, so the virtual
		// shift crosses word boundaries in both directions.
		a, b := randD(rng, 300), randD(rng, 300)
		check(a, b)
		check(b, a)
		check(a, a)
		// Same value, different precision: a rescaled copy of a is equal to
		// it but carries more limbs before normalization.
		k := uint(rng.Intn(130))
		wide := D{limbs: refShl(a.limbs, k), prec: a.prec + k}
		check(a, wide)
		check(wide, a)
		check(wide, b)
		// Equal values with different limb counts: redundant high zero limbs.
		padded := D{limbs: append(append([]uint64(nil), a.limbs...), 0, 0), prec: a.prec}
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
