// Package dyadic implements arbitrary-precision non-negative dyadic rationals,
// i.e. numbers of the form k / 2^p with k, p natural numbers.
//
// These are exactly the "binary-point numbers of finite representation" the
// paper uses as interval end points (Section 4) and as termination-commodity
// values (Section 3): sums of powers of 2 with finitely many summands. All
// arithmetic is exact; precision grows only through explicit halving, which
// mirrors how the protocols split commodities, so the bit length of a value
// is itself a faithful measurement of the protocol's encoding cost.
//
// A value is 24 bytes. A numerator that fits one 64-bit word is stored
// inline, and arithmetic whose operands and result are inline takes a
// word-sized path that never allocates; a power-of-2 commodity 2^-k is
// inline at every k. Only a numerator of 65 bits or more lives in a heap
// array of limbs, and building one costs exactly one allocation. The form is
// canonical: a numerator below 2^64 is always inline, so Encode, Key and
// String never depend on how a value was computed.
package dyadic

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/bitio"
)

// D is a non-negative dyadic rational num/2^prec.
//
// Invariants (maintained by all constructors and operations):
//   - the value is normalized: num is odd or prec == 0 (no redundant halving);
//   - num < 2^64 is stored inline in w, with big == nil and n == 0;
//   - a wider num is stored little-endian in the n >= 2 limbs at big, whose
//     top limb is non-zero; the array holds w limbs in all;
//   - the zero value of D represents the number 0 and is ready to use.
//
// D values are immutable: operations return fresh values, and a multi-limb
// array, once built, is never written while any other D can see it. Copies
// and Shr share it freely. The one exception is Absorb, which grows an
// accumulator in place inside an array that only the accumulator holds.
//
// Compare values with Cmp or Equal: == on two multi-limb values compares
// their storage, not their numerators.
type D struct {
	// w is the numerator when big is nil, and the capacity of the limb
	// array at big otherwise.
	w    uint64
	prec uint32 // denominator exponent: value = num / 2^prec
	n    uint32 // limb count of a multi-limb numerator; 0 when inline
	big  *uint64
}

// Zero returns the dyadic 0.
func Zero() D { return D{} }

// One returns the dyadic 1. It does not allocate.
func One() D { return D{w: 1} }

// FromUint returns v as a dyadic integer.
func FromUint(v uint64) D { return D{w: v} }

// Pow2 returns 2^(-k), the canonical power-of-2 commodity of Section 3.1.
// It does not allocate.
func Pow2(k uint) D { return D{w: 1, prec: prec32(k)} }

// FromFrac returns num/2^p. It does not allocate.
func FromFrac(num uint64, p uint) D { return reduce1(num, prec32(p)) }

// Frac64 returns d·2^64 and true when d lies in [0, 1) with at most 64
// fraction bits, so that FromFrac(x, 64) gives d back; otherwise it returns
// false.
func (d D) Frac64() (uint64, bool) {
	if d.big != nil || d.prec > 64 || d.prec < 64 && d.w>>d.prec != 0 {
		return 0, false
	}
	return d.w << (64 - d.prec), true
}

// prec32 converts a precision to the stored width. Precisions beyond 32 bits
// would need a numerator of more than 4 Gbit and are rejected.
func prec32(p uint) uint32 {
	if p > math.MaxUint32 {
		panic("dyadic: precision exceeds 2^32-1 bits")
	}
	return uint32(p)
}

// reduce1 builds the canonical D for the one-word numerator num/2^p.
func reduce1(num uint64, p uint32) D {
	if num == 0 {
		return D{}
	}
	tz := min(uint32(bits.TrailingZeros64(num)), p)
	return D{w: num >> tz, prec: p - tz}
}

// normalize builds the canonical D for limbs/2^prec. It reduces in place and
// may keep limbs as the result's storage, so limbs must be freshly allocated
// by the caller, or an accumulator's own (Absorb), and not shared.
func normalize(limbs []uint64, prec uint) D {
	limbs = stripHigh(limbs)
	if len(limbs) == 0 {
		return D{}
	}
	// Reduce: while numerator is even and prec > 0, halve both. The shift
	// can zero the highest limb (when it shifts whole words), so strip
	// again afterwards to keep the representation canonical.
	tz := trailingZeros(limbs)
	if tz > prec {
		tz = prec
	}
	if tz > 0 {
		limbs = stripHigh(shrInPlace(limbs, tz))
		prec -= tz
	}
	return fromLimbs(limbs, prec32(prec))
}

// fromLimbs wraps the stripped, reduced numerator limbs: a numerator of at
// most one limb goes inline, a wider one keeps limbs as its storage.
func fromLimbs(limbs []uint64, prec uint32) D {
	switch len(limbs) {
	case 0:
		return D{}
	case 1:
		return D{w: limbs[0], prec: prec}
	}
	return D{w: uint64(cap(limbs)), prec: prec, n: uint32(len(limbs)), big: &limbs[0]}
}

// limbs returns d's numerator as little-endian limbs, nil for 0. An inline
// numerator comes back as a one-limb view of d.w, so the slice must not
// outlive d; a multi-limb numerator's slice has its array's full capacity.
func (d *D) limbs() []uint64 {
	if d.big != nil {
		return unsafe.Slice(d.big, d.w)[:d.n]
	}
	if d.w == 0 {
		return nil
	}
	return unsafe.Slice(&d.w, 1)
}

// stripHigh removes high-order (little-endian trailing) zero limbs.
func stripHigh(limbs []uint64) []uint64 {
	n := len(limbs)
	for n > 0 && limbs[n-1] == 0 {
		n--
	}
	return limbs[:n]
}

func trailingZeros(limbs []uint64) uint {
	var z uint
	for _, l := range limbs {
		if l == 0 {
			z += 64
			continue
		}
		return z + uint(bits.TrailingZeros64(l))
	}
	return z
}

// IsZero reports whether d == 0.
func (d D) IsZero() bool { return d.big == nil && d.w == 0 }

// IsOne reports whether d == 1.
func (d D) IsOne() bool { return d.big == nil && d.w == 1 && d.prec == 0 }

// Prec returns the denominator exponent of the normalized value; this is the
// number of binary fraction digits needed to write d exactly.
func (d D) Prec() uint { return uint(d.prec) }

// Cmp compares d and o, returning -1, 0, or +1. Both numerators are aligned
// to the common precision through a virtual shift, so Cmp never allocates.
func (d D) Cmp(o D) int {
	if d.big == nil && o.big == nil {
		switch {
		case d.prec == o.prec:
			return cmp.Compare(d.w, o.w)
		case d.prec < o.prec:
			return cmpShifted(d.w, o.prec-d.prec, o.w)
		default:
			return -cmpShifted(o.w, d.prec-o.prec, d.w)
		}
	}
	sd, so, _ := align(d.prec, o.prec)
	a, b := d.limbs(), o.limbs()
	la, lb := bitLen(a, sd), bitLen(b, so)
	if la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	for i := (la+63)/64 - 1; i >= 0; i-- {
		x, y := wordAt(a, sd, i), wordAt(b, so, i)
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// cmpShifted compares the word a<<s, which may overflow a word, with b.
func cmpShifted(a uint64, s uint32, b uint64) int {
	if fits(a, s) {
		return cmp.Compare(a<<s, b)
	}
	return 1 // a<<s >= 2^64 > b
}

// fits reports whether a<<s fits one word.
func fits(a uint64, s uint32) bool {
	return a == 0 || s < 64 && a>>(64-s) == 0
}

// Equal reports whether d == o.
func (d D) Equal(o D) bool { return d.Cmp(o) == 0 }

// Less reports whether d < o.
func (d D) Less(o D) bool { return d.Cmp(o) < 0 }

// Add returns d + o.
func (d D) Add(o D) D {
	if s, ok := add1(d, o); ok {
		return s
	}
	sd, so, p := align(d.prec, o.prec)
	a, b := d.limbs(), o.limbs()
	n := (max(bitLen(a, sd), bitLen(b, so))+63)/64 + 1
	out := make([]uint64, n)
	var carry uint64
	for i := range out {
		out[i], carry = bits.Add64(wordAt(a, sd, i), wordAt(b, so, i), carry)
	}
	return normalize(out, p)
}

// add1 is the word-sized path of Add and Absorb: it returns d + o when both
// are inline and the sum's numerator fits one word, and ok == false when
// the limb path must compute it.
func add1(d, o D) (D, bool) {
	if d.big != nil || o.big != nil {
		return D{}, false
	}
	p := max(d.prec, o.prec)
	sd, so := p-d.prec, p-o.prec
	if !fits(d.w, sd) || !fits(o.w, so) {
		return D{}, false
	}
	sum, carry := bits.Add64(d.w<<sd, o.w<<so, 0)
	if carry == 0 {
		return reduce1(sum, p), true
	}
	// A 65-bit sum fits one word when it is even and may be halved.
	if sum&1 != 0 || p == 0 {
		return D{}, false
	}
	tz := min(uint32(bits.TrailingZeros64(sum)), p)
	return D{w: sum>>tz | 1<<(64-tz), prec: p - tz}, true
}

// Absorb sets d to d + o in place. It is for accumulators — the zero value,
// or a D built by earlier Absorb calls whose limbs no other D shares. An
// inline sum stays inline; otherwise it shifts and adds inside d's own limb
// array when the capacity allows, and moves d to a fresh array with spare
// capacity when it does not. It never adopts or writes o's limbs, so o stays
// independent of d.
func (d *D) Absorb(o D) {
	if o.IsZero() {
		return
	}
	if s, ok := add1(*d, o); ok {
		*d = s
		return
	}
	sd, so, p := align(d.prec, o.prec)
	a, b := d.limbs(), o.limbs()
	// One word more than the wider operand when the carry may need it.
	n := (max(bitLen(a, sd), bitLen(b, so)) + 64) / 64
	if d.big == nil || cap(a) < n {
		fresh := make([]uint64, n, 2*n)
		for i := range fresh {
			fresh[i] = wordAt(a, sd, i)
		}
		a = fresh
	} else {
		m := len(a)
		a = a[:n]
		clear(a[m:]) // words a previous normalize stripped
		if sd > 0 {
			// Shift left from the top down: word i reads only words <= i.
			for i := n - 1; i >= 0; i-- {
				a[i] = wordAt(a, sd, i)
			}
		}
	}
	var carry uint64
	for i := range a {
		a[i], carry = bits.Add64(a[i], wordAt(b, so, i), carry)
	}
	*d = normalize(a, p)
}

// Clone returns a copy of d that shares no storage with it.
func (d D) Clone() D {
	if d.big == nil {
		return d
	}
	return fromLimbs(slices.Clone(d.limbs()), d.prec)
}

// Sub returns d - o. It panics if d < o: the protocols only ever subtract a
// part from the whole, so a negative result is an invariant violation.
func (d D) Sub(o D) D {
	sd, so, p := align(d.prec, o.prec)
	if d.big == nil && o.big == nil && fits(d.w, uint32(sd)) && fits(o.w, uint32(so)) {
		diff, borrow := bits.Sub64(d.w<<sd, o.w<<so, 0)
		if borrow != 0 {
			panic("dyadic: Sub would produce a negative value")
		}
		return reduce1(diff, uint32(p))
	}
	a, b := d.limbs(), o.limbs()
	n := (max(bitLen(a, sd), bitLen(b, so)) + 63) / 64
	out := make([]uint64, n)
	var borrow uint64
	for i := range out {
		out[i], borrow = bits.Sub64(wordAt(a, sd, i), wordAt(b, so, i), borrow)
	}
	if borrow != 0 {
		panic("dyadic: Sub would produce a negative value")
	}
	return normalize(out, p)
}

// Half returns d / 2.
func (d D) Half() D { return d.Shr(1) }

// Shr returns d / 2^k. The result shares d's limbs: D values are immutable.
// Only an even integer needs reducing; a multi-limb one is reduced in a copy.
func (d D) Shr(k uint) D {
	if d.IsZero() {
		return D{}
	}
	p := prec32(uint(d.prec) + k)
	if d.prec == 0 && k > 0 {
		if d.big == nil {
			return reduce1(d.w, p)
		}
		if l := d.limbs(); l[0]&1 == 0 {
			return normalize(slices.Clone(l), uint(p))
		}
	}
	d.prec = p
	return d
}

// MulUint returns d * c for a small scalar c.
func (d D) MulUint(c uint64) D {
	if c == 0 || d.IsZero() {
		return D{}
	}
	if d.big == nil {
		if hi, lo := bits.Mul64(d.w, c); hi == 0 {
			return reduce1(lo, d.prec)
		}
	}
	return normalize(mulScalar(d.limbs(), c), uint(d.prec))
}

// Mul returns d * o (full product; precisions add).
func (d D) Mul(o D) D {
	if d.IsZero() || o.IsZero() {
		return D{}
	}
	a, b := d.limbs(), o.limbs()
	prod := make([]uint64, len(a)+len(b))
	for i, x := range a {
		var carry uint64
		for j, y := range b {
			hi, lo := bits.Mul64(x, y)
			var c uint64
			prod[i+j], c = bits.Add64(prod[i+j], lo, 0)
			hi += c
			prod[i+j+1], c = bits.Add64(prod[i+j+1], hi, carry)
			carry = c
		}
		for k := i + len(b) + 1; carry != 0 && k < len(prod); k++ {
			prod[k], carry = bits.Add64(prod[k], carry, 0)
		}
	}
	return normalize(prod, uint(d.prec)+uint(o.prec))
}

// String renders d in binary positional notation, e.g. "0.1011" or "1".
func (d D) String() string {
	if d.IsZero() {
		return "0"
	}
	l := d.limbs()
	if d.prec == 0 {
		return intString(l)
	}
	ip := shrInPlace(append([]uint64(nil), l...), uint(d.prec))
	var sb strings.Builder
	sb.WriteString(intString(ip))
	sb.WriteByte('.')
	for i := int(d.prec) - 1; i >= 0; i-- {
		sb.WriteByte('0' + byte(bit(l, uint(i))))
	}
	return sb.String()
}

func intString(limbs []uint64) string {
	// Values in this codebase have tiny integer parts; decimal via repeated
	// division is unnecessary. Render in hex-free decimal for <= 1 limb,
	// otherwise binary with prefix (never hit by the protocols).
	if len(limbs) == 0 {
		return "0"
	}
	if len(limbs) == 1 {
		return uitoa(limbs[0])
	}
	var sb strings.Builder
	sb.WriteString("0b")
	started := false
	for i := len(limbs) - 1; i >= 0; i-- {
		for b := 63; b >= 0; b-- {
			v := (limbs[i] >> uint(b)) & 1
			if !started && v == 0 {
				continue
			}
			started = true
			sb.WriteByte('0' + byte(v))
		}
	}
	return sb.String()
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// FracBit returns the i-th binary fraction digit of d (i = 1 is the digit
// immediately after the binary point). Digits beyond Prec() are 0.
func (d D) FracBit(i uint) uint {
	if i == 0 || i > uint(d.prec) {
		return 0
	}
	return bit(d.limbs(), uint(d.prec)-i)
}

// Encode appends a self-delimiting encoding of d (which must lie in [0, 1])
// to w: a delta-coded fraction length followed by the fraction digits, with a
// leading bit distinguishing the value 1.
func (d D) Encode(w *bitio.Writer) {
	if d.IsOne() {
		w.WriteBit(1)
		return
	}
	if d.prec == 0 && !d.IsZero() {
		panic("dyadic: Encode requires a value in [0, 1]")
	}
	w.WriteBit(0)
	w.WriteDelta0(uint64(d.prec))
	if d.prec == 0 {
		return
	}
	if d.big == nil && d.prec <= 64 {
		w.WriteBits(d.w, int(d.prec))
		return
	}
	// The fraction digits are the numerator's low prec bits, most
	// significant first: the top limb's share, then whole limbs.
	l := d.limbs()
	top := int(d.prec-1) / 64
	w.WriteBits(limbAt(l, top), int(d.prec-1)%64+1)
	for i := top - 1; i >= 0; i-- {
		w.WriteBits(limbAt(l, i), 64)
	}
}

// EncodedBits returns the exact bit cost of Encode.
func (d D) EncodedBits() int {
	if d.IsOne() {
		return 1
	}
	return 1 + bitio.Delta0Len(uint64(d.prec)) + int(d.prec)
}

// Decode reads a value previously written by Encode.
func Decode(r *bitio.Reader) (D, error) {
	oneFlag, err := r.ReadBit()
	if err != nil {
		return D{}, err
	}
	if oneFlag == 1 {
		return One(), nil
	}
	p, err := r.ReadDelta0()
	if err != nil {
		return D{}, err
	}
	if p > uint64(r.Remaining()) {
		return D{}, fmt.Errorf("dyadic: declared precision %d exceeds remaining %d bits", p, r.Remaining())
	}
	prec := uint(p)
	if prec <= 64 {
		num, err := r.ReadBits(int(prec))
		if err != nil {
			return D{}, err
		}
		return reduce1(num, uint32(prec)), nil
	}
	limbs := make([]uint64, (prec+63)/64)
	for i := uint(1); i <= prec; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return D{}, err
		}
		if b == 1 {
			setBit(limbs, prec-i)
		}
	}
	return normalize(limbs, prec), nil
}

// Key returns a compact canonical string usable as a map key.
func (d D) Key() string {
	var w bitio.Writer
	w.WriteDelta0(uint64(d.prec))
	l := d.limbs()
	for i := len(l) - 1; i >= 0; i-- {
		w.WriteBits(l[i], 64)
	}
	return string(w.Bytes())
}

// --- limb helpers -----------------------------------------------------------

func bit(limbs []uint64, i uint) uint {
	li, bi := i/64, i%64
	if int(li) >= len(limbs) {
		return 0
	}
	return uint(limbs[li]>>bi) & 1
}

// limbAt returns limb i of a numerator, 0 past its stripped high end.
func limbAt(limbs []uint64, i int) uint64 {
	if i < len(limbs) {
		return limbs[i]
	}
	return 0
}

func setBit(limbs []uint64, i uint) {
	limbs[i/64] |= 1 << (i % 64)
}

// align returns the shifts that bring numerators at precisions pd and po to
// their common precision p: the values are (d<<sd)/2^p and (o<<so)/2^p.
func align(pd, po uint32) (sd, so, p uint) {
	p = uint(max(pd, po))
	return p - uint(pd), p - uint(po), p
}

// bitLen returns the bit length of a<<s, ignoring high zero limbs; 0 for 0.
func bitLen(a []uint64, s uint) int {
	a = stripHigh(a)
	if len(a) == 0 {
		return 0
	}
	return 64*(len(a)-1) + bits.Len64(a[len(a)-1]) + int(s)
}

// wordAt returns word i (little-endian) of a<<s without materializing the
// shifted value.
func wordAt(a []uint64, s uint, i int) uint64 {
	j, bk := i-int(s/64), s%64
	var w uint64
	if j >= 0 && j < len(a) {
		w = a[j] << bk
	}
	if bk != 0 && j >= 1 && j-1 < len(a) {
		w |= a[j-1] >> (64 - bk)
	}
	return w
}

// shrInPlace shifts a right by k bits, reusing a's storage.
func shrInPlace(a []uint64, k uint) []uint64 {
	lk, bk := int(k/64), k%64
	if lk >= len(a) {
		return a[:0]
	}
	n := len(a) - lk
	for i := 0; i < n; i++ {
		a[i] = a[i+lk] >> bk
		if bk != 0 && i+lk+1 < len(a) {
			a[i] |= a[i+lk+1] << (64 - bk)
		}
	}
	return a[:n]
}

func mulScalar(a []uint64, c uint64) []uint64 {
	out := make([]uint64, len(a)+1)
	var carry uint64
	for i, v := range a {
		hi, lo := bits.Mul64(v, c)
		var cc uint64
		out[i], cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
	}
	out[len(a)] = carry
	return out
}
