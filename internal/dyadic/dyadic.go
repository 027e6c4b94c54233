// Package dyadic implements arbitrary-precision non-negative dyadic rationals,
// i.e. numbers of the form k / 2^p with k, p natural numbers.
//
// These are exactly the "binary-point numbers of finite representation" the
// paper uses as interval end points (Section 4) and as termination-commodity
// values (Section 3): sums of powers of 2 with finitely many summands. All
// arithmetic is exact; precision grows only through explicit halving, which
// mirrors how the protocols split commodities, so the bit length of a value
// is itself a faithful measurement of the protocol's encoding cost.
package dyadic

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/bitio"
)

// D is a non-negative dyadic rational num/2^prec.
//
// Invariants (maintained by all constructors and operations):
//   - num is stored little-endian in limbs with no trailing zero limbs;
//   - the value is normalized: num is odd or prec == 0 (no redundant halving);
//   - the zero value of D represents the number 0 and is ready to use.
//
// D values are immutable; operations return fresh values and never alias
// their operands' storage in a way callers can observe.
type D struct {
	limbs []uint64 // numerator, little-endian; nil means 0
	prec  uint     // denominator exponent: value = limbs / 2^prec
}

// Zero returns the dyadic 0.
func Zero() D { return D{} }

// One returns the dyadic 1.
func One() D { return D{limbs: []uint64{1}} }

// FromUint returns v as a dyadic integer.
func FromUint(v uint64) D {
	if v == 0 {
		return D{}
	}
	return D{limbs: []uint64{v}}
}

// Pow2 returns 2^(-k), the canonical power-of-2 commodity of Section 3.1.
func Pow2(k uint) D { return normalize([]uint64{1}, k) }

// FromFrac returns num/2^p.
func FromFrac(num uint64, p uint) D {
	if num == 0 {
		return D{}
	}
	return normalize([]uint64{num}, p)
}

// normalize builds the canonical D for limbs/2^prec. It reduces in place, so
// limbs must be freshly allocated by the caller and not shared.
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
	return D{limbs: limbs, prec: prec}
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
func (d D) IsZero() bool { return len(d.limbs) == 0 }

// IsOne reports whether d == 1.
func (d D) IsOne() bool {
	return d.prec == 0 && len(d.limbs) == 1 && d.limbs[0] == 1
}

// Prec returns the denominator exponent of the normalized value; this is the
// number of binary fraction digits needed to write d exactly.
func (d D) Prec() uint { return d.prec }

// Cmp compares d and o, returning -1, 0, or +1. Both numerators are aligned
// to the common precision through a virtual shift, so Cmp never allocates.
func (d D) Cmp(o D) int {
	sd, so, _ := align(d, o)
	la, lb := bitLen(d.limbs, sd), bitLen(o.limbs, so)
	if la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	for i := (la+63)/64 - 1; i >= 0; i-- {
		a, b := wordAt(d.limbs, sd, i), wordAt(o.limbs, so, i)
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Equal reports whether d == o.
func (d D) Equal(o D) bool { return d.Cmp(o) == 0 }

// Less reports whether d < o.
func (d D) Less(o D) bool { return d.Cmp(o) < 0 }

// Add returns d + o.
func (d D) Add(o D) D {
	sd, so, p := align(d, o)
	n := (max(bitLen(d.limbs, sd), bitLen(o.limbs, so))+63)/64 + 1
	out := make([]uint64, n)
	var carry uint64
	for i := range out {
		out[i], carry = bits.Add64(wordAt(d.limbs, sd, i), wordAt(o.limbs, so, i), carry)
	}
	return normalize(out, p)
}

// Sub returns d - o. It panics if d < o: the protocols only ever subtract a
// part from the whole, so a negative result is an invariant violation.
func (d D) Sub(o D) D {
	sd, so, p := align(d, o)
	n := (max(bitLen(d.limbs, sd), bitLen(o.limbs, so)) + 63) / 64
	out := make([]uint64, n)
	var borrow uint64
	for i := range out {
		out[i], borrow = bits.Sub64(wordAt(d.limbs, sd, i), wordAt(o.limbs, so, i), borrow)
	}
	if borrow != 0 {
		panic("dyadic: Sub would produce a negative value")
	}
	return normalize(out, p)
}

// Half returns d / 2.
func (d D) Half() D { return d.Shr(1) }

// Shr returns d / 2^k. The result shares d's limbs: D values are immutable.
func (d D) Shr(k uint) D {
	if d.IsZero() {
		return D{}
	}
	return D{limbs: d.limbs, prec: d.prec + k}
}

// MulUint returns d * c for a small scalar c.
func (d D) MulUint(c uint64) D {
	if c == 0 || d.IsZero() {
		return D{}
	}
	return normalize(mulScalar(d.limbs, c), d.prec)
}

// Mul returns d * o (full product; precisions add).
func (d D) Mul(o D) D {
	if d.IsZero() || o.IsZero() {
		return D{}
	}
	prod := make([]uint64, len(d.limbs)+len(o.limbs))
	for i, x := range d.limbs {
		var carry uint64
		for j, y := range o.limbs {
			hi, lo := bits.Mul64(x, y)
			var c uint64
			prod[i+j], c = bits.Add64(prod[i+j], lo, 0)
			hi += c
			prod[i+j+1], c = bits.Add64(prod[i+j+1], hi, carry)
			carry = c
		}
		for k := i + len(o.limbs) + 1; carry != 0 && k < len(prod); k++ {
			prod[k], carry = bits.Add64(prod[k], carry, 0)
		}
	}
	return normalize(prod, d.prec+o.prec)
}

// String renders d in binary positional notation, e.g. "0.1011" or "1".
func (d D) String() string {
	if d.IsZero() {
		return "0"
	}
	if d.prec == 0 {
		return intString(d.limbs)
	}
	ip := shrInPlace(append([]uint64(nil), d.limbs...), d.prec)
	var sb strings.Builder
	sb.WriteString(intString(ip))
	sb.WriteByte('.')
	for i := int(d.prec) - 1; i >= 0; i-- {
		sb.WriteByte('0' + byte(bit(d.limbs, uint(i))))
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
	if i == 0 || i > d.prec {
		return 0
	}
	return bit(d.limbs, d.prec-i)
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
	for i := uint(1); i <= d.prec; i++ {
		w.WriteBit(d.FracBit(i))
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
	nl := (int(prec) + 63) / 64
	limbs := make([]uint64, nl)
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
	for i := len(d.limbs) - 1; i >= 0; i-- {
		w.WriteBits(d.limbs[i], 64)
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

func setBit(limbs []uint64, i uint) {
	limbs[i/64] |= 1 << (i % 64)
}

// align returns the shifts that bring d's and o's numerators to their common
// precision p: the values are (d.limbs<<sd)/2^p and (o.limbs<<so)/2^p.
func align(d, o D) (sd, so, p uint) {
	p = max(d.prec, o.prec)
	return p - d.prec, p - o.prec, p
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
