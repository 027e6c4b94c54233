// Package interval implements half-open intervals [a, b) over [0, 1) with
// dyadic end points, and finite unions of such intervals ("interval-unions",
// Definition 4.1 of the paper).
//
// Interval-unions are the commodity of the general-graph broadcasting
// protocol (Section 4) and of the label-assignment protocol (Section 5):
// the root injects [0, 1) into the network, vertices partition what they
// receive among their out-edges, and the terminal declares termination once
// the pieces it has seen re-assemble the whole of [0, 1).
package interval

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/bitio"
	"repro/internal/dyadic"
)

// Interval is the half-open interval [Lo, Hi). An interval with Lo >= Hi is
// empty; the canonical empty interval is the zero value [0, 0).
type Interval struct {
	Lo, Hi dyadic.D
}

// Empty returns the canonical empty interval [0, 0).
func Empty() Interval { return Interval{} }

// Full returns [0, 1), the commodity injected by the root.
func Full() Interval {
	return Interval{Lo: dyadic.Zero(), Hi: dyadic.One()}
}

// IsEmpty reports whether the interval contains no points.
func (iv Interval) IsEmpty() bool { return iv.Lo.Cmp(iv.Hi) >= 0 }

// Contains reports whether x lies in [Lo, Hi).
func (iv Interval) Contains(x dyadic.D) bool {
	return iv.Lo.Cmp(x) <= 0 && x.Cmp(iv.Hi) < 0
}

// Measure returns Hi - Lo (0 for empty intervals).
func (iv Interval) Measure() dyadic.D {
	if iv.IsEmpty() {
		return dyadic.Zero()
	}
	return iv.Hi.Sub(iv.Lo)
}

// String renders the interval as [lo, hi).
func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)", iv.Lo, iv.Hi)
}

// EncodedBits returns the exact bit cost of encoding the two end points.
func (iv Interval) EncodedBits() int {
	return iv.Lo.EncodedBits() + iv.Hi.EncodedBits()
}

// Encode appends the interval's end points to w.
func (iv Interval) Encode(w *bitio.Writer) {
	iv.Lo.Encode(w)
	iv.Hi.Encode(w)
}

// DecodeInterval reads an interval written by Encode.
func DecodeInterval(r *bitio.Reader) (Interval, error) {
	lo, err := dyadic.Decode(r)
	if err != nil {
		return Interval{}, err
	}
	hi, err := dyadic.Decode(r)
	if err != nil {
		return Interval{}, err
	}
	return Interval{Lo: lo, Hi: hi}, nil
}

// Fixed is a non-empty interval whose end points have at most 64 fraction
// bits, in units of 2^-64: [Lo, Last+1). Storing the last unit rather than
// the end lets [x, 1) fit a word, and the pair holds no pointers.
type Fixed struct{ Lo, Last uint64 }

// Fixed returns iv in fixed point, and false when iv is empty or an end
// point has more than 64 fraction bits.
func (iv Interval) Fixed() (Fixed, bool) {
	lo, okLo := iv.Lo.Frac64()
	end, okHi := iv.Hi.Frac64()
	if !okLo || !okHi && !iv.Hi.IsOne() || okHi && end <= lo {
		return Fixed{}, false
	}
	// end is 0 for Hi = 1, so end-1 wraps to the last unit below 1.
	return Fixed{Lo: lo, Last: end - 1}, true
}

// appendSplit partitions [Lo, Hi) into k >= 1 disjoint intervals using the
// paper's power-of-2 rule (proof of Theorem 4.3) and appends them to dst:
// with N the smallest power of 2 with N >= k and delta = (Hi-Lo)/N, it
// yields k-1 intervals of size delta and one final interval
// [Lo+(k-1)delta, Hi). Each new end point costs only O(log k) additional bits
// relative to the end points of the input interval, which is what bounds
// label and symbol lengths by O(|V| log dout).
func (iv Interval) appendSplit(dst []Interval, k int) []Interval {
	if k == 1 {
		return append(dst, iv)
	}
	logN := uint(bits.Len(uint(k - 1))) // ceil(log2 k)
	delta := iv.Hi.Sub(iv.Lo).Shr(logN)
	lo := iv.Lo
	for i := 0; i < k-1; i++ {
		hi := lo.Add(delta)
		dst = append(dst, Interval{Lo: lo, Hi: hi})
		lo = hi
	}
	return append(dst, Interval{Lo: lo, Hi: iv.Hi})
}

// Union is a finite union of disjoint, non-adjacent, non-empty intervals in
// canonical form: sorted by Lo. The zero value is the empty union.
//
// Unions are value types: operations return new unions and never mutate
// their receivers or arguments, and Union, Intersect and Subtract return
// storage of their own. AppendUnion, AppendIntersect, AppendSubtract and
// AppendCopy are the same operations writing into a caller's buffer, which
// is how a caller that computes intermediates reuses one scratch slice. The
// one exception is Absorb, which grows an accumulator in place. Its ownership rule: a union adopted from elsewhere
// (a received message, or a part handed to a sent one) is shared and never
// absorbed into; its first growth goes through Union, which yields storage
// of its own, and from then on the accumulator is owned and grows by Absorb.
type Union struct {
	ivs []Interval
}

// EmptyUnion returns the empty interval-union.
func EmptyUnion() Union { return Union{} }

// FullUnion returns the union {[0, 1)}.
func FullUnion() Union { return Union{ivs: []Interval{Full()}} }

// NewUnion builds a canonical union from arbitrary (possibly overlapping,
// adjacent, empty, unsorted) intervals.
func NewUnion(ivs ...Interval) Union {
	u := Union{}
	for _, iv := range ivs {
		u = u.AddInterval(iv)
	}
	return u
}

// Intervals returns the canonical intervals of u in increasing order.
// The caller must not modify the returned slice.
func (u Union) Intervals() []Interval { return u.ivs }

// Clone returns a copy of u that shares no storage with it.
func (u Union) Clone() Union { return Union{ivs: slices.Clone(u.ivs)} }

// NumIntervals returns the number of maximal intervals in u.
func (u Union) NumIntervals() int { return len(u.ivs) }

// IsEmpty reports whether u contains no points.
func (u Union) IsEmpty() bool { return len(u.ivs) == 0 }

// IsFull reports whether u == [0, 1). This is the terminal's stopping
// predicate S: it holds exactly when the whole commodity has arrived.
func (u Union) IsFull() bool {
	return len(u.ivs) == 1 && u.ivs[0].Lo.IsZero() && u.ivs[0].Hi.IsOne()
}

// Contains reports whether x in u.
func (u Union) Contains(x dyadic.D) bool {
	for _, iv := range u.ivs {
		if x.Cmp(iv.Hi) < 0 {
			return iv.Lo.Cmp(x) <= 0
		}
	}
	return false
}

// Measure returns the total length of u.
func (u Union) Measure() dyadic.D {
	m := dyadic.Zero()
	for _, iv := range u.ivs {
		m = m.Add(iv.Measure())
	}
	return m
}

// AddInterval returns u with iv merged in.
func (u Union) AddInterval(iv Interval) Union {
	if iv.IsEmpty() {
		return u
	}
	out := make([]Interval, 0, len(u.ivs)+1)
	i := 0
	// Keep intervals strictly before iv (not touching).
	for i < len(u.ivs) && u.ivs[i].Hi.Cmp(iv.Lo) < 0 {
		out = append(out, u.ivs[i])
		i++
	}
	// Merge all intervals overlapping or touching iv.
	lo, hi := iv.Lo, iv.Hi
	for i < len(u.ivs) && u.ivs[i].Lo.Cmp(hi) <= 0 {
		if u.ivs[i].Lo.Cmp(lo) < 0 {
			lo = u.ivs[i].Lo
		}
		if u.ivs[i].Hi.Cmp(hi) > 0 {
			hi = u.ivs[i].Hi
		}
		i++
	}
	out = append(out, Interval{Lo: lo, Hi: hi})
	out = append(out, u.ivs[i:]...)
	return Union{ivs: out}
}

// Union returns u ∪ o in storage of its own (see AppendUnion).
func (u Union) Union(o Union) Union {
	if len(u.ivs)+len(o.ivs) == 0 {
		return Union{}
	}
	out, _ := AppendUnion(make([]Interval, 0, len(u.ivs)+len(o.ivs)), u, o)
	return Union{ivs: out}
}

// AppendUnion appends the intervals of u ∪ o to dst and returns the
// extended slice and the result, a capped window of that slice. It walks the
// smaller operand and gallops through the larger one, copying the runs that
// cannot touch the small side wholesale: O(k log n) comparisons for a
// k-interval union against an n-interval one, and O(n+k) for operands of
// similar size.
//
// Like append, AppendUnion writes only past len(dst): operands stored in
// dst's first len(dst) elements, such as earlier results of the Append
// functions, stay intact. No operand may live in dst's spare capacity.
func AppendUnion(dst []Interval, u, o Union) ([]Interval, Union) {
	if len(u.ivs) < len(o.ivs) {
		u, o = o, u
	}
	base, out := len(dst), dst
	i := 0
	for _, b := range o.ivs {
		// Copy the intervals of u that end before b starts, not touching it.
		k := seek(u.ivs, i, b.Lo, false)
		out = append(out, u.ivs[i:k]...)
		i = k
		lo, hi := b.Lo, b.Hi
		// The previous merged interval may reach b through a long u interval.
		if n := len(out); n > base && out[n-1].Hi.Cmp(lo) >= 0 {
			lo, hi = out[n-1].Lo, maxD(hi, out[n-1].Hi)
			out = out[:n-1]
		}
		for ; i < len(u.ivs) && u.ivs[i].Lo.Cmp(hi) <= 0; i++ {
			lo, hi = minD(lo, u.ivs[i].Lo), maxD(hi, u.ivs[i].Hi)
		}
		out = append(out, Interval{Lo: lo, Hi: hi})
	}
	out = append(out, u.ivs[i:]...)
	return out, window(out, base)
}

// AppendCopy appends the intervals of u to dst and returns the extended
// slice and the copy, a capped window of that slice.
func AppendCopy(dst []Interval, u Union) ([]Interval, Union) {
	out := append(dst, u.ivs...)
	return out, window(out, len(dst))
}

// AppendFixed appends the union of fs to dst, under AppendUnion's rules. It
// sorts fs by Lo in place, then coalesces the intervals that overlap or
// touch, so fs may hold them in any order.
func AppendFixed(dst []Interval, fs []Fixed) ([]Interval, Union) {
	sortFixed(fs)
	out := dst
	for i := 0; i < len(fs); {
		lo, last := fs[i].Lo, fs[i].Last
		// Every interval that overlaps or touches [lo, last] extends it, and
		// one that reaches 1 takes in all that follow.
		for i++; i < len(fs) && (last == math.MaxUint64 || fs[i].Lo <= last+1); i++ {
			last = max(last, fs[i].Last)
		}
		hi := dyadic.One()
		if last != math.MaxUint64 {
			hi = dyadic.FromFrac(last+1, 64)
		}
		out = append(out, Interval{Lo: dyadic.FromFrac(lo, 64), Hi: hi})
	}
	return out, window(out, len(dst))
}

// sortFixed sorts fs by Lo: a few intervals in place, more by a radix sort
// on the bytes of Lo, skipping the bytes all keys share. Coarse end points
// leave their low bytes zero, so a sort of intervals whose end points have
// at most 24 fraction bits makes three passes.
func sortFixed(fs []Fixed) {
	if len(fs) <= 32 {
		slices.SortFunc(fs, func(a, b Fixed) int { return cmp.Compare(a.Lo, b.Lo) })
		return
	}
	var counts [8][256]int
	for _, f := range fs {
		for b := range counts {
			counts[b][byte(f.Lo>>(8*b))]++
		}
	}
	src, dst := fs, make([]Fixed, len(fs))
	for b := range counts {
		c := &counts[b]
		if c[byte(fs[0].Lo>>(8*b))] == len(fs) {
			continue
		}
		sum := 0
		for k, n := range c {
			c[k], sum = sum, sum+n
		}
		for _, f := range src {
			k := byte(f.Lo >> (8 * b))
			dst[c[k]] = f
			c[k]++
		}
		src, dst = dst, src
	}
	copy(fs, src)
}

// window returns out[base:] as a union capped at its length, so an append to
// it copies instead of overwriting what follows in out's backing array.
func window(out []Interval, base int) Union {
	if len(out) == base {
		return Union{}
	}
	return Union{ivs: out[base:len(out):len(out)]}
}

// Absorb sets u to u ∪ o in place: for each interval of o it finds the
// insertion point by a galloping binary search, coalesces the touching run
// and splices the result into u's storage. It is for accumulators whose storage no other
// Union shares — u's backing array is overwritten — and it never adopts o's
// backing array, so o stays independent of u.
func (u *Union) Absorb(o Union) {
	if len(o.ivs) >= len(u.ivs) {
		u.ivs = u.Union(o).ivs
		return
	}
	i := 0
	for _, b := range o.ivs {
		i = seek(u.ivs, i, b.Lo, false)
		j, lo, hi := i, b.Lo, b.Hi
		for ; j < len(u.ivs) && u.ivs[j].Lo.Cmp(hi) <= 0; j++ {
			lo, hi = minD(lo, u.ivs[j].Lo), maxD(hi, u.ivs[j].Hi)
		}
		if j == i {
			u.ivs = slices.Insert(u.ivs, i, Interval{Lo: lo, Hi: hi})
		} else {
			u.ivs[i] = Interval{Lo: lo, Hi: hi}
			u.ivs = slices.Delete(u.ivs, i+1, j)
		}
	}
}

// Intersect returns u ∩ o in storage of its own (see AppendIntersect).
func (u Union) Intersect(o Union) Union {
	out, _ := AppendIntersect(nil, u, o)
	return Union{ivs: out}
}

// AppendIntersect appends the intervals of u ∩ o to dst, under AppendUnion's
// rules. It walks the smaller operand and gallops past the intervals of the
// larger one that end before the current small interval.
func AppendIntersect(dst []Interval, u, o Union) ([]Interval, Union) {
	if len(u.ivs) < len(o.ivs) {
		u, o = o, u
	}
	out := dst
	i := 0
	for _, b := range o.ivs {
		i = seek(u.ivs, i, b.Lo, true)
		for ; i < len(u.ivs) && u.ivs[i].Lo.Cmp(b.Hi) < 0; i++ {
			a := u.ivs[i]
			out = append(out, Interval{Lo: maxD(a.Lo, b.Lo), Hi: minD(a.Hi, b.Hi)})
			if a.Hi.Cmp(b.Hi) > 0 {
				break // a reaches past b and may meet the next interval of o
			}
		}
	}
	return out, window(out, len(dst))
}

// Subtract returns u \ o in storage of its own (see AppendSubtract).
func (u Union) Subtract(o Union) Union {
	out, _ := AppendSubtract(nil, u, o)
	return Union{ivs: out}
}

// AppendSubtract appends the intervals of u \ o to dst, under AppendUnion's
// rules. Runs of u that no interval of o reaches are copied wholesale, and
// intervals of o that end before the current interval of u are galloped
// past, so a small operand on either side costs O(k log n) comparisons.
func AppendSubtract(dst []Interval, u, o Union) ([]Interval, Union) {
	out := dst
	i, j := 0, 0
	for i < len(u.ivs) {
		if j == len(o.ivs) {
			out = append(out, u.ivs[i:]...)
			break
		}
		// Copy the intervals of u that end before o[j] starts.
		k := seek(u.ivs, i, o.ivs[j].Lo, true)
		out = append(out, u.ivs[i:k]...)
		if i = k; i == len(u.ivs) {
			break
		}
		a := u.ivs[i]
		j = seek(o.ivs, j, a.Lo, true)
		lo := a.Lo
		for k := j; k < len(o.ivs) && o.ivs[k].Lo.Cmp(a.Hi) < 0; k++ {
			b := o.ivs[k]
			if b.Lo.Cmp(lo) > 0 {
				out = append(out, Interval{Lo: lo, Hi: b.Lo})
			}
			lo = maxD(lo, b.Hi)
		}
		if lo.Cmp(a.Hi) < 0 {
			out = append(out, Interval{Lo: lo, Hi: a.Hi})
		}
		i++
	}
	return out, window(out, len(dst))
}

// seek returns the first index k >= i whose interval does not end before x,
// or len(ivs). An interval ends before x when Hi < x, or Hi <= x with atX;
// the end points of a canonical union increase, so those intervals form a
// prefix. It gallops from i and then binary searches the last step, costing
// O(log(k-i)) comparisons.
func seek(ivs []Interval, i int, x dyadic.D, atX bool) int {
	lim := 0 // ends before x: Hi.Cmp(x) < lim
	if atX {
		lim = 1
	}
	if i >= len(ivs) || ivs[i].Hi.Cmp(x) >= lim {
		return i
	}
	step := 1 // invariant: ivs[i] ends before x
	for i+step < len(ivs) && ivs[i+step].Hi.Cmp(x) < lim {
		i += step
		step *= 2
	}
	lo, hi := i+1, min(i+step, len(ivs))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].Hi.Cmp(x) < lim {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func minD(a, b dyadic.D) dyadic.D {
	if b.Cmp(a) < 0 {
		return b
	}
	return a
}

func maxD(a, b dyadic.D) dyadic.D {
	if b.Cmp(a) > 0 {
		return b
	}
	return a
}

// Equal reports whether u and o cover the same point set.
func (u Union) Equal(o Union) bool {
	if len(u.ivs) != len(o.ivs) {
		return false
	}
	for i := range u.ivs {
		if !u.ivs[i].Lo.Equal(o.ivs[i].Lo) || !u.ivs[i].Hi.Equal(o.ivs[i].Hi) {
			return false
		}
	}
	return true
}

// ContainsUnion reports whether o ⊆ u.
func (u Union) ContainsUnion(o Union) bool {
	return o.Subtract(u).IsEmpty()
}

// String renders the union as a set of intervals.
func (u Union) String() string {
	if u.IsEmpty() {
		return "{}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, iv := range u.ivs {
		if i > 0 {
			sb.WriteString(" ∪ ")
		}
		sb.WriteString(iv.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// EncodedBits returns the exact bit cost of Encode: a delta-coded interval
// count followed by each interval's end points.
func (u Union) EncodedBits() int {
	n := bitio.Delta0Len(uint64(len(u.ivs)))
	for _, iv := range u.ivs {
		n += iv.EncodedBits()
	}
	return n
}

// Encode appends a self-delimiting encoding of u to w.
func (u Union) Encode(w *bitio.Writer) {
	w.WriteDelta0(uint64(len(u.ivs)))
	for _, iv := range u.ivs {
		iv.Encode(w)
	}
}

// DecodeUnion reads a union written by Encode.
func DecodeUnion(r *bitio.Reader) (Union, error) {
	n, err := r.ReadDelta0()
	if err != nil {
		return Union{}, err
	}
	u := Union{}
	for i := uint64(0); i < n; i++ {
		iv, err := DecodeInterval(r)
		if err != nil {
			return Union{}, err
		}
		u = u.AddInterval(iv)
	}
	return u, nil
}

// Key returns a canonical string for use as a map key.
func (u Union) Key() string {
	return string(u.AppendKey(make([]byte, 0, (u.EncodedBits()+7)/8)))
}

// AppendKey appends the bytes of Key to dst. It writes into dst's spare
// capacity and grows dst as append does, so a caller that reuses its buffer
// or sizes it from EncodedBits pays no allocation.
func (u Union) AppendKey(dst []byte) []byte {
	w := bitio.AppendWriter(dst)
	u.Encode(&w)
	return w.Bytes()
}

// MaxEndpointPrec returns the largest fraction-bit length among the end
// points of u; Theorem 4.3 bounds this by O(|V| log dout).
func (u Union) MaxEndpointPrec() uint {
	var p uint
	for _, iv := range u.ivs {
		if q := iv.Lo.Prec(); q > p {
			p = q
		}
		if q := iv.Hi.Prec(); q > p {
			p = q
		}
	}
	return p
}

// CanonicalPartition partitions u into d >= 1 disjoint interval-unions per
// the paper's Section 4 rule: with u = I_1 ∪ ... ∪ I_r (maximal intervals),
// split I_1 into d-1 pieces for the first d-1 parts and give ∪_{k>=2} I_k to
// the last part.
//
// Faithfulness note (docs/ARCHITECTURE.md, "Faithfulness notes"): when r == 1 the paper's literal rule
// would leave the last part empty and the subgraph behind the corresponding
// out-edge would never be visited, contradicting Theorem 4.2. We therefore
// split I_1 into d pieces in that case. Every vertex still splits at most one
// interval, into at most d parts, preserving the Theorem 4.3 length bound.
func (u Union) CanonicalPartition(d int) []Union {
	out := make([]Union, max(d, 0))
	u.PartitionInto(out, false)
	return out
}

// PartitionInto writes the partition of u into d = len(parts) >= 1 parts:
// CanonicalPartition's when literal is false, and when it is true the paper's
// Section 4 rule taken literally: I_1 is always split into d-1 parts and the
// last part gets the remaining intervals, which is EMPTY when u is a single
// interval. The literal rule exists only for the E12 ablation, which
// demonstrates that it lets the terminal declare termination while vertices
// behind the starved out-edge never received the broadcast, violating
// Theorem 4.2 as stated.
//
// Apart from parts[0] = u when d == 1, the parts are capped windows of one
// new slice holding the pieces of I_1 followed by a copy of the rest, so a
// partition costs one allocation and an append to one part copies instead
// of overwriting the next. Like any union adopted from elsewhere, a part is
// never absorbed into.
func (u Union) PartitionInto(parts []Union, literal bool) {
	d := len(parts)
	if d < 1 {
		panic("interval: CanonicalPartition requires d >= 1")
	}
	if u.IsEmpty() {
		panic("interval: CanonicalPartition of an empty union")
	}
	if d == 1 {
		parts[0] = u
		return
	}
	k := d - 1 // pieces of I_1
	if len(u.ivs) == 1 && !literal {
		k = d
	}
	rest := u.ivs[1:]
	buf := u.ivs[0].appendSplit(make([]Interval, 0, k+len(rest)), k)
	for i := range k {
		parts[i] = Union{ivs: buf[i : i+1 : i+1]}
	}
	if k < d {
		_, parts[d-1] = AppendCopy(buf, Union{ivs: rest})
	}
}
