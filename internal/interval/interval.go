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
	"fmt"
	"math/bits"
	"slices"
	"sort"
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

// Split partitions [Lo, Hi) into k >= 1 disjoint intervals using the paper's
// power-of-2 rule (proof of Theorem 4.3): with N the smallest power of 2 with
// N >= k and delta = (Hi-Lo)/N, it yields k-1 intervals of size delta and one
// final interval [Lo+(k-1)delta, Hi). Each new end point costs only O(log k)
// additional bits relative to the end points of the input interval, which is
// what bounds label and symbol lengths by O(|V| log dout).
func (iv Interval) Split(k int) []Interval {
	if k < 1 {
		panic("interval: Split requires k >= 1")
	}
	if iv.IsEmpty() {
		panic("interval: Split of an empty interval")
	}
	if k == 1 {
		return []Interval{iv}
	}
	logN := uint(bits.Len(uint(k - 1))) // ceil(log2 k)
	delta := iv.Hi.Sub(iv.Lo).Shr(logN)
	out := make([]Interval, k)
	lo := iv.Lo
	for i := 0; i < k-1; i++ {
		hi := lo.Add(delta)
		out[i] = Interval{Lo: lo, Hi: hi}
		lo = hi
	}
	out[k-1] = Interval{Lo: lo, Hi: iv.Hi}
	return out
}

// Union is a finite union of disjoint, non-adjacent, non-empty intervals in
// canonical form: sorted by Lo. The zero value is the empty union.
//
// Unions are value types: operations return new unions and never mutate
// their receivers or arguments, and Union, Intersect and Subtract return
// storage of their own. The one exception is Absorb, which grows an
// accumulator in place.
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

// Union returns u ∪ o. It walks the smaller operand and gallops through the
// larger one, copying the runs that cannot touch the small side wholesale:
// one allocation, O(k log n) comparisons for a k-interval union against an
// n-interval one, and O(n+k) for operands of similar size.
func (u Union) Union(o Union) Union {
	if len(u.ivs) < len(o.ivs) {
		u, o = o, u
	}
	if len(u.ivs) == 0 {
		return Union{}
	}
	out := make([]Interval, 0, len(u.ivs)+len(o.ivs))
	i := 0
	for _, b := range o.ivs {
		// Copy the intervals of u that end before b starts, not touching it.
		k := seek(u.ivs, i, func(a Interval) bool { return a.Hi.Cmp(b.Lo) < 0 })
		out = append(out, u.ivs[i:k]...)
		i = k
		lo, hi := b.Lo, b.Hi
		// The previous merged interval may reach b through a long u interval.
		if n := len(out); n > 0 && out[n-1].Hi.Cmp(lo) >= 0 {
			lo, hi = out[n-1].Lo, maxD(hi, out[n-1].Hi)
			out = out[:n-1]
		}
		for ; i < len(u.ivs) && u.ivs[i].Lo.Cmp(hi) <= 0; i++ {
			lo, hi = minD(lo, u.ivs[i].Lo), maxD(hi, u.ivs[i].Hi)
		}
		out = append(out, Interval{Lo: lo, Hi: hi})
	}
	return Union{ivs: append(out, u.ivs[i:]...)}
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
		i = seek(u.ivs, i, func(a Interval) bool { return a.Hi.Cmp(b.Lo) < 0 })
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

// Intersect returns u ∩ o. It walks the smaller operand and gallops past the
// intervals of the larger one that end before the current small interval.
func (u Union) Intersect(o Union) Union {
	if len(u.ivs) < len(o.ivs) {
		u, o = o, u
	}
	var out []Interval
	i := 0
	for _, b := range o.ivs {
		i = seek(u.ivs, i, func(a Interval) bool { return a.Hi.Cmp(b.Lo) <= 0 })
		for ; i < len(u.ivs) && u.ivs[i].Lo.Cmp(b.Hi) < 0; i++ {
			a := u.ivs[i]
			out = append(out, Interval{Lo: maxD(a.Lo, b.Lo), Hi: minD(a.Hi, b.Hi)})
			if a.Hi.Cmp(b.Hi) > 0 {
				break // a reaches past b and may meet the next interval of o
			}
		}
	}
	return Union{ivs: out}
}

// Subtract returns u \ o. Runs of u that no interval of o reaches are copied
// wholesale, and intervals of o that end before the current interval of u
// are galloped past, so a small operand on either side costs O(k log n)
// comparisons.
func (u Union) Subtract(o Union) Union {
	var out []Interval
	i, j := 0, 0
	for i < len(u.ivs) {
		if j == len(o.ivs) {
			out = append(out, u.ivs[i:]...)
			break
		}
		// Copy the intervals of u that end before o[j] starts.
		k := seek(u.ivs, i, func(a Interval) bool { return a.Hi.Cmp(o.ivs[j].Lo) <= 0 })
		out = append(out, u.ivs[i:k]...)
		if i = k; i == len(u.ivs) {
			break
		}
		a := u.ivs[i]
		j = seek(o.ivs, j, func(b Interval) bool { return b.Hi.Cmp(a.Lo) <= 0 })
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
	return Union{ivs: out}
}

// seek returns the first index k >= i with !before(ivs[k]) (or len(ivs)),
// where before holds on a prefix of ivs. It gallops from i and then binary
// searches the last step, costing O(log(k-i)) calls of before.
func seek(ivs []Interval, i int, before func(Interval) bool) int {
	if i >= len(ivs) || !before(ivs[i]) {
		return i
	}
	step := 1 // invariant: before(ivs[i])
	for i+step < len(ivs) && before(ivs[i+step]) {
		i += step
		step *= 2
	}
	hi := min(i+step, len(ivs))
	return i + 1 + sort.Search(hi-i-1, func(k int) bool { return !before(ivs[i+1+k]) })
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
	return string(u.AppendKey(nil))
}

// AppendKey appends the bytes of Key to dst, growing dst at most once.
func (u Union) AppendKey(dst []byte) []byte {
	dst = slices.Grow(dst, (u.EncodedBits()+7)/8)
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
	if d < 1 {
		panic("interval: CanonicalPartition requires d >= 1")
	}
	if u.IsEmpty() {
		panic("interval: CanonicalPartition of an empty union")
	}
	if d == 1 {
		return []Union{u}
	}
	out := make([]Union, d)
	if len(u.ivs) == 1 {
		for i, piece := range u.ivs[0].Split(d) {
			out[i] = Union{ivs: []Interval{piece}}
		}
		return out
	}
	for i, piece := range u.ivs[0].Split(d - 1) {
		out[i] = Union{ivs: []Interval{piece}}
	}
	rest := Union{ivs: append([]Interval(nil), u.ivs[1:]...)}
	out[d-1] = rest
	return out
}

// CanonicalPartitionLiteral is the paper's Section 4 rule taken literally:
// I_1 is always split into d-1 parts and the last part gets the remaining
// intervals — which is EMPTY when u is a single interval. It exists only for
// the E12 ablation, which demonstrates that the literal rule lets the
// terminal declare termination while vertices behind the starved out-edge
// never received the broadcast, violating Theorem 4.2 as stated. Production
// protocols use CanonicalPartition.
func (u Union) CanonicalPartitionLiteral(d int) []Union {
	if d < 1 {
		panic("interval: CanonicalPartitionLiteral requires d >= 1")
	}
	if u.IsEmpty() {
		panic("interval: CanonicalPartitionLiteral of an empty union")
	}
	if d == 1 {
		return []Union{u}
	}
	out := make([]Union, d)
	for i, piece := range u.ivs[0].Split(d - 1) {
		out[i] = Union{ivs: []Interval{piece}}
	}
	out[d-1] = Union{ivs: append([]Interval(nil), u.ivs[1:]...)}
	return out
}
