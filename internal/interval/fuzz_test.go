package interval

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzUnion builds a canonical union from byte pairs: each pair (x, y) adds
// [min/64, max/64) on a grid coarse enough that the two operands' end points
// often coincide, touch and overlap.
func fuzzUnion(b []byte) Union {
	u := EmptyUnion()
	for i := 0; i+1 < len(b) && i < 32; i += 2 {
		x, y := uint64(b[i]%65), uint64(b[i+1]%65)
		u = u.AddInterval(Interval{Lo: d(min(x, y), 6), Hi: d(max(x, y), 6)})
	}
	return u
}

// canonical reports why u is not in canonical form: its intervals must be
// non-empty, sorted, and neither overlapping nor touching.
func canonical(u Union) error {
	for i, iv := range u.ivs {
		if iv.IsEmpty() {
			return fmt.Errorf("interval %d %s is empty", i, iv)
		}
		if i > 0 && u.ivs[i-1].Hi.Cmp(iv.Lo) >= 0 {
			return fmt.Errorf("intervals %d %s and %d %s overlap or touch", i-1, u.ivs[i-1], i, iv)
		}
	}
	return nil
}

// FuzzUnionAlgebra checks AppendUnion, AppendIntersect, AppendSubtract,
// AppendCopy, AppendFixed and Absorb against the AddInterval references of
// oracle_test.go. Every Append call writes into a destination that already
// holds pre intervals and has spare capacity for spare more, so the
// results must ignore what the destination holds, leave it intact, and come
// back as capped windows. Every result must be canonical, and no operand
// may be written.
func FuzzUnionAlgebra(f *testing.F) {
	f.Add([]byte{0, 8, 16, 24}, []byte{4, 20}, uint8(0), uint8(0))
	f.Add([]byte{0, 64}, []byte{8, 16, 16, 24, 40, 48}, uint8(2), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{2, 3, 6, 7}, uint8(1), uint8(8))
	f.Add([]byte{10, 20}, []byte{20, 30}, uint8(3), uint8(1))
	f.Add([]byte{}, []byte{5, 9}, uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, x, y []byte, pre, spare uint8) {
		a, b := fuzzUnion(x), fuzzUnion(y)
		ka, kb := a.Key(), b.Key()
		// The destination's prefix is the clobber interval: not a union
		// with either operand, and easy to tell from any result.
		prefix := make([]Interval, pre%8, int(pre%8)+int(spare%16))
		for i := range prefix {
			prefix[i] = Interval{Lo: d(3, 3), Hi: d(1, 1)}
		}
		check := func(op string, want Union, appendOp func(dst []Interval) ([]Interval, Union)) {
			t.Helper()
			dst := append(make([]Interval, 0, cap(prefix)), prefix...)
			out, got := appendOp(dst)
			if got.Key() != want.Key() {
				t.Fatalf("%s(%s, %s) = %s, want %s", op, a, b, got, want)
			}
			if err := canonical(got); err != nil {
				t.Fatalf("%s(%s, %s) = %s is not canonical: %v", op, a, b, got, err)
			}
			if !slices.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s wrote into the destination's first %d intervals", op, len(prefix))
			}
			if len(out) != len(prefix)+got.NumIntervals() || !slices.Equal(out[len(prefix):], got.ivs) {
				t.Fatalf("%s: the returned slice is not the destination followed by the result", op)
			}
			if cap(got.ivs) != len(got.ivs) {
				t.Fatalf("%s: result has capacity %d for %d intervals, want a capped window", op, cap(got.ivs), len(got.ivs))
			}
			if a.Key() != ka || b.Key() != kb {
				t.Fatalf("%s wrote into an operand", op)
			}
		}
		check("AppendUnion", refUnion(a, b), func(dst []Interval) ([]Interval, Union) { return AppendUnion(dst, a, b) })
		check("AppendIntersect", refIntersect(a, b), func(dst []Interval) ([]Interval, Union) { return AppendIntersect(dst, a, b) })
		check("AppendSubtract", refSubtract(a, b), func(dst []Interval) ([]Interval, Union) { return AppendSubtract(dst, a, b) })
		check("AppendCopy", a, func(dst []Interval) ([]Interval, Union) { return AppendCopy(dst, a) })
		// AppendFixed takes the operands' intervals in fixed point and in
		// any order: b's reversed, then a's.
		ivs := append(slices.Clone(b.ivs), a.ivs...)
		slices.Reverse(ivs[:len(b.ivs)])
		fs := make([]Fixed, len(ivs))
		for i, iv := range ivs {
			var ok bool
			if fs[i], ok = iv.Fixed(); !ok {
				t.Fatalf("%s has no fixed-point form", iv)
			}
		}
		check("AppendFixed", refUnion(a, b), func(dst []Interval) ([]Interval, Union) { return AppendFixed(dst, fs) })

		// Absorb into an owned accumulator with spare capacity, as the
		// protocols grow their state.
		acc := Union{ivs: slices.Grow(slices.Clone(a.ivs), int(spare%16))}
		acc.Absorb(b)
		if want := refUnion(a, b); acc.Key() != want.Key() {
			t.Fatalf("Absorb(%s, %s) = %s, want %s", a, b, acc, want)
		}
		if err := canonical(acc); err != nil {
			t.Fatalf("Absorb(%s, %s) = %s is not canonical: %v", a, b, acc, err)
		}
		if a.Key() != ka || b.Key() != kb {
			t.Fatal("Absorb wrote into an operand")
		}
	})
}
