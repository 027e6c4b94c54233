package interval

import (
	"math/rand"
	"slices"
	"testing"
)

func benchUnions(n int) (Union, Union) {
	rng := rand.New(rand.NewSource(1))
	return randUnion(rng, n, 16), randUnion(rng, n, 16)
}

// smallIntoLarge is the protocols' real shape: a one-interval message
// against a 256-interval accumulated union. The message covers interval 100
// of the large union and the gap after it, so a union coalesces two large
// intervals into one and a subtraction leaves exactly the gap.
func smallIntoLarge() (small, large Union) {
	large = sparseUnion(rand.New(rand.NewSource(1)), 256, 16)
	return NewUnion(Interval{Lo: large.ivs[100].Lo, Hi: large.ivs[101].Lo}), large
}

func BenchmarkUnion(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		x, y := benchUnions(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.Union(y)
			}
		})
	}
	small, large := smallIntoLarge()
	b.Run("n1_into_n256", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			large.Union(small)
		}
	})
}

func BenchmarkSubtract(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		x, y := benchUnions(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.Subtract(y)
			}
		})
	}
	small, large := smallIntoLarge()
	b.Run("n1_into_n256", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			small.Subtract(large)
		}
	})
}

// BenchmarkAbsorb times growing an owned accumulator in place. Each
// iteration first restores the 256-interval accumulator with one copy into
// its own storage, which is included in the time.
func BenchmarkAbsorb(b *testing.B) {
	small, large := smallIntoLarge()
	acc := large.Clone()
	acc.ivs = slices.Grow(acc.ivs, 1)
	b.Run("n1_into_n256", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			acc.ivs = append(acc.ivs[:0], large.ivs...)
			acc.Absorb(small)
		}
	})
}

func BenchmarkCanonicalPartition(b *testing.B) {
	u := FullUnion()
	for i := 0; i < 64; i++ {
		parts := u.CanonicalPartition(3)
		u = parts[0].Union(parts[2])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.CanonicalPartition(5)
	}
}

func sizeName(n int) string {
	return map[int]string{4: "n4", 32: "n32", 256: "n256"}[n]
}
