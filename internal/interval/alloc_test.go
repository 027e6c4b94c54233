package interval

import (
	"testing"
	"unsafe"
)

func TestSizeOfInterval(t *testing.T) {
	if got := unsafe.Sizeof(Interval{}); got > 48 {
		t.Fatalf("Interval is %d bytes, want <= 48", got)
	}
}

// TestCanonicalPartitionAllocs pins the cost of a partition: the parts
// slice plus Split's one slice of pieces, whose one-interval windows the
// parts share, plus a copy of the rest when u has more than one interval.
// The end points take the dyadic word-sized path and allocate nothing.
func TestCanonicalPartitionAllocs(t *testing.T) {
	single := NewUnion(iv(3, 4, 13, 4))
	multi := NewUnion(iv(1, 3, 3, 3), iv(5, 3, 7, 3), iv(15, 4, 1, 0))
	for _, c := range []struct {
		name string
		u    Union
		d    int
		want float64
	}{
		{"single/d=2", single, 2, 2},
		{"single/d=7", single, 7, 2},
		{"multi/d=2", multi, 2, 3},
		{"multi/d=6", multi, 6, 3},
		{"multi/d=1", multi, 1, 1},
	} {
		var parts []Union
		n := testing.AllocsPerRun(100, func() { parts = c.u.CanonicalPartition(c.d) })
		if n != c.want {
			t.Errorf("%s: CanonicalPartition allocates %.0f times, want %.0f", c.name, n, c.want)
		}
		checkPartition(t, c.u, parts)
		for i, p := range parts {
			if p.NumIntervals() == 1 && cap(p.Intervals()) != 1 {
				t.Errorf("%s: part %d has capacity %d, want a capped window", c.name, i, cap(p.Intervals()))
			}
		}
	}
}
