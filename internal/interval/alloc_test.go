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
// slice plus one slice holding the pieces of the first interval and a copy
// of the rest, whose windows the parts are. The end points take the dyadic
// word-sized path and allocate nothing. PartitionInto, which is given the
// parts, costs the one slice alone.
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
		{"multi/d=2", multi, 2, 2},
		{"multi/d=6", multi, 6, 2},
		{"multi/d=1", multi, 1, 1},
	} {
		var parts []Union
		n := testing.AllocsPerRun(100, func() { parts = c.u.CanonicalPartition(c.d) })
		if n != c.want {
			t.Errorf("%s: CanonicalPartition allocates %.0f times, want %.0f", c.name, n, c.want)
		}
		checkPartition(t, c.u, parts)
		for i, p := range parts {
			if c.d > 1 && cap(p.Intervals()) != p.NumIntervals() {
				t.Errorf("%s: part %d has capacity %d, want a capped window", c.name, i, cap(p.Intervals()))
			}
		}
		into := make([]Union, c.d)
		want := c.want - 1
		if c.d == 1 {
			want = 0
		}
		if n := testing.AllocsPerRun(100, func() { c.u.PartitionInto(into, false) }); n != want {
			t.Errorf("%s: PartitionInto allocates %.0f times, want %.0f", c.name, n, want)
		}
		checkPartition(t, c.u, into)
	}
}
