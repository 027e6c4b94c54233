package bitio

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
)

// refWriter is the bit-at-a-time writer the byte-oriented Writer must match:
// every code is spelled out one WriteBit at a time.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) bit(b uint64) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

func (w *refWriter) bits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.bit(v >> uint(i) & 1)
	}
}

func (w *refWriter) unary(v uint64) {
	for ; v > 0; v-- {
		w.bit(0)
	}
	w.bit(1)
}

func (w *refWriter) gamma(v uint64) {
	n := bits.Len64(v) - 1
	w.unary(uint64(n))
	w.bits(v, n)
}

func (w *refWriter) delta(v uint64) {
	n := bits.Len64(v)
	w.gamma(uint64(n))
	w.bits(v, n-1)
}

// FuzzWriterMatchesBitwise checks that any sequence of writes, after an
// optional AppendWriter prefix, produces the same bytes and length as the
// bit-at-a-time reference. The input is a program: a prefix length byte,
// then one opcode byte per write followed by its operand bytes.
func FuzzWriterMatchesBitwise(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 9, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77})
	f.Add([]byte{3, 0xa5, 0x5a, 0xff, 2, 17, 3, 40, 1, 64, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0x80, 0, 1, 1, 7, 0x7f, 2, 0, 4, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 5, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		pre := min(int(prog[0])%8, len(prog)-1)
		prefix, prog := prog[1:1+pre], prog[1+pre:]
		// The prefix lives in a buffer with spare capacity full of garbage,
		// which the writer must overwrite, never OR into.
		dst := append(bytes.Repeat([]byte{0xff}, 16)[:0], prefix...)
		w := AppendWriter(dst)
		ref := refWriter{buf: append([]byte(nil), prefix...), nbit: 8 * len(prefix)}
		operand := func(k int) uint64 {
			var b [8]byte
			k = copy(b[8-min(k, len(prog)):], prog)
			prog = prog[k:]
			return binary.BigEndian.Uint64(b[:])
		}
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			switch op % 5 {
			case 0:
				b := uint(op>>3) & 1
				w.WriteBit(b)
				ref.bit(uint64(b))
			case 1:
				n := int(op>>3) % 65
				v := operand((n + 7) / 8)
				w.WriteBits(v, n)
				if n < 64 {
					v &= 1<<uint(n) - 1
				}
				ref.bits(v, n)
			case 2:
				v := uint64(op>>3) * 3
				w.WriteUnary(v)
				ref.unary(v)
			case 3:
				v := operand(int(op>>3)%8+1) | 1
				w.WriteGamma(v)
				ref.gamma(v)
			case 4:
				v := operand(int(op>>3)%8+1) | 1
				w.WriteDelta(v)
				ref.delta(v)
			}
			if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
				t.Fatalf("after op %d: writer %d bits %x, reference %d bits %x",
					op, w.Len(), w.Bytes(), ref.nbit, ref.buf)
			}
		}
	})
}
