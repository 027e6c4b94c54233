// Package bitio provides bit-granular writers, readers, and universal integer
// codes (unary, Elias gamma, Elias delta).
//
// The paper's cost model counts communication in bits: total communication
// complexity, per-edge bandwidth, and label length are all bit counts. Every
// message type in this repository derives its Bits() cost from an actual
// encoding built with this package, so the reported metrics are exact rather
// than asymptotic hand-waving.
package bitio

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the stream.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// Writer accumulates bits most-significant-bit first.
// The zero value is ready to use.
//
// The buffer always holds every bit written, the last byte zero-padded:
// len(buf) == ceil(nbit/8). Multi-bit writes fill the partial last byte and
// then append whole bytes, so their cost follows the bytes written, not the
// bits.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// AppendWriter returns a Writer whose stream continues after the bytes of
// dst: its Bytes are dst followed by the bits written, zero-padded to a byte
// boundary. It writes into dst's spare capacity before allocating.
func AppendWriter(dst []byte) Writer {
	return Writer{buf: dst, nbit: 8 * len(dst)}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the written bits packed MSB-first, zero-padded to a byte
// boundary. The returned slice aliases the writer's internal buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBit appends a single bit (any non-zero b is treated as 1).
func (w *Writer) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d out of range", n))
	}
	if n == 0 {
		return
	}
	v <<= uint(64 - n) // left-align: the next bit to write is bit 63
	if r := w.nbit % 8; r != 0 {
		// Fill the 8-r free low bits of the partial last byte.
		w.buf[len(w.buf)-1] |= byte(v >> uint(56+r))
		if n <= 8-r {
			w.nbit += n
			return
		}
		v <<= uint(8 - r)
		n -= 8 - r
		w.nbit += 8 - r
	}
	// Byte-aligned: append the rest a byte at a time; the bits below v's
	// n are zero, so the last byte comes out zero-padded.
	w.nbit += n
	for ; n > 0; n -= 8 {
		w.buf = append(w.buf, byte(v>>56))
		v <<= 8
	}
}

// WriteUnary appends v as a unary code: v zero bits followed by a one bit.
// Costs v+1 bits.
func (w *Writer) WriteUnary(v uint64) {
	// The padding of the last byte is already zero, so the zero bits need
	// only the bytes that hold them; then the one bit is set.
	one := w.nbit + int(v)
	if need := one/8 + 1 - len(w.buf); need > 0 {
		w.buf = append(w.buf, make([]byte, need)...)
	}
	w.buf[one/8] |= 1 << (7 - uint(one%8))
	w.nbit = one + 1
}

// WriteGamma appends v >= 1 as an Elias gamma code.
// Costs 2*floor(log2 v)+1 bits.
func (w *Writer) WriteGamma(v uint64) {
	if v == 0 {
		panic("bitio: WriteGamma requires v >= 1")
	}
	n := bits.Len64(v) - 1 // floor(log2 v)
	if n < 32 {
		// n zero bits and then v's n+1 bits: v itself in 2n+1 bits.
		w.WriteBits(v, 2*n+1)
		return
	}
	w.WriteUnary(uint64(n))
	w.WriteBits(v, n) // v without its leading one bit
}

// WriteGamma0 appends any v >= 0 by gamma-coding v+1.
func (w *Writer) WriteGamma0(v uint64) { w.WriteGamma(v + 1) }

// WriteDelta appends v >= 1 as an Elias delta code:
// gamma(len) followed by the value without its leading one bit.
func (w *Writer) WriteDelta(v uint64) {
	if v == 0 {
		panic("bitio: WriteDelta requires v >= 1")
	}
	n := bits.Len64(v) // number of significant bits
	if l := bits.Len64(uint64(n)) - 1; 2*l+n <= 64 {
		// gamma(n) is n in 2l+1 bits; v's low n-1 bits follow it.
		w.WriteBits(uint64(n)<<uint(n-1)|v&(1<<uint(n-1)-1), 2*l+n)
		return
	}
	w.WriteGamma(uint64(n))
	w.WriteBits(v, n-1)
}

// WriteDelta0 appends any v >= 0 by delta-coding v+1.
func (w *Writer) WriteDelta0(v uint64) { w.WriteDelta(v + 1) }

// WriteBytes appends all bits of p.
func (w *Writer) WriteBytes(p []byte) {
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// GammaLen returns the bit length of the Elias gamma code for v >= 1.
func GammaLen(v uint64) int {
	if v == 0 {
		panic("bitio: GammaLen requires v >= 1")
	}
	return 2*(bits.Len64(v)-1) + 1
}

// Gamma0Len returns the bit length of WriteGamma0(v).
func Gamma0Len(v uint64) int { return GammaLen(v + 1) }

// DeltaLen returns the bit length of the Elias delta code for v >= 1.
func DeltaLen(v uint64) int {
	if v == 0 {
		panic("bitio: DeltaLen requires v >= 1")
	}
	n := bits.Len64(v)
	return GammaLen(uint64(n)) + n - 1
}

// Delta0Len returns the bit length of WriteDelta0(v).
func Delta0Len(v uint64) int { return DeltaLen(v + 1) }

// Reader consumes bits MSB-first from a packed byte slice.
type Reader struct {
	buf  []byte
	nbit int // total bits available
	pos  int // next bit to read
}

// NewReader returns a Reader over the first nbit bits of buf.
// If nbit is negative, all of buf is available.
func NewReader(buf []byte, nbit int) *Reader {
	if nbit < 0 {
		nbit = len(buf) * 8
	}
	if nbit > len(buf)*8 {
		panic("bitio: NewReader bit count exceeds buffer")
	}
	return &Reader{buf: buf, nbit: nbit}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrUnexpectedEOF
	}
	b := uint(r.buf[r.pos/8]>>(7-uint(r.pos%8))) & 1
	r.pos++
	return b, nil
}

// ReadBits reads n bits into the low bits of the result, MSB-first.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits width %d out of range", n)
	}
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// ReadUnary reads a unary code.
func (r *Reader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return v, nil
		}
		v++
	}
}

// ReadGamma reads an Elias gamma code (result >= 1).
func (r *Reader) ReadGamma() (uint64, error) {
	n, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if n > 63 {
		return 0, fmt.Errorf("bitio: gamma code length %d too large", n)
	}
	rest, err := r.ReadBits(int(n))
	if err != nil {
		return 0, err
	}
	return 1<<n | rest, nil
}

// ReadGamma0 reads a WriteGamma0-encoded value (result >= 0).
func (r *Reader) ReadGamma0() (uint64, error) {
	v, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// ReadDelta reads an Elias delta code (result >= 1).
func (r *Reader) ReadDelta() (uint64, error) {
	n, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	if n > 64 {
		return 0, fmt.Errorf("bitio: delta code length %d too large", n)
	}
	rest, err := r.ReadBits(int(n) - 1)
	if err != nil {
		return 0, err
	}
	if n == 64 {
		return 1<<63 | rest, nil
	}
	return 1<<(n-1) | rest, nil
}

// ReadDelta0 reads a WriteDelta0-encoded value (result >= 0).
func (r *Reader) ReadDelta0() (uint64, error) {
	v, err := r.ReadDelta()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// ReadBytes reads n whole bytes.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		out[i] = byte(v)
	}
	return out, nil
}
