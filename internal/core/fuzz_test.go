package core

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/dyadic"
	"repro/internal/interval"
)

// FuzzDecodeMessage checks the wire decoder never panics on arbitrary bytes
// and that anything it accepts re-encodes to an identical symbol.
func FuzzDecodeMessage(f *testing.F) {
	// Seed with valid encodings of each message type.
	seed := []func() ([]byte, int){
		func() ([]byte, int) {
			var w bitio.Writer
			_ = EncodeMessage(&w, pow2Msg{payload: Payload("ab"), exp: 5})
			return w.Bytes(), w.Len()
		},
		func() ([]byte, int) {
			var w bitio.Writer
			_ = EncodeMessage(&w, NewGeneralBroadcast([]byte("x")).InitialMessage())
			return w.Bytes(), w.Len()
		},
		func() ([]byte, int) {
			var w bitio.Writer
			_ = EncodeMessage(&w, NewMapExtract(nil).InitialMessage())
			return w.Bytes(), w.Len()
		},
	}
	for _, s := range seed {
		data, bits := s()
		f.Add(data, bits)
	}
	f.Add([]byte{0xff, 0x00, 0xaa}, 24)
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		if bits < 0 || bits > len(data)*8 {
			return
		}
		m, err := DecodeMessage(bitio.NewReader(data, bits))
		if err != nil {
			return
		}
		// Accepted messages must re-encode and decode to the same symbol.
		var w bitio.Writer
		if err := EncodeMessage(&w, m); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		m2, err := DecodeMessage(bitio.NewReader(w.Bytes(), w.Len()))
		if err != nil {
			t.Fatalf("decode of re-encoded message failed: %v", err)
		}
		if m.Key() != m2.Key() {
			t.Fatalf("round trip changed symbol: %q vs %q", m.Key(), m2.Key())
		}
	})
}

// fuzzInterval reads an interval from two bytes: [lo/16, hi/16) with hi
// past lo. Bit 4 of a byte moves its end point inward by 2^-k with k from
// 61 to 68 (the byte's top three bits), so some end points have more than
// the 64 fraction bits the terminal stages and some have fewer.
func fuzzInterval(x, y byte) interval.Interval {
	lo := uint64(x % 16)
	hi := min(lo+1+uint64(y%16), 16)
	iv := interval.Interval{Lo: dyadic.FromFrac(lo, 4), Hi: dyadic.FromFrac(hi, 4)}
	if x&0x10 != 0 {
		iv.Lo = iv.Lo.Add(dyadic.Pow2(61 + uint(x>>5)))
	}
	if y&0x10 != 0 {
		iv.Hi = iv.Hi.Sub(dyadic.Pow2(61 + uint(y>>5)))
	}
	return iv
}

// FuzzGCTerminal feeds the general-broadcast terminal random arrival
// sequences and checks it against covers that interval.NewUnion builds from
// everything that arrived: Done after every arrival, and Output and
// StateBits whenever the input asks and after the last arrival. Asking
// merges the staged arrivals, so most steps do not ask. Each arrival is a
// header byte, whose bits 0-1 and 2-3 count the alpha and beta intervals and
// whose bit 7 asks, followed by two bytes per interval (fuzzInterval).
func FuzzGCTerminal(f *testing.F) {
	f.Add([]byte{0x01, 0, 7, 0x01, 8, 7})
	f.Add([]byte{0x02, 0, 3, 8, 3, 0x84, 4, 3, 0x05, 12, 3, 6, 1})
	f.Add([]byte{0x01, 0x10, 15, 0x01, 0, 0, 0x85, 1, 0x3f, 0x21, 0x10})
	f.Add([]byte{0x03, 0, 1, 2, 1, 4, 1, 0x03, 6, 1, 8, 1, 10, 1, 0x81, 12, 1, 0x01, 14, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		term := &gcTerminal{}
		var alphas, betas []interval.Interval
		for i := 0; len(data) > 0; i++ {
			h := data[0]
			data = data[1:]
			read := func(n int) interval.Union {
				var ivs []interval.Interval
				for ; n > 0 && len(data) >= 2; n-- {
					ivs = append(ivs, fuzzInterval(data[0], data[1]))
					data = data[2:]
				}
				return interval.NewUnion(ivs...)
			}
			m := &gcMsg{alpha: read(int(h & 3))}
			m.beta = read(int(h >> 2 & 3))
			if m.alpha.IsEmpty() && m.beta.IsEmpty() {
				continue // nodes never send an empty message
			}
			if _, err := term.Receive(m, 0); err != nil {
				t.Fatal(err)
			}
			alphas = append(alphas, m.alpha.Intervals()...)
			betas = append(betas, m.beta.Intervals()...)
			cover := interval.NewUnion(append(append([]interval.Interval(nil), alphas...), betas...)...)
			if term.Done() != cover.IsFull() {
				t.Fatalf("arrival %d: Done %v, cover %s", i, term.Done(), cover)
			}
			if h&0x80 != 0 || len(data) == 0 {
				alpha, beta := interval.NewUnion(alphas...), interval.NewUnion(betas...)
				if out := term.Output().(interval.Union); !out.Equal(cover) {
					t.Fatalf("arrival %d: Output %s, want %s", i, out, cover)
				}
				if got, want := term.StateBits(), unionsBits(alpha, beta, cover); got != want {
					t.Fatalf("arrival %d: StateBits %d, want %d", i, got, want)
				}
			}
		}
	})
}
