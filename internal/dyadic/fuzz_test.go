package dyadic

import (
	"math/big"
	"testing"

	"repro/internal/bitio"
)

// FuzzDecode checks the dyadic decoder never panics and that accepted values
// are normalized (re-encode identically).
func FuzzDecode(f *testing.F) {
	for _, d := range []D{Zero(), One(), Pow2(7), FromFrac(5, 3)} {
		var w bitio.Writer
		d.Encode(&w)
		f.Add(w.Bytes(), w.Len())
	}
	f.Add([]byte{0b01010101, 0xff}, 16)
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		if bits < 0 || bits > len(data)*8 {
			return
		}
		d, err := Decode(bitio.NewReader(data, bits))
		if err != nil {
			return
		}
		var w bitio.Writer
		d.Encode(&w)
		d2, err := Decode(bitio.NewReader(w.Bytes(), w.Len()))
		if err != nil || !d2.Equal(d) {
			t.Fatalf("round trip failed: %s vs %s (%v)", d, d2, err)
		}
	})
}

// FuzzArithMatchesBig checks the arithmetic against math/big on operands
// that straddle the one-word boundary: numerators of up to 66 bits with
// precisions 0-200, the second operand shifted by 0-130 more bits, so the
// inline path, the carry out of a word and the multi-limb path all meet.
// Every result must equal the reference, be canonical and carry the
// reference's Key; every result in [0, 1] must round-trip through Encode.
func FuzzArithMatchesBig(f *testing.F) {
	f.Add(uint64(1<<63), uint8(0), uint8(64), uint64(1<<63), uint8(0), uint8(64), uint8(0), uint64(3))
	f.Add(^uint64(0), uint8(0), uint8(64), uint64(1), uint8(0), uint8(64), uint8(0), uint64(2))
	f.Add(uint64(1<<63+1), uint8(1), uint8(65), uint64(1<<63-1), uint8(0), uint8(1), uint8(1), uint64(7))
	f.Add(uint64(12345), uint8(0), uint8(200), uint64(3), uint8(0), uint8(5), uint8(130), uint64(1<<40+1))
	f.Add(uint64(1), uint8(0), uint8(0), uint64(1), uint8(0), uint8(0), uint8(64), uint64(1<<63))
	f.Add(^uint64(0), uint8(3), uint8(66), ^uint64(0), uint8(3), uint8(130), uint8(63), ^uint64(0))
	f.Fuzz(func(t *testing.T, alo uint64, ahi, ap uint8, blo uint64, bhi, bp, k uint8, c uint64) {
		a, ra := fuzzOperand(alo, ahi, ap)
		b, rb := fuzzOperand(blo, bhi, bp)
		shift := uint(k) % 131
		b, rb = b.Shr(shift), new(big.Rat).Quo(rb, pow2Rat(shift))
		checkRef(t, "a", a, ra)
		checkRef(t, "b", b, rb)

		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
		}
		if got, want := b.Cmp(a), rb.Cmp(ra); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", b, a, got, want)
		}
		sum := a.Add(b)
		rsum := new(big.Rat).Add(ra, rb)
		checkRef(t, "Add", sum, rsum)
		hi, lo, rhi, rlo := a, b, ra, rb
		if ra.Cmp(rb) < 0 {
			hi, lo, rhi, rlo = b, a, rb, ra
		}
		diff := hi.Sub(lo)
		checkRef(t, "Sub", diff, new(big.Rat).Sub(rhi, rlo))

		bKey := b.Key()
		acc := a.Clone()
		acc.Absorb(b)
		checkRef(t, "Absorb", acc, rsum)
		acc.Absorb(sum) // grows in place once acc owns limbs
		checkRef(t, "Absorb twice", acc, new(big.Rat).Add(rsum, rsum))
		if b.Key() != bKey {
			t.Fatalf("Absorb wrote its operand %s", b)
		}
		checkRef(t, "Shr", sum.Shr(shift), new(big.Rat).Quo(rsum, pow2Rat(shift)))
		checkRef(t, "MulUint", a.MulUint(c), new(big.Rat).Mul(ra, new(big.Rat).SetInt(new(big.Int).SetUint64(c))))

		one := big.NewRat(1, 1)
		for _, v := range []struct {
			d D
			r *big.Rat
		}{{a, ra}, {b, rb}, {sum, rsum}, {diff, new(big.Rat).Sub(rhi, rlo)}} {
			if v.r.Cmp(one) > 0 {
				continue
			}
			var w bitio.Writer
			v.d.Encode(&w)
			wantBits := 1
			if !v.d.IsOne() {
				wantBits = 1 + bitio.Delta0Len(uint64(v.d.Prec())) + int(v.d.Prec())
			}
			if w.Len() != wantBits || v.d.EncodedBits() != wantBits {
				t.Fatalf("Encode(%s) wrote %d bits, EncodedBits %d, want %d", v.d, w.Len(), v.d.EncodedBits(), wantBits)
			}
			got, err := Decode(bitio.NewReader(w.Bytes(), w.Len()))
			if err != nil {
				t.Fatalf("Decode(Encode(%s)): %v", v.d, err)
			}
			checkRef(t, "Decode", got, v.r)
		}
	})
}

// fuzzOperand builds the value (hi%4 · 2^64 + lo) / 2^(p%201) through
// normalize, with its math/big reference.
func fuzzOperand(lo uint64, hi, p uint8) (D, *big.Rat) {
	h, prec := uint64(hi%4), uint(p)%201
	num := new(big.Int).Lsh(new(big.Int).SetUint64(h), 64)
	num.Or(num, new(big.Int).SetUint64(lo))
	return normalize([]uint64{lo, h}, prec), new(big.Rat).SetFrac(num, new(big.Int).Lsh(big.NewInt(1), prec))
}

func pow2Rat(k uint) *big.Rat {
	return new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), k))
}

// checkRef fails unless d equals r, is canonical, and has the Key the
// reduced fraction r spells: its precision, then its numerator limbs.
func checkRef(t *testing.T, what string, d D, r *big.Rat) {
	t.Helper()
	checkCanonical(t, what, d)
	l := d.limbs()
	words := make([]big.Word, len(l))
	for i, v := range l {
		words[i] = big.Word(v)
	}
	got := new(big.Rat).SetFrac(new(big.Int).SetBits(words), new(big.Int).Lsh(big.NewInt(1), d.Prec()))
	if got.Cmp(r) != 0 {
		t.Fatalf("%s = %s (%s), want %s", what, d, got.RatString(), r.RatString())
	}
	prec := r.Denom().BitLen() - 1
	var w bitio.Writer
	w.WriteDelta0(uint64(prec))
	nw := r.Num().Bits()
	for i := len(nw) - 1; i >= 0; i-- {
		w.WriteBits(uint64(nw[i]), 64)
	}
	if d.Key() != string(w.Bytes()) {
		t.Fatalf("%s = %s: Key %x, want %x", what, d, d.Key(), w.Bytes())
	}
}
