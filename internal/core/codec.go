package core

import (
	"fmt"
	"math/big"

	"repro/internal/bitio"
	"repro/internal/dyadic"
	"repro/internal/interval"
	"repro/internal/protocol"
)

// Wire codec: every protocol message serializes to a self-delimiting bit
// string and back. Message.Bits() counts the semantic content exactly as the
// paper's cost model does; the wire format adds only fixed framing (a 3-bit
// type tag and a payload length prefix), and the codec tests assert the
// reconciliation WireBits(m) == m.Bits() + framingBits(m) for every message
// ever transmitted, so the reported communication costs are real, not
// estimates.

// Message type tags.
const (
	tagPow2 = iota + 1
	tagNaive
	tagDAG
	tagGC
	tagMap
)

const tagBits = 3

// framingBits returns the wire overhead of a message beyond Bits(): the type
// tag plus the payload length prefix (the paper's cost model charges |m|
// bits for the payload; framing is protocol-constant).
func framingBits(m protocol.Message) int {
	n := tagBits
	switch t := m.(type) {
	case pow2Msg:
		n += bitio.Delta0Len(uint64(len(t.payload)))
	case naiveMsg:
		n += bitio.Delta0Len(uint64(len(t.payload)))
	case dagMsg:
		n += bitio.Delta0Len(uint64(len(t.payload)))
	case *gcMsg:
		n += bitio.Delta0Len(uint64(len(t.payload)))
	case mapMsg:
		n += bitio.Delta0Len(uint64(len(t.gc.payload)))
	}
	return n
}

// WireBits returns the exact wire length of the encoding produced by
// EncodeMessage.
func WireBits(m protocol.Message) (int, error) {
	var w bitio.Writer
	if err := EncodeMessage(&w, m); err != nil {
		return 0, err
	}
	return w.Len(), nil
}

// EncodeMessage appends a self-delimiting encoding of any core protocol
// message to w.
func EncodeMessage(w *bitio.Writer, m protocol.Message) error {
	switch t := m.(type) {
	case pow2Msg:
		w.WriteBits(tagPow2, tagBits)
		encPayload(w, t.payload)
		w.WriteGamma0(uint64(t.exp))
	case naiveMsg:
		w.WriteBits(tagNaive, tagBits)
		encPayload(w, t.payload)
		encBigInt(w, t.x.Num())
		encBigInt(w, t.x.Denom())
	case dagMsg:
		w.WriteBits(tagDAG, tagBits)
		encPayload(w, t.payload)
		t.x.Encode(w)
	case *gcMsg:
		w.WriteBits(tagGC, tagBits)
		encGCBody(w, t)
	case mapMsg:
		w.WriteBits(tagMap, tagBits)
		encGCBody(w, &t.gc)
		encEndpoint(w, t.sender)
		w.WriteGamma0(uint64(t.senderDeg))
		w.WriteGamma0(uint64(t.outPort))
		w.WriteGamma0(uint64(len(t.records)))
		for _, r := range t.records {
			encRecord(w, r)
		}
	default:
		return fmt.Errorf("core: cannot encode message type %T", m)
	}
	return nil
}

// DecodeMessage reads a message written by EncodeMessage.
func DecodeMessage(r *bitio.Reader) (protocol.Message, error) {
	tag, err := r.ReadBits(tagBits)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagPow2:
		payload, err := decPayload(r)
		if err != nil {
			return nil, err
		}
		exp, err := r.ReadGamma0()
		if err != nil {
			return nil, err
		}
		return pow2Msg{payload: payload, exp: uint(exp)}, nil
	case tagNaive:
		payload, err := decPayload(r)
		if err != nil {
			return nil, err
		}
		num, err := decBigInt(r)
		if err != nil {
			return nil, err
		}
		den, err := decBigInt(r)
		if err != nil {
			return nil, err
		}
		if den.Sign() == 0 {
			return nil, fmt.Errorf("core: decoded zero denominator")
		}
		x := new(big.Rat).SetFrac(num, den)
		return naiveMsg{payload: payload, x: x}, nil
	case tagDAG:
		payload, err := decPayload(r)
		if err != nil {
			return nil, err
		}
		x, err := dyadic.Decode(r)
		if err != nil {
			return nil, err
		}
		return dagMsg{payload: payload, x: x}, nil
	case tagGC:
		m, err := decGCBody(r)
		if err != nil {
			return nil, err
		}
		return &m, nil
	case tagMap:
		gc, err := decGCBody(r)
		if err != nil {
			return nil, err
		}
		sender, err := decEndpoint(r)
		if err != nil {
			return nil, err
		}
		deg, err := r.ReadGamma0()
		if err != nil {
			return nil, err
		}
		port, err := r.ReadGamma0()
		if err != nil {
			return nil, err
		}
		nrec, err := r.ReadGamma0()
		if err != nil {
			return nil, err
		}
		var records []EdgeRecord
		for i := uint64(0); i < nrec; i++ {
			rec, err := decRecord(r)
			if err != nil {
				return nil, err
			}
			records = append(records, rec)
		}
		return mapMsg{gc: gc, sender: sender, senderDeg: int(deg), outPort: int(port), records: records}, nil
	default:
		return nil, fmt.Errorf("core: unknown message tag %d", tag)
	}
}

func encPayload(w *bitio.Writer, p Payload) {
	w.WriteDelta0(uint64(len(p)))
	for i := 0; i < len(p); i++ {
		w.WriteBits(uint64(p[i]), 8)
	}
}

func decPayload(r *bitio.Reader) (Payload, error) {
	n, err := r.ReadDelta0()
	if err != nil {
		return "", err
	}
	if n*8 > uint64(r.Remaining()) {
		return "", fmt.Errorf("core: payload length %d exceeds remaining bits", n)
	}
	b, err := r.ReadBytes(int(n))
	if err != nil {
		return "", err
	}
	return Payload(b), nil
}

func encBigInt(w *bitio.Writer, v *big.Int) {
	n := v.BitLen()
	w.WriteDelta0(uint64(n))
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(uint(v.Bit(i)))
	}
}

func decBigInt(r *bitio.Reader) (*big.Int, error) {
	n, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("core: integer length %d exceeds remaining bits", n)
	}
	v := new(big.Int)
	for i := uint64(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		v.Lsh(v, 1)
		if b == 1 {
			v.SetBit(v, 0, 1)
		}
	}
	return v, nil
}

func encGCBody(w *bitio.Writer, m *gcMsg) {
	encPayload(w, m.payload)
	m.alpha.Encode(w)
	m.beta.Encode(w)
}

func decGCBody(r *bitio.Reader) (gcMsg, error) {
	payload, err := decPayload(r)
	if err != nil {
		return gcMsg{}, err
	}
	alpha, err := interval.DecodeUnion(r)
	if err != nil {
		return gcMsg{}, err
	}
	beta, err := interval.DecodeUnion(r)
	if err != nil {
		return gcMsg{}, err
	}
	return gcMsg{payload: payload, alpha: alpha, beta: beta}, nil
}

func encEndpoint(w *bitio.Writer, e Endpoint) {
	w.WriteBits(uint64(e.Kind), 2)
	if e.Kind == EndpointLabeled {
		e.Label.Encode(w)
	}
}

func decEndpoint(r *bitio.Reader) (Endpoint, error) {
	k, err := r.ReadBits(2)
	if err != nil {
		return Endpoint{}, err
	}
	e := Endpoint{Kind: EndpointKind(k)}
	switch e.Kind {
	case EndpointRoot, EndpointTerminal:
		return e, nil
	case EndpointLabeled:
		iv, err := interval.DecodeInterval(r)
		if err != nil {
			return Endpoint{}, err
		}
		return labeledEndpoint(iv), nil
	default:
		return Endpoint{}, fmt.Errorf("core: unknown endpoint kind %d", k)
	}
}

func encRecord(w *bitio.Writer, rec EdgeRecord) {
	encEndpoint(w, rec.From)
	encEndpoint(w, rec.To)
	w.WriteGamma0(uint64(rec.FromOutDeg))
	w.WriteGamma0(uint64(rec.OutPort))
	w.WriteGamma0(uint64(rec.InPort))
}

func decRecord(r *bitio.Reader) (EdgeRecord, error) {
	from, err := decEndpoint(r)
	if err != nil {
		return EdgeRecord{}, err
	}
	to, err := decEndpoint(r)
	if err != nil {
		return EdgeRecord{}, err
	}
	deg, err := r.ReadGamma0()
	if err != nil {
		return EdgeRecord{}, err
	}
	outPort, err := r.ReadGamma0()
	if err != nil {
		return EdgeRecord{}, err
	}
	inPort, err := r.ReadGamma0()
	if err != nil {
		return EdgeRecord{}, err
	}
	return EdgeRecord{From: from, To: to, FromOutDeg: int(deg), OutPort: int(outPort), InPort: int(inPort)}, nil
}

// Codec implements protocol.Codec for all core message types.
type Codec struct{}

var _ protocol.Codec = Codec{}

// Encode implements protocol.Codec.
func (Codec) Encode(m protocol.Message) ([]byte, int, error) {
	var w bitio.Writer
	if err := EncodeMessage(&w, m); err != nil {
		return nil, 0, err
	}
	return w.Bytes(), w.Len(), nil
}

// Decode implements protocol.Codec.
func (Codec) Decode(data []byte, bits int) (protocol.Message, error) {
	return DecodeMessage(bitio.NewReader(data, bits))
}
