package wire

import (
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

func benchEnvelope() Envelope {
	return Envelope{From: 1, To: 2, Msg: Prepare{
		Txn:   model.TxnID{Start: 1, P: 1, Seq: 1},
		Epoch: model.VPID{N: 3, P: 1}, HasEpoch: true,
		Writes: []ObjWrite{{Obj: "x", Val: 42,
			Ver: model.Version{Date: model.VPID{N: 3, P: 1}, Ctr: 9}}},
	}}
}

// BenchmarkWireRoundTrip is the headline hot-path number: a warm
// binary-codec round-trip (encode + borrowed decode) of a one-write
// Prepare. Borrowed mode reuses the decoder's scratch backings, so the
// only allocation left is boxing the decoded message into the envelope's
// interface field.
func BenchmarkWireRoundTrip(b *testing.B) {
	env := benchEnvelope()
	enc := new(FrameEncoder)
	dec := NewDecoder()
	var out Envelope
	frame, err := enc.Encode(&env)
	if err != nil {
		b.Fatal(err)
	}
	if err := dec.DecodeBorrowed(frame, &out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := enc.Encode(&env)
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeBorrowed(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTripOwned is the transports' decode mode: fresh
// slice backings and interned strings, safe to enqueue. The delta vs the
// borrowed benchmark prices the ownership guarantee.
func BenchmarkWireRoundTripOwned(b *testing.B) {
	env := benchEnvelope()
	enc := new(FrameEncoder)
	dec := NewDecoder()
	var out Envelope
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := enc.Encode(&env)
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeInto(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}
