package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
)

// tracedCtx is a representative non-trivial context: all three fields
// non-zero, with a trace id that exercises the full uvarint width.
var tracedCtx = model.TraceCtx{Trace: 0x9E3779B97F4A7C15, Span: 0x01000007, Parent: 0xFF000001}

// TestCtxRoundTrip pushes a traced envelope of every message kind
// through the codec: the context must survive byte-exactly, and the
// message must be unaffected by its presence.
func TestCtxRoundTrip(t *testing.T) {
	for _, base := range binaryEnvelopes() {
		env := base
		env.Ctx = tracedCtx
		bin, err := new(FrameEncoder).Encode(&env)
		if err != nil {
			t.Fatalf("%s: encode: %v", Kind(env.Msg), err)
		}
		out, err := NewDecoder().Decode(bin)
		if err != nil {
			t.Fatalf("%s: decode: %v", Kind(env.Msg), err)
		}
		if !reflect.DeepEqual(out, env) {
			t.Errorf("%s: traced round trip drifted:\n got %#v\nwant %#v",
				Kind(env.Msg), out, env)
		}
	}
}

// TestCtxZeroFramesUnchanged is the compatibility contract: an envelope
// with the zero context encodes to the exact bytes the pre-tracing wire
// format produced — no flag bit, no context bytes. This is what keeps
// untraced runs (and golden traces) byte-identical.
func TestCtxZeroFramesUnchanged(t *testing.T) {
	for _, env := range binaryEnvelopes() {
		plain, err := new(FrameEncoder).Encode(&env)
		if err != nil {
			t.Fatal(err)
		}
		if plain[0]&ctxKindFlag != 0 {
			t.Errorf("%s: zero-ctx binary frame carries ctx flag", Kind(env.Msg))
		}
		traced := env
		traced.Ctx = tracedCtx
		tb, err := new(FrameEncoder).Encode(&traced)
		if err != nil {
			t.Fatal(err)
		}
		if tb[0]&ctxKindFlag == 0 {
			t.Errorf("%s: traced binary frame missing ctx flag", Kind(env.Msg))
		}
		if len(tb) <= len(plain) {
			t.Errorf("%s: traced frame (%d bytes) not longer than plain (%d)",
				Kind(env.Msg), len(tb), len(plain))
		}

	}
}

// TestCtxZeroEncodingIsByteStable pins the exact zero-ctx bytes against
// a frame hand-assembled without any context logic: flag stripped and
// context spliced out of a traced frame must equal the plain frame.
func TestCtxZeroEncodingIsByteStable(t *testing.T) {
	env := benchEnvelope()
	plain, err := new(FrameEncoder).Encode(&env)
	if err != nil {
		t.Fatal(err)
	}
	traced := env
	traced.Ctx = tracedCtx
	tb, err := new(FrameEncoder).Encode(&traced)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: kind byte, From, To uvarints, then (traced only) the three
	// context uvarints, then the payload. Splice the context back out.
	ctxLen := len(appendCtx(nil, tracedCtx))
	// From/To for benchEnvelope are single-byte uvarints.
	head, tail := tb[:3], tb[3+ctxLen:]
	rebuilt := append([]byte{head[0] &^ ctxKindFlag}, head[1:]...)
	rebuilt = append(rebuilt, tail...)
	if !bytes.Equal(rebuilt, plain) {
		t.Errorf("zero-ctx frame is not the traced frame minus the context:\n got %x\nwant %x",
			rebuilt, plain)
	}
}

// TestCtxTruncatedFrames cuts traced frames inside and after the context
// bytes: every cut must produce a graceful error or a clean decode,
// never a panic, and cuts that remove payload must error.
func TestCtxTruncatedFrames(t *testing.T) {
	env := benchEnvelope()
	env.Ctx = tracedCtx
	frame, err := new(FrameEncoder).Encode(&env)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("[:%d]: decode panicked: %v", cut, r)
				}
			}()
			if _, err := NewDecoder().Decode(frame[:cut]); err == nil {
				t.Errorf("[:%d]: truncated traced frame decoded without error", cut)
			}
		}()
	}
}

// --- propagation overhead ---

// benchCtxPropagation is one hot-path message hop as the engines run it:
// encode with whatever context the envelope carries, borrowed decode,
// then the span-record call every instrumented site makes (which must
// early-return for zero contexts and disabled recorders).
func benchCtxPropagation(b *testing.B, ctx model.TraceCtx, rec *trace.Recorder) {
	env := benchEnvelope()
	env.Ctx = ctx
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
		rec.Span(1, out.Ctx, "bench-phase", 0, time.Microsecond, model.TxnID{})
	}
}

// BenchmarkCtxPropagationDisabled: tracing compiled in, recorder off,
// zero context — the production default. The baseline the other two
// compare against; the alloc ceiling below holds it to the untraced
// budget exactly.
func BenchmarkCtxPropagationDisabled(b *testing.B) {
	benchCtxPropagation(b, model.TraceCtx{}, trace.New(1024))
}

// BenchmarkCtxPropagationSampledOut: recorder on, but this request was
// not sampled (zero context). Prices what every unsampled request pays
// when 1-in-N tracing is live.
func BenchmarkCtxPropagationSampledOut(b *testing.B) {
	rec := trace.New(1024)
	rec.SetEnabled(true)
	benchCtxPropagation(b, model.TraceCtx{}, rec)
}

// BenchmarkCtxPropagationTraced: recorder on, context aboard — the
// sampled request's full freight: 3 extra uvarints on the wire plus one
// ring write per span.
func BenchmarkCtxPropagationTraced(b *testing.B) {
	rec := trace.New(1024)
	rec.SetEnabled(true)
	benchCtxPropagation(b, tracedCtx, rec)
}

// TestCtxDisabledPathAllocCeiling enforces the ISSUE 8 acceptance bound:
// with tracing disabled (or the request sampled out), the message hop —
// encode, borrowed decode, span-record no-op — allocates exactly what
// the untraced hop allocates: encode 0, round trip at most the 1
// interface boxing the codec budget already allows.
func TestCtxDisabledPathAllocCeiling(t *testing.T) {
	for name, rec := range map[string]*trace.Recorder{
		"disabled":   trace.New(64),
		"sampledOut": func() *trace.Recorder { r := trace.New(64); r.SetEnabled(true); return r }(),
	} {
		env := benchEnvelope() // zero ctx: untraced or sampled out
		enc := new(FrameEncoder)
		dec := NewDecoder()
		var out Envelope
		frame, err := enc.Encode(&env)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeBorrowed(frame, &out); err != nil {
			t.Fatal(err)
		}
		encAllocs := testing.AllocsPerRun(200, func() {
			if _, err := enc.Encode(&env); err != nil {
				t.Fatal(err)
			}
			rec.Span(1, env.Ctx, "bench-phase", 0, time.Microsecond, model.TxnID{})
		})
		if encAllocs != 0 {
			t.Errorf("%s: encode+span costs %.1f allocs/op, want 0", name, encAllocs)
		}
		allocs := testing.AllocsPerRun(200, func() {
			frame, err := enc.Encode(&env)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.DecodeBorrowed(frame, &out); err != nil {
				t.Fatal(err)
			}
			rec.Span(1, out.Ctx, "bench-phase", 0, time.Microsecond, model.TxnID{})
		})
		if allocs > 1 {
			t.Errorf("%s: round trip costs %.1f allocs/op, want <= 1", name, allocs)
		}
	}
}
