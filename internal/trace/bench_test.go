package trace

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// The tracing hot path: Record with the recorder enabled vs disabled vs
// nil. `make bench-observability` records these into
// BENCH_observability.json; the alloc ceilings are enforced by
// TestRecordAllocBudget.

var benchEvent = Event{
	At:   time.Millisecond,
	Proc: 3,
	Kind: EvMsgSend,
	VP:   model.VPID{N: 2, P: 1},
	Txn:  model.TxnID{Start: 1, P: 3, Seq: 9},
	Obj:  "x",
	Peer: 5,
	Msg:  "lockreq",
	Aux:  42,
}

func BenchmarkTraceRecordEnabled(b *testing.B) {
	r := New(1 << 14)
	r.SetEnabled(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(benchEvent)
	}
}

func BenchmarkTraceRecordDisabled(b *testing.B) {
	r := New(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(benchEvent)
	}
}

func BenchmarkTraceRecordNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(benchEvent)
	}
}

func BenchmarkTraceRecordWithProcs(b *testing.B) {
	r := New(1 << 14)
	r.SetEnabled(true)
	targets := []model.ProcID{1, 2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := benchEvent
		ev.Kind = EvTxnWrite
		ev.Procs = model.NewProcSet(targets...)
		r.Record(ev)
	}
}
