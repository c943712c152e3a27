package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Event{Kind: EvTxnBegin})
	r.SetEnabled(true)
	r.Reset()
	r.Logf(0, 1, "ignored %d", 1)
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder returned events: %v", got)
	}
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder reports non-zero counts")
	}
}

func TestRecorderDisabledByDefault(t *testing.T) {
	r := New(16)
	r.Record(Event{Kind: EvTxnBegin})
	if r.Len() != 0 {
		t.Fatalf("disabled recorder retained %d events", r.Len())
	}
	r.SetEnabled(true)
	r.Record(Event{Kind: EvTxnBegin})
	if r.Len() != 1 {
		t.Fatalf("enabled recorder retained %d events, want 1", r.Len())
	}
	r.SetEnabled(false)
	r.Record(Event{Kind: EvTxnCommit})
	if r.Len() != 1 {
		t.Fatalf("re-disabled recorder retained %d events, want 1", r.Len())
	}
}

func TestRecorderSeqAndOrder(t *testing.T) {
	r := New(8)
	r.SetEnabled(true)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: EvMsgSend, Aux: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Aux != int64(i) {
			t.Errorf("event %d out of order: aux %d", i, e.Aux)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := New(4)
	r.SetEnabled(true)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: EvMsgSend, Aux: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.Aux != want {
			t.Errorf("retained event %d has aux %d, want %d (oldest first)", i, e.Aux, want)
		}
	}
}

func TestRecorderReset(t *testing.T) {
	r := New(4)
	r.SetEnabled(true)
	r.Record(Event{Kind: EvMsgSend})
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("reset did not clear the recorder")
	}
	r.Record(Event{Kind: EvMsgSend})
	if evs := r.Events(); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("seq did not restart after reset: %+v", evs)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := EvProbeSend; k < numKinds; k++ {
		name := k.String()
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Errorf("kind %d: ParseKind(%q) = %v, %v", k, name, got, ok)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 1, At: 125 * time.Millisecond, Proc: 2, Kind: EvVPJoin,
			VP: model.VPID{N: 3, P: 1}, Procs: model.NewProcSet(1, 2, 3)},
		{Seq: 2, At: 126 * time.Millisecond, Proc: 1, Kind: EvTxnBegin,
			VP:  model.VPID{N: 3, P: 1},
			Txn: model.TxnID{Start: 99, P: 1, Seq: 7}, Aux: 2},
		{Seq: 3, At: 127 * time.Millisecond, Proc: 1, Kind: EvTxnRead,
			Txn: model.TxnID{Start: 99, P: 1, Seq: 7}, Obj: "x",
			Procs: model.NewProcSet(2)},
		{Seq: 4, At: 128 * time.Millisecond, Proc: 3, Kind: EvMsgSend,
			Peer: 1, Msg: "lockreq"},
		{Seq: 5, Kind: EvLog, Msg: "free-form text with \"quotes\""},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: got %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if a, b := in[i], out[i]; a != b {
			t.Errorf("event %d mismatch:\n in: %+v\nout: %+v", i, a, b)
		}
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json\n")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"seq":1,"at_ns":0,"kind":"bogus"}` + "\n")); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, procs := range []string{"[1,65]", "[0,1]", "[-3]"} {
		line := `{"seq":1,"at_ns":0,"kind":"vp-join","procs":` + procs + "}\n"
		if _, err := ReadJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("processor list %s accepted", procs)
		}
	}
}

func TestRecorderWriteJSONL(t *testing.T) {
	r := New(8)
	r.SetEnabled(true)
	r.Record(Event{Kind: EvVPInvite, VP: model.VPID{N: 1, P: 2}})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"vp-invite"`) {
		t.Fatalf("unexpected JSONL output: %s", buf.String())
	}
}

func TestLogfSkipsFormattingWhenDisabled(t *testing.T) {
	r := New(8)
	r.Logf(0, 1, "costly %v", struct{}{})
	if r.Len() != 0 {
		t.Fatal("disabled Logf recorded")
	}
	r.SetEnabled(true)
	r.Logf(time.Second, 1, "view=%v", []int{1, 2})
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != EvLog || evs[0].Msg != "view=[1 2]" {
		t.Fatalf("Logf event wrong: %+v", evs)
	}
}

// TestRecordAllocBudget is the regression gate for the tracing hot path:
// every event records with zero allocations, one that carries a
// processor set included.
func TestRecordAllocBudget(t *testing.T) {
	r := New(1 << 12)
	r.SetEnabled(true)
	ev := Event{
		At: time.Millisecond, Proc: 3, Kind: EvMsgSend, Peer: 5, Msg: "lockreq",
		VP: model.VPID{N: 2, P: 1}, Txn: model.TxnID{Start: 1, P: 3, Seq: 9},
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) }); allocs > 0 {
		t.Errorf("Record of a plain event costs %.1f allocs/event, want 0", allocs)
	}
	targets := []model.ProcID{1, 2, 3}
	if allocs := testing.AllocsPerRun(1000, func() {
		e := ev
		e.Kind = EvTxnWrite
		e.Procs = model.NewProcSet(targets...)
		r.Record(e)
	}); allocs > 0 {
		t.Errorf("Record with a Procs set costs %.1f allocs/event, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) }); allocs > 0 {
		// Re-check after wrap: overwriting slots must not allocate either.
		t.Errorf("Record after ring wrap costs %.1f allocs/event, want 0", allocs)
	}
	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(1000, func() { nilRec.Record(ev) }); allocs > 0 {
		t.Errorf("Record on a nil recorder costs %.1f allocs/event, want 0", allocs)
	}
}
