package bench

import (
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Source: "nowhere",
		Header: []string{"a", "b", "c", "d"},
		Notes:  []string{"a note"},
	}
	tbl.Add("row", 1.5, true, 42)
	tbl.Add("longer-cell", 0.25, false, int64(7))
	s := tbl.String()
	for _, want := range []string{"EX — demo", "nowhere", "longer-cell", "1.50", "yes", "no", "a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### EX — demo", "| a | b | c | d |", "| row | 1.50 | yes | 42 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFindExperiments(t *testing.T) {
	if Find("e1") == nil || Find("e15") == nil {
		t.Fatal("known experiments not found")
	}
	if Find("nope") != nil {
		t.Fatal("unknown experiment found")
	}
	seen := map[string]bool{}
	for _, e := range All {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestSpecCatalog(t *testing.T) {
	full := Spec{N: 4, Objects: 3}.Catalog()
	if full.Copies("o0").Len() != 4 {
		t.Fatal("default should be full replication")
	}
	part := Spec{N: 5, Objects: 5, Replication: 2}.Catalog()
	if part.Copies("o0").Len() != 2 {
		t.Fatal("replication factor ignored")
	}
	// Round-robin placement spreads copies.
	var holders model.ProcSet
	for _, o := range part.Objects() {
		holders |= part.Copies(o)
	}
	if holders.Len() != 5 {
		t.Fatalf("placement concentrated on %v", holders)
	}
	custom := model.FullyReplicated(2, "z")
	if got := (Spec{N: 2, CustomCatalog: custom}).Catalog(); got != custom {
		t.Fatal("custom catalog not honored")
	}
}

func TestRunnerStats(t *testing.T) {
	r := NewRunner(Spec{Protocol: ProtoVP, N: 3, Objects: 2, Seed: 9})
	start := r.WarmUp()
	gen := workload.NewGenerator(9, workload.Objects(2), r.Topo.Procs(),
		workload.Mix{ReadFraction: 0.5}, 0)
	sched := gen.Schedule(start, 10*time.Millisecond, 50)
	r.Load(sched)
	r.Run(sched[len(sched)-1].At + 2*time.Second)
	res := r.Stats()
	if res.Submitted != 50 {
		t.Fatalf("submitted = %d", res.Submitted)
	}
	if res.Committed+res.Aborted+res.Denied+res.Pending != 50 {
		t.Fatalf("outcome sum mismatch: %+v", res)
	}
	if res.Committed == 0 || !res.OneCopySR {
		t.Fatalf("healthy run: %+v", res)
	}
	if res.PhysReadsPerLogicalRead <= 0 || res.PhysReadsPerLogicalRead > 1.01 {
		t.Fatalf("VP read cost = %v, want ~1", res.PhysReadsPerLogicalRead)
	}
	if res.PhysWritesPerLogicalWrite < 2.5 || res.PhysWritesPerLogicalWrite > 3.01 {
		t.Fatalf("VP write cost = %v, want ~3", res.PhysWritesPerLogicalWrite)
	}
	if res.MeanLatencyMs <= 0 || res.MsgsPerCommit <= 0 || res.TxnMsgsPerCommit <= 0 {
		t.Fatalf("latency/msg stats missing: %+v", res)
	}
	if res.TxnMsgsPerCommit >= res.MsgsPerCommit {
		t.Fatal("txn-only messages should exclude probe overhead")
	}
	if res.Availability <= 0 || res.Availability > 1 {
		t.Fatalf("availability = %v", res.Availability)
	}
}

func TestCountStaleReads(t *testing.T) {
	h := onecopy.NewHistory()
	t1 := model.TxnID{Start: 1, P: 1, Seq: 1}
	v1 := model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: 1, Writer: t1}
	// t1 writes x.
	h.Record(onecopy.TxnRecord{ID: t1, Committed: true,
		Writes: map[model.ObjectID]model.Version{"x": v1}})
	// t2 reads the initial version AFTER t1 committed: stale.
	h.Record(onecopy.TxnRecord{ID: model.TxnID{Start: 2, P: 2, Seq: 1}, Committed: true,
		Reads: map[model.ObjectID]model.Version{"x": {}}})
	// t3 reads v1: current.
	h.Record(onecopy.TxnRecord{ID: model.TxnID{Start: 3, P: 3, Seq: 1}, Committed: true,
		Reads: map[model.ObjectID]model.Version{"x": v1}})
	// Aborted record: ignored.
	h.Record(onecopy.TxnRecord{ID: model.TxnID{Start: 4, P: 1, Seq: 2}, Committed: false,
		Reads: map[model.ObjectID]model.Version{"x": {}}})
	if got := countStaleReads(h); got != 1 {
		t.Fatalf("stale reads = %d, want 1", got)
	}
}

func TestRunnerUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRunner(Spec{Protocol: "bogus"})
}

func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(2) // a seed different from the recorded one
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if tbl.ID == "" || tbl.Title == "" || len(tbl.Header) == 0 {
				t.Fatalf("%s table incomplete", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("%s row width %d != header %d", e.ID, len(row), len(tbl.Header))
				}
			}
		})
	}
}

func TestSubmitAndResultFor(t *testing.T) {
	r := NewRunner(Spec{Protocol: ProtoROWA, N: 2, Objects: 1, Seed: 3})
	r.Submit(0, workload.Txn{Coordinator: 1,
		Request: wire.ClientTxn{Tag: 77, Ops: wire.IncrementOps("o0", 1)}})
	r.Run(time.Second)
	if res := r.ResultFor(77); !res.Committed {
		t.Fatalf("res = %+v", res)
	}
	if res := r.ResultFor(999); res.Committed {
		t.Fatal("unknown tag should be zero value")
	}
}
