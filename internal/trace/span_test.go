package trace

import (
	"io"
	"sync"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// spanEvent hand-builds one EvSpan record the way Recorder.Span lays it
// out: At is the end time, Aux the duration in nanoseconds.
func spanEvent(proc model.ProcID, ctx model.TraceCtx, phase string, start, end time.Duration) Event {
	return Event{
		At:   end,
		Proc: proc,
		Kind: EvSpan,
		Msg:  phase,
		Aux:  int64(end - start),
		Ctx:  ctx,
	}
}

// TestBuildTreesAssemblesOneRequest reconstructs the canonical shape one
// gateway write produces: a gw-request root with a coordinator subtree
// fanned out across two participant spans.
func TestBuildTreesAssemblesOneRequest(t *testing.T) {
	const trace = 0xABCD
	root := model.TraceCtx{Trace: trace, Span: 0xFF000001}
	coord := root.Child(0x01000001)
	lockA := coord.Child(0x02000001)
	lockB := coord.Child(0x03000001)
	events := []Event{
		// Deliberately recorded out of causal order: children close (and
		// record) before their parents, and nodes flush interleaved.
		spanEvent(2, lockA, "part-lock-wait", 2*time.Millisecond, 3*time.Millisecond),
		spanEvent(1, coord, "coord-txn", time.Millisecond, 9*time.Millisecond),
		spanEvent(3, lockB, "part-lock-wait", 2*time.Millisecond, 5*time.Millisecond),
		spanEvent(model.NoProc, root, "gw-request", 0, 10*time.Millisecond),
		// Noise the assembler must skip: non-span kinds and zero contexts.
		{Kind: EvTxnCommit, At: 4 * time.Millisecond},
		spanEvent(1, model.TraceCtx{}, "untraced", 0, time.Millisecond),
	}
	trees := BuildTrees(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.Trace != trace || len(tr.Spans) != 4 || tr.Orphans != 0 {
		t.Fatalf("tree = trace %x, %d spans, %d orphans", tr.Trace, len(tr.Spans), tr.Orphans)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Phase != "gw-request" {
		t.Fatalf("roots = %+v, want single gw-request", tr.Roots)
	}
	if got := tr.Dur(); got != 10*time.Millisecond {
		t.Errorf("tree duration %v, want 10ms", got)
	}
	r := tr.Roots[0]
	if len(r.Children) != 1 || r.Children[0].Phase != "coord-txn" {
		t.Fatalf("root children = %+v", r.Children)
	}
	c := r.Children[0]
	if len(c.Children) != 2 {
		t.Fatalf("coordinator has %d children, want 2", len(c.Children))
	}
	// Same start time: ties break by span id, so lockA (0x02...) precedes
	// lockB (0x03...).
	if c.Children[0].Ctx.Span != lockA.Span || c.Children[1].Ctx.Span != lockB.Span {
		t.Errorf("children not ordered by (start, span id): %+v", c.Children)
	}
}

// TestBuildTreesOrphansAndDuplicates covers the two real-capture defects:
// a span whose parent was never recorded (dropped frame or ring
// overwrite) is promoted to an orphan root, and duplicate (trace, span)
// sightings from merged per-node captures keep the first copy.
func TestBuildTreesOrphansAndDuplicates(t *testing.T) {
	const trace = 7
	root := model.TraceCtx{Trace: trace, Span: 1}
	// Child of span 99, which is never recorded.
	lost := model.TraceCtx{Trace: trace, Span: 5, Parent: 99}
	events := []Event{
		spanEvent(1, root, "coord-txn", 0, 4*time.Millisecond),
		spanEvent(2, lost, "part-stage", time.Millisecond, 2*time.Millisecond),
		// Duplicate sighting of the root with a different duration: the
		// first copy wins.
		spanEvent(1, root, "coord-txn", 0, 40*time.Millisecond),
	}
	trees := BuildTrees(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("duplicate span retained: %d spans, want 2", len(tr.Spans))
	}
	if tr.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", tr.Orphans)
	}
	if len(tr.Roots) != 2 {
		t.Fatalf("roots = %d, want root + promoted orphan", len(tr.Roots))
	}
	// Longest root first: coord-txn (4ms, first copy — not the 40ms dup).
	if tr.Roots[0].Phase != "coord-txn" || tr.Roots[0].Dur() != 4*time.Millisecond {
		t.Errorf("Roots[0] = %s (%v)", tr.Roots[0].Phase, tr.Roots[0].Dur())
	}
	if !tr.Roots[1].Orphan || tr.Roots[1].Phase != "part-stage" {
		t.Errorf("orphan not promoted: %+v", tr.Roots[1])
	}
}

// TestBuildTreesSeparatesTraces checks events from interleaved requests
// land in distinct trees, sorted by trace id.
func TestBuildTreesSeparatesTraces(t *testing.T) {
	events := []Event{
		spanEvent(1, model.TraceCtx{Trace: 9, Span: 1}, "coord-txn", 0, time.Millisecond),
		spanEvent(1, model.TraceCtx{Trace: 3, Span: 1}, "coord-txn", 0, time.Millisecond),
		spanEvent(2, model.TraceCtx{Trace: 9, Span: 2, Parent: 1}, "part-stage", 0, time.Millisecond),
	}
	trees := BuildTrees(events)
	if len(trees) != 2 || trees[0].Trace != 3 || trees[1].Trace != 9 {
		t.Fatalf("trees = %+v, want trace 3 then trace 9", trees)
	}
	if len(trees[1].Spans) != 2 {
		t.Errorf("trace 9 has %d spans, want 2", len(trees[1].Spans))
	}
}

// TestBuildTreesAcrossWire feeds the assembler contexts that each
// traveled one hop through the wire codec, to different nodes: a tree
// reconstructs from what the frames carried.
func TestBuildTreesAcrossWire(t *testing.T) {
	root := model.TraceCtx{Trace: 0x9E3779B97F4A7C15, Span: 0x01000001}
	hop := func(t *testing.T, ctx model.TraceCtx) model.TraceCtx {
		t.Helper()
		env := wire.Envelope{From: 1, To: 2, Msg: wire.Prepare{Txn: model.TxnID{Start: 1, P: 1, Seq: 1}}, Ctx: ctx}
		frame, err := new(wire.FrameEncoder).Encode(&env)
		if err != nil {
			t.Fatal(err)
		}
		out, err := wire.NewDecoder().Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return out.Ctx
	}
	events := []Event{
		spanEvent(1, root, "coord-txn", 0, 6*time.Millisecond),
		spanEvent(2, hop(t, root.Child(0x02000001)), "part-stage", time.Millisecond, 2*time.Millisecond),
		spanEvent(3, hop(t, root.Child(0x03000001)), "part-stage", time.Millisecond, 3*time.Millisecond),
	}
	trees := BuildTrees(events)
	if len(trees) != 1 || trees[0].Orphans != 0 {
		t.Fatalf("capture did not assemble: %+v", trees)
	}
	if kids := trees[0].Roots[0].Children; len(kids) != 2 {
		t.Fatalf("root has %d children, want both hops", len(kids))
	}
}

// TestPhaseStats checks the rollup arithmetic on a known distribution.
func TestPhaseStats(t *testing.T) {
	const trace = 11
	root := model.TraceCtx{Trace: trace, Span: 1}
	var events []Event
	events = append(events, spanEvent(1, root, "coord-txn", 0, 100*time.Millisecond))
	for i := 0; i < 10; i++ {
		ctx := root.Child(uint32(i + 2))
		d := time.Duration(i+1) * time.Millisecond
		events = append(events, spanEvent(2, ctx, "part-stage", 0, d))
	}
	stats := PhaseStats(BuildTrees(events))
	if len(stats) != 2 {
		t.Fatalf("stats = %+v, want 2 phases", stats)
	}
	// Sorted by total descending: coord-txn 100ms > part-stage 55ms.
	if stats[0].Phase != "coord-txn" || stats[0].Count != 1 || stats[0].Total != 100*time.Millisecond {
		t.Errorf("stats[0] = %+v", stats[0])
	}
	ps := stats[1]
	if ps.Phase != "part-stage" || ps.Count != 10 {
		t.Fatalf("stats[1] = %+v", ps)
	}
	if ps.Max != 10*time.Millisecond {
		t.Errorf("max = %v, want 10ms", ps.Max)
	}
	// Nearest rank over 1..10 ms rounds half up: p50 → 6ms, p99 → 10ms.
	if ps.P50 != 6*time.Millisecond {
		t.Errorf("p50 = %v, want 6ms", ps.P50)
	}
	if ps.P99 != 10*time.Millisecond {
		t.Errorf("p99 = %v, want 10ms", ps.P99)
	}
	if ps.Total != 55*time.Millisecond {
		t.Errorf("total = %v, want 55ms", ps.Total)
	}
}

// TestCriticalPath checks the walk follows the longest-duration child at
// every level and fractions are of the root duration.
func TestCriticalPath(t *testing.T) {
	const trace = 13
	root := model.TraceCtx{Trace: trace, Span: 1}
	fast := root.Child(2)
	slow := root.Child(3)
	deep := slow.Child(4)
	events := []Event{
		spanEvent(model.NoProc, root, "gw-request", 0, 10*time.Millisecond),
		spanEvent(1, fast, "coord-lock", 0, 2*time.Millisecond),
		spanEvent(1, slow, "coord-prepare", 0, 8*time.Millisecond),
		spanEvent(2, deep, "part-stage", 0, 6*time.Millisecond),
	}
	trees := BuildTrees(events)
	path := trees[0].CriticalPath()
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3: %+v", len(path), path)
	}
	want := []struct {
		phase string
		frac  float64
	}{
		{"gw-request", 1.0},
		{"coord-prepare", 0.8},
		{"part-stage", 0.6},
	}
	for i, w := range want {
		if path[i].Span.Phase != w.phase {
			t.Errorf("path[%d] = %s, want %s", i, path[i].Span.Phase, w.phase)
		}
		if diff := path[i].Frac - w.frac; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("path[%d] frac = %v, want %v", i, path[i].Frac, w.frac)
		}
	}
	// An empty tree yields no path rather than panicking.
	if p := (&Tree{}).CriticalPath(); p != nil {
		t.Errorf("empty tree path = %+v", p)
	}
}

// TestSpanJSONLRoundTrip checks span events survive export/import with
// their contexts intact, so vptrace assembles from files exactly what the
// recorder held.
func TestSpanJSONLRoundTrip(t *testing.T) {
	r := New(16)
	r.SetEnabled(true)
	root := model.TraceCtx{Trace: 21, Span: 1}
	r.Span(1, root, "coord-txn", time.Millisecond, 5*time.Millisecond, model.TxnID{Start: 9, P: 1, Seq: 2})
	r.Span(2, root.Child(2), "part-stage", 2*time.Millisecond, 3*time.Millisecond, model.TxnID{})
	var buf safeBuffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trees := BuildTrees(events)
	if len(trees) != 1 || len(trees[0].Spans) != 2 || trees[0].Orphans != 0 {
		t.Fatalf("round-tripped capture did not assemble: %+v", trees)
	}
	got := trees[0].Roots[0]
	if got.Phase != "coord-txn" || got.Dur() != 4*time.Millisecond || got.Txn.Start != 9 {
		t.Errorf("root span drifted through JSONL: %+v", got)
	}
}

// safeBuffer is a minimal locked buffer shared by the tests above and the
// race test below.
type safeBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *safeBuffer) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}

// TestExportDuringConcurrentRecord is the race-detector regression for
// ring export safety: WriteJSONL snapshots the ring under the recorder
// lock, so concurrent Record/Span calls during a live export must neither
// race nor corrupt the exported lines. Run with -race to give it teeth.
func TestExportDuringConcurrentRecord(t *testing.T) {
	r := New(256)
	r.SetEnabled(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := model.TraceCtx{Trace: uint64(w + 1), Span: 1}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(Event{Kind: EvMsgSend, Proc: model.ProcID(w + 1), Aux: int64(i)})
				r.Span(model.ProcID(w+1), ctx, "coord-txn", 0, time.Millisecond, model.TxnID{})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf safeBuffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
		if _, err := ReadJSONL(&buf); err != nil {
			t.Fatalf("export %d produced corrupt JSONL: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
