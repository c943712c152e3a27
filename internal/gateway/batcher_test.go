package gateway

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// gatedBackend is a submitter whose every Submit announces itself on
// calls and then blocks until the test releases it, so a test decides
// exactly which rounds are in the backend at once. It records the most
// rounds it ever held at once, in total and per written object.
type gatedBackend struct {
	calls chan *gatedCall

	mu       sync.Mutex
	inside   int
	insideOf map[model.ObjectID]int
	maxTotal int
	maxOf    map[model.ObjectID]int
	ctr      uint64
}

type gatedCall struct {
	txn     wire.ClientTxn
	release chan struct{}
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{
		// Announcements never block a round: no test sends more rounds than this.
		calls:    make(chan *gatedCall, 64),
		insideOf: make(map[model.ObjectID]int),
		maxOf:    make(map[model.ObjectID]int),
	}
}

func writtenObjects(t wire.ClientTxn) []model.ObjectID {
	var objs []model.ObjectID
	for _, op := range t.Ops {
		if op.Kind == wire.OpWrite {
			objs = append(objs, op.Obj)
		}
	}
	return objs
}

func (g *gatedBackend) Submit(t wire.ClientTxn, _ model.TraceCtx, _ model.ProcID, _ time.Time) (wire.ClientResult, model.ProcID, error) {
	objs := writtenObjects(t)
	g.mu.Lock()
	g.inside++
	g.maxTotal = max(g.maxTotal, g.inside)
	for _, o := range objs {
		g.insideOf[o]++
		g.maxOf[o] = max(g.maxOf[o], g.insideOf[o])
	}
	g.mu.Unlock()

	c := &gatedCall{txn: t, release: make(chan struct{})}
	g.calls <- c
	<-c.release

	g.mu.Lock()
	defer g.mu.Unlock()
	g.inside--
	res := wire.ClientResult{Tag: t.Tag, Committed: true}
	for _, o := range objs {
		g.insideOf[o]--
		g.ctr++
		res.Writes = append(res.Writes, wire.ObjVal{Obj: o, Ver: ver(1, 1, g.ctr)})
	}
	return res, 1, nil
}

// next returns the next round to reach the backend.
func (g *gatedBackend) next(t *testing.T) *gatedCall {
	t.Helper()
	select {
	case c := <-g.calls:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no round reached the backend")
		return nil
	}
}

// newTestBatcher builds a batcher over backend whose window and size
// backstops cannot fire within a test, so every departure is the
// conveyor rule's. The caller closes it.
func newTestBatcher(backend submitter, depth int) (*batcher, *metrics.Registry) {
	reg := metrics.NewRegistry()
	start := time.Now()
	b := newBatcher(time.Minute, 1<<20, func(model.ShardID) int { return depth }, backend,
		&tagSource{}, nil, reg, nil, func() time.Duration { return time.Since(start) })
	return b, reg
}

// post hands one increment to the batcher as submit does, but returns
// as soon as the batcher goroutine has TAKEN it: entries posted in
// sequence are queued in that order, and a later post returning proves
// the earlier entry has been pumped.
func post(b *batcher, obj model.ObjectID, delta int64) chan batchReply {
	req := b.request(obj, delta, model.TraceCtx{}, model.NoProc, model.NoShard)
	b.reqCh <- req
	return req.reply
}

func await(t *testing.T, ch chan batchReply) batchReply {
	t.Helper()
	select {
	case rep := <-ch:
		if rep.err != nil || !rep.res.Committed {
			t.Fatalf("write failed: %+v", rep)
		}
		return rep
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
		return batchReply{}
	}
}

func TestConveyorDisjointObjectsOverlap(t *testing.T) {
	backend := newGatedBackend()
	b, reg := newTestBatcher(backend, 3)
	defer b.close()

	rx := post(b, "x", 1)
	cx := backend.next(t)
	ry := post(b, "y", 1)
	cy := backend.next(t) // reaches the backend with x's round still inside
	if backend.maxTotal != 2 {
		t.Fatalf("backend held %d rounds at once, want 2", backend.maxTotal)
	}
	close(cy.release)
	await(t, ry) // and completes first: y never waited for x
	close(cx.release)
	await(t, rx)
	if got := reg.Get(metrics.CGwBatchOverlap); got != 1 {
		t.Errorf("%s = %d, want 1", metrics.CGwBatchOverlap, got)
	}
	if got := reg.Get(metrics.CGwBatchRounds); got != 2 {
		t.Errorf("%s = %d, want 2 (each write its own round)", metrics.CGwBatchRounds, got)
	}
}

func TestConveyorSameObjectSerializes(t *testing.T) {
	backend := newGatedBackend()
	b, _ := newTestBatcher(backend, 3)
	defer b.close()

	r1 := post(b, "x", 1)
	c1 := backend.next(t)
	r2 := post(b, "x", 2)
	// A disjoint write posted after r2 reaches the backend: by then the
	// batcher has pumped r2 and left it queued behind x's round.
	ry := post(b, "y", 1)
	cy := backend.next(t)
	if objs := writtenObjects(cy.txn); len(objs) != 1 || objs[0] != "y" {
		t.Fatalf("second round in the backend writes %v, want [y]", objs)
	}
	select {
	case rep := <-r2:
		t.Fatalf("second write on x completed before the first: %+v", rep)
	default:
	}
	close(c1.release)
	await(t, r1)
	c2 := backend.next(t) // x's completion sends the queued write off
	close(c2.release)
	await(t, r2)
	close(cy.release)
	await(t, ry)
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if got := backend.maxOf["x"]; got != 1 {
		t.Errorf("backend held %d rounds on x at once, want 1", got)
	}
}

func TestConveyorCoalescesPastDepthBound(t *testing.T) {
	const depth, extra = 2, 5
	backend := newGatedBackend()
	b, reg := newTestBatcher(backend, depth)
	defer b.close()

	var replies []chan batchReply
	var inFlight []*gatedCall
	for i := 0; i < depth; i++ {
		replies = append(replies, post(b, model.ObjectID(fmt.Sprintf("o%d", i)), 1))
		inFlight = append(inFlight, backend.next(t))
	}
	// The lane is full: writes on idle objects queue all the same.
	for i := depth; i < depth+extra; i++ {
		replies = append(replies, post(b, model.ObjectID(fmt.Sprintf("o%d", i)), 1))
	}
	close(inFlight[0].release)
	coalesced := backend.next(t) // the completion sends them off as ONE round
	if got := len(writtenObjects(coalesced.txn)); got != extra {
		t.Fatalf("round after the completion writes %d objects, want %d", got, extra)
	}
	close(inFlight[1].release)
	close(coalesced.release)
	for _, ch := range replies {
		await(t, ch)
	}
	if got := reg.Get(metrics.CGwBatchRounds); got != depth+1 {
		t.Errorf("%d writes left in %d rounds, want %d", depth+extra, got, depth+1)
	}
	if backend.maxTotal != depth {
		t.Errorf("backend held %d rounds at once, want the depth bound %d", backend.maxTotal, depth)
	}
}

func TestConveyorCloseFailsEveryWaiter(t *testing.T) {
	before := runtime.NumGoroutine()
	backend := newGatedBackend()
	b, reg := newTestBatcher(backend, 2)

	errs := make(chan error, 5) // one per writer
	write := func(obj model.ObjectID) {
		go func() {
			_, _, err := b.submit(obj, 1, model.TraceCtx{}, model.NoProc, model.NoShard)
			errs <- err
		}()
	}
	write("a")
	write("b")
	inFlight := []*gatedCall{backend.next(t), backend.next(t)}
	for i := 0; i < 3; i++ {
		write("a") // blocked behind a's round (or not yet taken: either way it must fail)
	}
	b.close()
	for i := 0; i < 5; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errGatewayClosed) {
				t.Errorf("waiter got %v, want errGatewayClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter is still blocked after close")
		}
	}
	// The in-flight rounds finish against a closed batcher and exit.
	for _, c := range inFlight {
		close(c.release)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Get(metrics.CGwBatchRounds); got != 2 {
		t.Errorf("%d rounds departed, want 2 (close sends nothing)", got)
	}
}

func TestRoundSumsIncrementsPerObject(t *testing.T) {
	r := &round{}
	for i := 0; i < 5; i++ {
		r.add(batchReq{obj: "x", delta: int64(i + 1)})
	}
	if len(r.reqs) != 5 || len(r.objs) != 1 {
		t.Fatalf("round holds %d constituents over %d objects, want 5 over 1", len(r.reqs), len(r.objs))
	}
	txn := r.txn(99)
	want := wire.IncrementOps("x", 1+2+3+4+5)
	if txn.Tag != 99 || !reflect.DeepEqual(txn.Ops, want) {
		t.Fatalf("round txn = %+v, want tag 99 and ops %+v", txn, want)
	}
}

func TestRoundMixesObjects(t *testing.T) {
	r := &round{}
	for i, obj := range []model.ObjectID{"x", "y", "x", "x", "y"} {
		r.add(batchReq{obj: obj, delta: int64(i + 1)})
	}
	// One read-and-write pair per object, in first-touch order, each
	// carrying that object's summed delta.
	txn := r.txn(99)
	want := append(wire.IncrementOps("x", 1+3+4), wire.IncrementOps("y", 2+5)...)
	if txn.Tag != 99 || !reflect.DeepEqual(txn.Ops, want) {
		t.Fatalf("round txn = %+v, want tag 99 and ops %+v", txn, want)
	}
}

func TestRoundResultsCarryOwnObject(t *testing.T) {
	r := &round{}
	reqs := []batchReq{{obj: "x", delta: 1}, {obj: "x", delta: 2}, {obj: "y", delta: 5}}
	for _, req := range reqs {
		r.add(req)
	}
	vx, vy := ver(3, 1, 9), ver(3, 1, 10)
	shared := wire.ClientResult{
		Tag: 7, Txn: model.TxnID{Start: 1, P: 1, Seq: 4}, Committed: true,
		Writes: []wire.ObjVal{{Obj: "y", Val: 5, Ver: vy}, {Obj: "x", Val: 3, Ver: vx}},
	}
	for i, want := range []wire.ObjVal{shared.Writes[1], shared.Writes[1], shared.Writes[0]} {
		got := r.result(shared, reqs[i])
		if !got.Committed || got.Txn != shared.Txn || !reflect.DeepEqual(got.Writes, []wire.ObjVal{want}) {
			t.Errorf("constituent %d result = %+v, want its own write %+v", i, got, want)
		}
	}
	// An aborted round fails every constituent.
	aborted := wire.ClientResult{Tag: 7, Reason: "lock denied (wait-die)"}
	for i, req := range reqs {
		if got := r.result(aborted, req); got.Committed || got.Reason == "" || len(got.Writes) != 0 {
			t.Errorf("aborted constituent %d = %+v", i, got)
		}
	}
}
