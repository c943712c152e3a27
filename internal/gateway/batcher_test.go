package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
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

// testGateway is a gateway over backend whose conveyor lanes have the
// given depth bound: the size of its unsharded cluster.
func testGateway(backend submitter, depth int) *Gateway {
	cluster := make(map[model.ProcID]string, depth)
	for p := 1; p <= depth; p++ {
		cluster[model.ProcID(p)] = ""
	}
	return newWithBackend(Config{Cluster: cluster}, backend)
}

// newTestBatcher builds a batcher over backend whose window and size
// backstops cannot fire within a test, so every departure is the
// conveyor rule's. The caller closes it.
func newTestBatcher(backend submitter, depth int) (*batcher, *metrics.Registry) {
	g := testGateway(backend, depth)
	return newBatcher(g, time.Minute, 1<<20), g.reg
}

// post hands one increment to the batcher as submit does, but returns
// as soon as it is queued and its lane pumped: entries posted in
// sequence are queued in that order. A goroutine of its own then waits
// for the entry as submit's caller would, running its round if the
// entry is the first constituent of one, and forwards the reply.
func post(b *batcher, obj model.ObjectID, delta int64) chan batchReply {
	req, ok := b.enqueue(obj, delta, model.TraceCtx{}, model.NoProc, model.NoShard)
	out := make(chan batchReply, 1)
	if !ok {
		out <- batchReply{err: errGatewayClosed}
		return out
	}
	go func() {
		res, node, err := b.wait(req)
		out <- batchReply{res: res, node: node, err: err}
	}()
	return out
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

// TestConveyorCloseFailsEveryWaiter: close fails every queued entry at
// once, while the rounds already in the backend run to their result and
// hand it to their own constituents.
func TestConveyorCloseFailsEveryWaiter(t *testing.T) {
	before := runtime.NumGoroutine()
	backend := newGatedBackend()
	b, reg := newTestBatcher(backend, 2)

	outs := make(chan batchReply, 5) // one per writer
	write := func(obj model.ObjectID) {
		go func() {
			res, node, err := b.submit(obj, 1, model.TraceCtx{}, model.NoProc, model.NoShard)
			outs <- batchReply{res: res, node: node, err: err}
		}()
	}
	write("a")
	write("b")
	inFlight := []*gatedCall{backend.next(t), backend.next(t)}
	for i := 0; i < 3; i++ {
		write("a") // blocked behind a's round (or not yet queued: either way it must fail)
	}
	b.close()
	for i := 0; i < 3; i++ {
		select {
		case rep := <-outs:
			if !errors.Is(rep.err, errGatewayClosed) {
				t.Errorf("queued waiter got %+v, want errGatewayClosed", rep)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a queued waiter is still blocked after close")
		}
	}
	// The in-flight rounds finish against a closed batcher, and their
	// waiters get what the backend committed.
	for _, c := range inFlight {
		close(c.release)
	}
	for i := 0; i < 2; i++ {
		select {
		case rep := <-outs:
			if rep.err != nil || !rep.res.Committed {
				t.Errorf("in-flight waiter got %+v, want its round's commit", rep)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an in-flight waiter got no result")
		}
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

// TestIdleIncrementRunsOnItsSubmitter: an increment of an idle object
// is its own round, run on the goroutine that submitted it.
func TestIdleIncrementRunsOnItsSubmitter(t *testing.T) {
	var stack []byte
	backend := &fakeBackend{fn: func(txn wire.ClientTxn, _ model.ProcID) (wire.ClientResult, model.ProcID, error) {
		stack = debug.Stack()
		return wire.ClientResult{Tag: txn.Tag, Committed: true}, 1, nil
	}}
	b, _ := newTestBatcher(backend, 1)
	defer b.close()
	if _, _, err := b.submit("x", 1, model.TraceCtx{}, model.NoProc, model.NoShard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stack, []byte(".TestIdleIncrementRunsOnItsSubmitter(")) {
		t.Fatalf("the round ran on another goroutine:\n%s", stack)
	}
}

// TestWindowForcesQueuedIncrementOut: an increment queued behind an
// in-flight round on its object departs when the window expires, with
// that round still in the backend.
func TestWindowForcesQueuedIncrementOut(t *testing.T) {
	const window = 20 * time.Millisecond
	backend := newGatedBackend()
	b := newBatcher(testGateway(backend, 3), window, 1<<20)
	defer b.close()

	r1 := post(b, "x", 1)
	c1 := backend.next(t)
	queued := time.Now()
	r2 := post(b, "x", 2)
	c2 := backend.next(t)
	if waited := time.Since(queued); waited < window {
		t.Errorf("queued increment departed after %v, before the %v window", waited, window)
	}
	if objs := writtenObjects(c2.txn); len(objs) != 1 || objs[0] != "x" {
		t.Fatalf("forced round writes %v, want [x]", objs)
	}
	backend.mu.Lock()
	onX := backend.maxOf["x"]
	backend.mu.Unlock()
	if onX != 2 {
		t.Errorf("backend held %d rounds on x at once, want 2 (the window overrides the conveyor)", onX)
	}
	close(c2.release)
	await(t, r2)
	close(c1.release)
	await(t, r1)
}

// TestFullQueueDepartsAsOneRound: the entry that brings a full lane's
// queue to the cap sends the whole queue off at once, as one round.
func TestFullQueueDepartsAsOneRound(t *testing.T) {
	const maxSize = 4
	backend := newGatedBackend()
	b := newBatcher(testGateway(backend, 1), time.Minute, maxSize)
	defer b.close()

	replies := []chan batchReply{post(b, "o0", 1)}
	first := backend.next(t) // the lane is at its depth bound
	for i := 1; i <= maxSize; i++ {
		if i == maxSize {
			b.mu.Lock()
			held := len(b.lanes[model.NoShard].queue)
			b.mu.Unlock()
			if held != maxSize-1 {
				t.Fatalf("%d entries queued below the cap, want %d", held, maxSize-1)
			}
		}
		replies = append(replies, post(b, model.ObjectID(fmt.Sprintf("o%d", i)), 1))
	}
	full := backend.next(t)
	if got := len(writtenObjects(full.txn)); got != maxSize {
		t.Fatalf("forced round writes %d objects, want the whole queue of %d", got, maxSize)
	}
	close(first.release)
	close(full.release)
	for _, ch := range replies {
		await(t, ch)
	}
	if backend.maxTotal != 2 {
		t.Errorf("backend held %d rounds at once, want 2 (the cap overrides the depth bound)", backend.maxTotal)
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
