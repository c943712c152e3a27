package gateway

import (
	"errors"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// TestClosedPoolFailsAtOnce: a submission to a closed pool fails with
// errGatewayClosed at once, without sweeping its nodes to the deadline
// or marking any of them down.
func TestClosedPoolFailsAtOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	p := newPool(map[model.ProcID]string{1: "127.0.0.1:1", 2: "127.0.0.1:2"}, reg)
	p.close()
	start := time.Now()
	_, _, err := p.Submit(wire.ClientTxn{Tag: 1, Ops: wire.IncrementOps("x", 1)}, model.TraceCtx{}, 1,
		start.Add(requestDeadline))
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("submit to a closed pool took %v", took)
	}
	if !errors.Is(err, errGatewayClosed) {
		t.Errorf("err = %v, want errGatewayClosed", err)
	}
	if got := reg.Get(metrics.CGwNodeDown); got != 0 {
		t.Errorf("%s = %d, want 0", metrics.CGwNodeDown, got)
	}
}
