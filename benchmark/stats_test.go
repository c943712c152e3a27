package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 2000 samples: p99 is sample 1980, with 20 beyond it.
	if pct, v, ok := tailPercentile(seq(2000)); !ok || pct != 0.99 || v != 1980 {
		t.Errorf("n=2000: got p%v = %v ok=%v, want p0.99 = 1980", pct, v, ok)
	}
	// 500 samples: p99 would leave 5 beyond; the highest percentile with
	// 10 beyond is sample 490, p98.
	if pct, v, ok := tailPercentile(seq(500)); !ok || v != 490 || math.Abs(pct-0.98) > 1e-9 {
		t.Errorf("n=500: got p%v = %v ok=%v, want p0.98 = 490", pct, v, ok)
	}
	// Exactly at the edge: 1000 samples leave 10 beyond p99.
	if pct, v, ok := tailPercentile(seq(1000)); !ok || pct != 0.99 || v != 990 {
		t.Errorf("n=1000: got p%v = %v ok=%v, want p0.99 = 990", pct, v, ok)
	}
	if _, _, ok := tailPercentile(seq(10)); ok {
		t.Error("n=10: no percentile has 10 samples beyond it")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v; Python gives 1, 3", q1, q3)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-9 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

// TestOpenLoopChargesAStallToEveryRequestDueInsideIt replays an open-loop
// schedule against a gateway that stalls once. Every request due while
// the connection was stalled must be charged the wait, because latency
// runs from the due time, not from when the generator got to send it.
func TestOpenLoopChargesAStallToEveryRequestDueInsideIt(t *testing.T) {
	const (
		rate  = 200.0
		stall = 300 * time.Millisecond
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"committed":true,"reads":[{"obj":"o0","value":0,"version":{}}]}`)) //nolint:errcheck // test server
	}))
	defer srv.Close()

	stream := make([]request, 1000) // all reads of o0
	c := newClient(0, srv.URL, stream, []string{"o0"})
	defer c.close()
	t0 := time.Now()
	runLoad([]*client{c}, rate, t0, t0.Add(time.Second))

	w := summarize([]*client{c}, 0, int64(time.Second), nil)
	if w.attempted != int64(rate) || w.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %v and 0: the schedule must not wait for replies", w.attempted, w.failed, rate)
	}
	// The stall covers stall*rate = 60 due times. A request due d into it
	// waits stall-d, so about (stall-sloLimit)*rate = 50 of them miss a
	// 50 ms limit; measuring from the send time would find one.
	missed := w.attempted - w.withinSLO
	if want := int64((stall - sloLimit).Seconds() * rate); missed < want-5 || missed > want+15 {
		t.Errorf("%d requests missed the %v limit, want about %d", missed, sloLimit, want)
	}
	if late := w.lateMS[len(w.lateMS)-1]; late < ms(stall)/2 {
		t.Errorf("generator lateness peaked at %.0f ms; the stall was %v", late, stall)
	}
}
