package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// sessionHeader carries the gateway's opaque session token both ways.
const sessionHeader = "X-VP-Session"

// sloLimit is the latency limit of slo_frac: a request meets it when it
// commits within this long of its due time.
const sloLimit = 50 * time.Millisecond

// requestTimeout is the client's patience per request. It is twice the
// gateway's own 5 s retry deadline, so the gateway answers (commit or
// 5xx) before the client gives up on anything but a dead gateway.
const requestTimeout = 10 * time.Second

// version orders committed values: lexicographic on (vpn, vpp, ctr).
type version struct {
	VPN uint64 `json:"vpn"`
	VPP uint64 `json:"vpp"`
	Ctr uint64 `json:"ctr"`
}

func (v version) less(w version) bool {
	if v.VPN != w.VPN {
		return v.VPN < w.VPN
	}
	if v.VPP != w.VPP {
		return v.VPP < w.VPP
	}
	return v.Ctr < w.Ctr
}

// txnResponse is the POST /txn and GET /read response body.
type txnResponse struct {
	Committed bool        `json:"committed"`
	Reads     []objResult `json:"reads"`
	Writes    []objResult `json:"writes"`
}

type objResult struct {
	Obj     string  `json:"obj"`
	Value   int64   `json:"value"`
	Version version `json:"version"`
}

// outcome classifies one request as the client saw it.
type outcome uint8

const (
	committed     outcome = iota
	refused               // definitively not executed: aborted (409) or shed (503)
	indeterminate         // may or may not have executed: transport error, timeout, other 5xx
)

// sample is one request's timing, in nanoseconds since the load began.
type sample struct {
	Due, Sent, Done int64
	Req             request
	Out             outcome
}

// ledger bounds what each object's value may be after the run. Every
// committed increment moves both bounds; an increment whose fate the
// client never learned moves only the bound on its side.
type ledger struct {
	lo, hi []int64
	// indet counts requests with an indeterminate outcome.
	indet int64
}

func newLedger(objects int) *ledger {
	return &ledger{lo: make([]int64, objects), hi: make([]int64, objects)}
}

func (l *ledger) add(obj uint16, delta int64, out outcome) {
	switch out {
	case committed:
		l.lo[obj] += delta
		l.hi[obj] += delta
	case indeterminate:
		if delta > 0 {
			l.hi[obj] += delta
		} else {
			l.lo[obj] += delta
		}
	}
}

// record applies one finished request to the ledger.
func (l *ledger) record(r request, out outcome) {
	if out == indeterminate {
		l.indet++
	}
	switch r.Kind {
	case opIncr:
		l.add(r.A, 1, out)
	case opTransfer:
		l.add(r.A, -1, out)
		l.add(r.B, 1, out)
	}
}

// merge folds another client's ledger into l.
func (l *ledger) merge(o *ledger) {
	for i := range l.lo {
		l.lo[i] += o.lo[i]
		l.hi[i] += o.hi[i]
	}
	l.indet += o.indet
}

// client is one keep-alive connection replaying its own pre-generated
// stream under one gateway session. It keeps its own record of what it
// committed, independent of the gateway's session logic, so a stale
// sessioned read is caught from the outside.
type client struct {
	id      int
	gwURL   string
	hc      *http.Client
	stream  []request
	names   []string
	session string
	// marks[obj] is the version of this session's own last committed
	// write of obj (zero if none).
	marks   []version
	ledger  *ledger
	samples []sample
	// stale lists read-your-writes violations, by object.
	stale []string
	// spans, when non-nil, receives a client.request span per call,
	// parented under the run phase named by spanParent.
	spans      *spanLog
	spanParent string
}

func newClient(id int, gwURL string, stream []request, names []string) *client {
	return &client{
		id: id, gwURL: gwURL, stream: stream, names: names,
		// One connection per client: the transport keeps exactly one
		// idle keep-alive connection and the client never overlaps calls.
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: requestTimeout},
		marks:  make([]version, len(names)),
		ledger: newLedger(len(names)),
		// Room for a full run, so appending never reallocates mid-window.
		samples: make([]sample, 0, 1<<17),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and classifies the result.
func (c *client) do(r request) outcome {
	var (
		req *http.Request
		err error
	)
	switch r.Kind {
	case opRead:
		req, err = http.NewRequest("GET", c.gwURL+"/read?obj="+c.names[r.A], nil)
	case opIncr:
		req, err = http.NewRequest("POST", c.gwURL+"/txn",
			strings.NewReader(`{"ops":[{"kind":"incr","obj":"`+c.names[r.A]+`","delta":1}]}`))
	case opTransfer:
		req, err = http.NewRequest("POST", c.gwURL+"/txn",
			strings.NewReader(`{"ops":[{"kind":"incr","obj":"`+c.names[r.A]+`","delta":-1},{"kind":"incr","obj":"`+c.names[r.B]+`","delta":1}]}`))
	}
	if err != nil {
		panic(err) // fixed method and URL shapes: only a bug gets here
	}
	if c.session != "" {
		req.Header.Set(sessionHeader, c.session)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return indeterminate
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return indeterminate
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusServiceUnavailable:
		return refused
	default:
		return indeterminate
	}
	var tr txnResponse
	if err := json.Unmarshal(raw, &tr); err != nil || !tr.Committed {
		return indeterminate
	}
	if tok := resp.Header.Get(sessionHeader); tok != "" {
		c.session = tok
	}
	if r.Kind == opRead {
		for _, rd := range tr.Reads {
			if rd.Obj == c.names[r.A] && rd.Version.less(c.marks[r.A]) {
				c.stale = append(c.stale, fmt.Sprintf(
					"stale sessioned read of %s: client %d read version %v after committing %v itself",
					rd.Obj, c.id, rd.Version, c.marks[r.A]))
			}
		}
		return committed
	}
	for _, w := range tr.Writes {
		for _, o := range []uint16{r.A, r.B} {
			if w.Obj == c.names[o] && c.marks[o].less(w.Version) {
				c.marks[o] = w.Version
			}
		}
	}
	return committed
}

// step runs the i-th request of the stream: due is when the schedule
// wanted it sent (the actual send time in closed loop), t0 the load's
// origin.
func (c *client) step(i int, due, t0 time.Time) {
	r := c.stream[i%len(c.stream)]
	sent := time.Now()
	out := c.do(r)
	done := time.Now()
	c.ledger.record(r, out)
	c.samples = append(c.samples, sample{
		Due: int64(due.Sub(t0)), Sent: int64(sent.Sub(t0)), Done: int64(done.Sub(t0)), Req: r, Out: out,
	})
	if c.spans != nil {
		c.spans.add("client.request", c.spanParent, fmt.Sprintf("c%d-%d", c.id, i), r.Kind.String(), sent, done.Sub(sent))
	}
}

// runLoad replays every client's stream from t0 until stop. Closed loop
// (rate 0): each client sends its next request when the previous one
// answers. Open loop: request k of client c is due at
// t0 + (k*clients + c)/rate whatever happened to earlier ones; a client
// behind schedule sends at once, and because latency is later measured
// from the due time, a stall on the connection charges every request due
// inside it.
func runLoad(clients []*client, rate float64, t0, stop time.Time) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if rate <= 0 {
				for i := 0; ; i++ {
					now := time.Now()
					if !now.Before(stop) {
						return
					}
					c.step(i, now, t0)
				}
			}
			for i := 0; ; i++ {
				due := dueTime(t0, rate, len(clients), c.id, i)
				if !due.Before(stop) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				c.step(i, due, t0)
			}
		}(c)
	}
	wg.Wait()
}

// dueTime is the open-loop schedule: the fleet's arrivals interleave
// evenly at the offered rate.
func dueTime(t0 time.Time, rate float64, clients, client, i int) time.Time {
	return t0.Add(time.Duration(float64(i*clients+client) / rate * float64(time.Second)))
}
