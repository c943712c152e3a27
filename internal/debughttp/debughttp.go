// Package debughttp serves the live observability endpoints of a node:
// Prometheus-text /metrics, Go expvar under /debug/vars, the
// net/http/pprof profiling handlers under /debug/pprof/, a /healthz
// readiness endpoint reporting the node's current view/VP state, and a
// /spans endpoint summarizing the causal spans retained in the node's
// trace ring. It is wired into vpnode behind the -debug-addr flag and
// deliberately stays off the default ServeMux so importing it does not
// pollute global state beyond what expvar and pprof themselves register.
package debughttp

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
)

// Health is a thread-safe holder for the node's readiness state, fed
// from the node's event loop (via core.Node.Observer) and read by the
// /healthz handler. The zero value reports "unknown" (not ready); a nil
// *Health disables the endpoint's state (it reports 503 unknown).
type Health struct {
	mu       sync.Mutex
	known    bool
	assigned bool
	vp       model.VPID
	view     []model.ProcID
	since    time.Time
	cause    string // why this node last created a partition
	halted   string // why the node halted; empty while it has not
}

// HealthState is the JSON body served by /healthz.
type HealthState struct {
	OK       bool           `json:"ok"`
	Assigned bool           `json:"assigned"`
	VPN      uint64         `json:"vpn"` // current virtual partition id (N, P)
	VPP      model.ProcID   `json:"vpp"`
	View     []model.ProcID `json:"view,omitempty"`
	SinceMS  int64          `json:"since_ms"` // ms since the last state change
	// Cause is why this node created the last partition it created
	// (core.JoinEvent.Cause); empty while it has only ever been invited.
	Cause string `json:"cause,omitempty"`
	// Halted carries the error of the failed journal barrier that took
	// the node out of the protocol; a halted node is never OK again.
	Halted string `json:"halted,omitempty"`
	// InDoubt is how many transactions this node coordinates whose vote
	// record is journaled with no decision behind it yet (metrics
	// txn.indoubt): a handful in passing under load, and after a restart
	// the ones it is asking the participants about again.
	InDoubt int64 `json:"indoubt"`
	// Refreshing is how many copies are still locked for rule R5 refresh
	// (metrics vp.refreshing), summed over a shard router's hosted shards:
	// OK with Refreshing > 0 is "in a view", with 0 "serving".
	Refreshing int64 `json:"refreshing"`
}

// Set records a state change: whether the node is assigned to a virtual
// partition and, if so, which one with which view.
func (h *Health) Set(assigned bool, vp model.VPID, view []model.ProcID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.known = true
	h.assigned = assigned
	h.vp = vp
	h.view = append(h.view[:0], view...)
	h.since = time.Now()
	h.mu.Unlock()
}

// SetCause records why the node created a partition; an empty cause (a
// partition it was invited to) leaves the last one standing.
func (h *Health) SetCause(cause string) {
	if h == nil || cause == "" {
		return
	}
	h.mu.Lock()
	h.cause = cause
	h.mu.Unlock()
}

// SetHalted records that the node halted and why. It is final: the node
// reports not-OK from now on, so health-polling clients route away from
// it instead of timing out against its silence.
func (h *Health) SetHalted(reason string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.halted = reason
	h.since = time.Now()
	h.mu.Unlock()
}

// State snapshots the current readiness state. OK is true only for an
// assigned node: a processor between partitions (departed, mid-refresh
// of a new view) is serving but should not be preferred by clients.
func (h *Health) State() HealthState {
	if h == nil {
		return HealthState{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HealthState{
		OK:       h.known && h.assigned && h.halted == "",
		Assigned: h.assigned,
		VPN:      h.vp.N,
		VPP:      h.vp.P,
		View:     append([]model.ProcID(nil), h.view...),
		Cause:    h.cause,
		Halted:   h.halted,
	}
	if h.known {
		st.SinceMS = time.Since(h.since).Milliseconds()
	}
	return st
}

// SpanInfo is one closed span as served by /spans. Times are
// microseconds of engine time (wall time since process start for the
// TCP engine), durations microseconds.
type SpanInfo struct {
	Trace  uint64       `json:"trace"`
	Span   uint32       `json:"span"`
	Parent uint32       `json:"parent,omitempty"`
	Proc   model.ProcID `json:"proc"`
	Phase  string       `json:"phase"`
	EndUS  int64        `json:"end_us"`
	DurUS  int64        `json:"dur_us"`
}

// PhaseSummary is the latency distribution of one span phase over the
// retained ring, in microseconds.
type PhaseSummary struct {
	Phase string `json:"phase"`
	Count int    `json:"count"`
	P50US int64  `json:"p50_us"`
	P99US int64  `json:"p99_us"`
	MaxUS int64  `json:"max_us"`
}

// SpansPayload is the JSON body served by /spans: a phase-latency
// rollup of every span still in the trace ring, plus the most recent
// raw spans (?limit=N, default 128, 0 suppresses them).
type SpansPayload struct {
	Enabled bool           `json:"enabled"`
	Spans   int            `json:"spans"`  // span events retained in the ring
	Traces  int            `json:"traces"` // distinct trace ids among them
	Phases  []PhaseSummary `json:"phases,omitempty"`
	Recent  []SpanInfo     `json:"recent,omitempty"`
}

// SpansHandler serves the /spans debug endpoint over a recorder. A nil
// or disabled recorder serves {"enabled":false}; the handler never
// fails, so pollers like vptop can scrape it unconditionally.
func SpansHandler(rec *trace.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit := 128
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 {
				limit = n
			}
		}
		p := SpansPayload{Enabled: rec.Enabled()}
		if p.Enabled {
			events := rec.Events()
			trees := trace.BuildTrees(events)
			p.Traces = len(trees)
			for _, st := range trace.PhaseStats(trees) {
				p.Spans += st.Count
				p.Phases = append(p.Phases, PhaseSummary{
					Phase: st.Phase,
					Count: st.Count,
					P50US: st.P50.Microseconds(),
					P99US: st.P99.Microseconds(),
					MaxUS: st.Max.Microseconds(),
				})
			}
			// Recent spans, newest last, straight off the ring's tail.
			for _, e := range events {
				if e.Kind != trace.EvSpan {
					continue
				}
				p.Recent = append(p.Recent, SpanInfo{
					Trace:  e.Ctx.Trace,
					Span:   e.Ctx.Span,
					Parent: e.Ctx.Parent,
					Proc:   e.Proc,
					Phase:  e.Msg,
					EndUS:  e.At.Microseconds(),
					DurUS:  time.Duration(e.Aux).Microseconds(),
				})
			}
			if len(p.Recent) > limit {
				p.Recent = p.Recent[len(p.Recent)-limit:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p) //nolint:errcheck // client gone mid-reply
	}
}

// Mux builds the debug handler tree over a registry. health may be nil,
// in which case /healthz always reports 503 unknown; rec may be nil, in
// which case /spans reports tracing disabled.
func Mux(reg *metrics.Registry, health *Health, rec *trace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := health.State()
		st.InDoubt = reg.Get(metrics.CTxnInDoubt)
		st.Refreshing = reg.Get(metrics.CRefreshing)
		w.Header().Set("Content-Type", "application/json")
		if !st.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(st) //nolint:errcheck // client gone mid-reply
	})
	mux.HandleFunc("/spans", SpansHandler(rec))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr and serves the debug endpoints until the
// returned server is closed. It returns once the listener is bound, so
// callers can immediately scrape the reported address (Addr resolves
// ":0" to the chosen port).
func Serve(addr string, reg *metrics.Registry, health *Health, rec *trace.Recorder) (*http.Server, string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: Mux(reg, health, rec)}
	go srv.Serve(l) //nolint:errcheck // ErrServerClosed on shutdown
	return srv, l.Addr().String(), nil
}
