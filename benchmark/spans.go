package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the harness recorded around a call it made: a
// phase of the run, a client request, or a probe. Spans of one request
// share Req; Parent names the enclosing span.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     string `json:"req,omitempty"`
	Op      string `json:"op,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps the harness's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pay nothing.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name, parent, req, op string, began time.Time, d time.Duration) {
	if l == nil {
		return
	}
	start := began.Sub(l.origin).Microseconds()
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Req: req, Op: op,
		StartUS: start, EndUS: start + d.Microseconds()})
	l.mu.Unlock()
}

// addTimed records a parentless span (a probe call).
func (l *spanLog) addTimed(name string, began time.Time, d time.Duration) {
	l.add(name, "", "", "", began, d)
}

// progSpan is one closed span the programs under test recorded, as
// /spans serves it. Times are microseconds on the recording process's
// own clock, so only durations compare across processes.
type progSpan struct {
	Src    string `json:"src"` // which process served it: gw, n1, n2, ...
	Trace  uint64 `json:"trace"`
	Span   uint32 `json:"span"`
	Parent uint32 `json:"parent,omitempty"`
	Proc   int    `json:"proc"`
	Phase  string `json:"phase"`
	EndUS  int64  `json:"end_us"`
	DurUS  int64  `json:"dur_us"`
}

// phaseSummary is one row of the /spans phase rollup.
type phaseSummary struct {
	Phase string `json:"phase"`
	Count int    `json:"count"`
	P50US int64  `json:"p50_us"`
	P99US int64  `json:"p99_us"`
}

// fetchSpans reads a process's /spans: its phase rollup and every span
// still in its trace ring.
func fetchSpans(src, baseURL string) ([]phaseSummary, []progSpan, error) {
	resp, err := ctl.Get(baseURL + "/spans?limit=1000000")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var p struct {
		Enabled bool           `json:"enabled"`
		Phases  []phaseSummary `json:"phases"`
		Recent  []progSpan     `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, nil, fmt.Errorf("%s /spans: %w", src, err)
	}
	if !p.Enabled {
		return nil, nil, fmt.Errorf("%s /spans: tracing is not enabled", src)
	}
	for i := range p.Recent {
		p.Recent[i].Src = src
	}
	return p.Phases, p.Recent, nil
}

// writeSpans writes the harness's spans, then the programs' spans, as
// JSON lines.
func writeSpans(path string, own []span, prog []progSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range own {
		if err := enc.Encode(&own[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i := range prog {
		if err := enc.Encode(&prog[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the layer table: what one span phase costs a
// typical request of the operation type.
type layerRow struct {
	Phase  string  `json:"phase"`
	Count  int     `json:"count"`   // traced requests that entered the phase
	SelfMS float64 `json:"self_ms"` // median over those requests of the phase's self time on the blocking path
}

// layerTable attributes one operation type's client-observed latency to
// the span phases inside the programs.
type layerTable struct {
	Op             string     `json:"op"`
	Traces         int        `json:"traces"`
	ClientP50MS    float64    `json:"client_p50_ms"`
	Rows           []layerRow `json:"rows"`
	AttributedMS   float64    `json:"attributed_ms"`
	UnattributedMS float64    `json:"unattributed_ms"`
}

// writePhases are the phases only a transaction that writes goes
// through; a trace holding one of them is a write.
var writePhases = map[string]bool{
	"gw-batch-round": true, "coord-prepare": true, "coord-journal": true, "coord-decide": true,
	"part-stage": true, "part-journal": true,
}

// spanNode is a program span in its request's tree.
type spanNode struct {
	progSpan
	kids []*spanNode
}

// selfTimes adds, per phase, the self time of n and of the descendants
// on its blocking path, in milliseconds.
//
// A span's self time is its duration minus the part its children cover.
// Children recorded by the same process lie on the parent's clock: their
// union is subtracted and each is followed. Children on other processes
// cannot be placed on the parent's clock; the coordinator fans a round
// out to every participant at once, so they ran in parallel, the parent
// waited for the slowest process, and only that process's children are
// subtracted and followed. The per-phase times of one request therefore
// add up to its root span's duration.
func (n *spanNode) selfTimes(into map[string]float64) {
	var local [][2]int64
	remote := map[string][]*spanNode{}
	for _, k := range n.kids {
		if k.Src == n.Src {
			local = append(local, [2]int64{k.EndUS - k.DurUS, k.EndUS})
			k.selfTimes(into)
		} else {
			remote[k.Src] = append(remote[k.Src], k)
		}
	}
	sort.Slice(local, func(i, j int) bool { return local[i][0] < local[j][0] })
	covered, end := int64(0), n.EndUS-n.DurUS
	for _, iv := range local {
		if iv[0] < end {
			iv[0] = end
		}
		if iv[1] > n.EndUS {
			iv[1] = n.EndUS
		}
		if iv[1] > iv[0] {
			covered += iv[1] - iv[0]
			end = iv[1]
		}
	}
	var slowest []*spanNode
	var slowestUS int64
	for _, src := range sortedKeys(remote) {
		var sum int64
		for _, k := range remote[src] {
			sum += k.DurUS
		}
		if sum > slowestUS {
			slowest, slowestUS = remote[src], sum
		}
	}
	for _, k := range slowest {
		k.selfTimes(into)
	}
	self := n.DurUS - covered - slowestUS
	if self < 0 {
		self = 0
	}
	into[n.Phase] += float64(self) / 1e3
}

// buildLayerTables groups the programs' spans into per-request trees
// rooted at the gateway's gw-request span, classifies each tree as a
// read or a write, and reports per phase the median self time over the
// requests of each type. One request's phase times add up to its root
// span, so the attributed time is the median root span; the rows are
// medians too and need not add up to it exactly. Trees the nodes' trace
// rings no longer hold in full (no coord-txn under the root) are left
// out, as are operation types the client has no latency for.
func buildLayerTables(spans []progSpan, clientP50 map[string]float64) []layerTable {
	byTrace := map[uint64]map[uint32]*spanNode{}
	for _, s := range spans {
		if s.Trace == 0 || s.Span == 0 {
			continue
		}
		m := byTrace[s.Trace]
		if m == nil {
			m = map[uint32]*spanNode{}
			byTrace[s.Trace] = m
		}
		if _, dup := m[s.Span]; !dup {
			m[s.Span] = &spanNode{progSpan: s}
		}
	}
	perPhase := map[string]map[string][]float64{"read": {}, "write": {}}
	roots := map[string][]float64{}
	for _, m := range byTrace {
		var root *spanNode
		op, whole := "read", false
		for _, n := range m {
			if p, ok := m[n.Parent]; ok && n.Parent != 0 && p != n {
				p.kids = append(p.kids, n)
			}
			if n.Phase == "gw-request" && n.Parent == 0 {
				root = n
			}
			if n.Phase == "coord-txn" {
				whole = true
			}
			if writePhases[n.Phase] {
				op = "write"
			}
		}
		if root == nil || !whole {
			continue
		}
		roots[op] = append(roots[op], float64(root.DurUS)/1e3)
		self := map[string]float64{}
		root.selfTimes(self)
		for phase, ms := range self {
			perPhase[op][phase] = append(perPhase[op][phase], ms)
		}
	}
	var out []layerTable
	for _, op := range []string{"read", "write"} {
		if len(roots[op]) == 0 || clientP50[op] == 0 {
			continue
		}
		t := layerTable{Op: op, Traces: len(roots[op]), ClientP50MS: clientP50[op], AttributedMS: median(roots[op])}
		for _, phase := range sortedKeys(perPhase[op]) {
			t.Rows = append(t.Rows, layerRow{Phase: phase, Count: len(perPhase[op][phase]), SelfMS: median(perPhase[op][phase])})
		}
		t.UnattributedMS = t.ClientP50MS - t.AttributedMS
		out = append(out, t)
	}
	return out
}
