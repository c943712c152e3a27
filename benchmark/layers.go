package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// counters is one scrape: series name (with its label, as exposed) →
// value.
type counters map[string]float64

// scrapeNode reads a node's Prometheus-text /metrics. A node that does
// not answer (killed by the fault schedule) yields an empty scrape.
func scrapeNode(debugAddr string) counters {
	out := counters{}
	resp, err := ctl.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrapeGateway reads the counter map of /gw/stats.
func scrapeGateway(gwURL string) (counters, error) {
	resp, err := ctl.Get(gwURL + "/gw/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st struct {
		Counters counters `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/gw/stats: %w", err)
	}
	return st.Counters, nil
}

// nodeTally accumulates one node's counters over a window that may span
// restarts: a node's registry lives in memory, so the fault schedule
// banks the counters just before each kill.
type nodeTally struct {
	base   counters // scrape at window start (or empty after a restart)
	banked counters // deltas of earlier incarnations
}

// bank folds the incarnation's progress so far into banked and resets
// the base for the next incarnation.
func (t *nodeTally) bank(cur counters) {
	if t.banked == nil {
		t.banked = counters{}
	}
	for k, v := range cur {
		t.banked[k] += v - t.base[k]
	}
	t.base = counters{}
}

// total returns every counter's growth over the window given the final
// scrape.
func (t *nodeTally) total(final counters) counters {
	out := counters{}
	for k, v := range t.banked {
		out[k] = v
	}
	for k, v := range final {
		out[k] += v - t.base[k]
	}
	return out
}

// activity is everything measured from outside during one window, before
// it is divided by operations.
type activity struct {
	window   window
	gw       counters // /gw/stats counter deltas
	node     counters // Σ over nodes of /metrics counter deltas
	lagP50   float64  // median over nodes of journal.lag.ms p50
	gwCPU    time.Duration
	nodeCPU  time.Duration
	gwRSS    float64
	nodeRSS  float64 // Σ over nodes
	viewMove bool    // a node's view changed between window start and end
}

// Registry names as exposed (see internal/metrics; pinned in the README).
const (
	promMsgSent     = "vp_net_msg_sent"
	promTxnCommit   = "vp_txn_commit"
	promTxnAbort    = "vp_txn_abort"
	promTxnDenied   = "vp_txn_denied"
	promFsync       = "vp_journal_fsync"
	promJBytes      = "vp_journal_bytes"
	promJRecords    = "vp_journal_records"
	promJLagP50     = `vp_journal_lag_ms{quantile="0.5"}`
	promRecoveryP50 = `vp_journal_recovery_ms{quantile="0.5"}`
	promCatchup     = "vp_vp_catchup_writes"
	promRefreshB    = "vp_vp_refresh_bytes"
	promVPCreated   = "vp_vp_created"

	gwWriteTxns      = "gateway.backend.write.txns"
	gwWriteCommitted = "gateway.write.committed"
	gwBatchRounds    = "gateway.batch.rounds"
	gwBatchWrites    = "gateway.batch.writes"
	gwStale          = "gateway.session.stale"
	gwShed           = "gateway.shed"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics divides the activity by committed operations. Every name
// here is listed under per_layer in BENCHMARK.json; workload-specific
// layers (shard.*, vp.*) are added by their own functions.
func (a activity) layerMetrics() map[string]metric {
	ops := float64(a.window.committed)
	attempts := a.node[promTxnCommit] + a.node[promTxnAbort] + a.node[promTxnDenied]
	return map[string]metric{
		"gw.cpu_us_per_op":    {Value: ratio(float64(a.gwCPU.Microseconds()), ops), Unit: "us"},
		"gw.rss_mb":           {Value: a.gwRSS, Unit: "MB"},
		"gw.rounds_per_write": {Value: ratio(a.gw[gwWriteTxns], a.gw[gwWriteCommitted]), Unit: "ratio"},
		"gw.batch_mean":       {Value: ratio(a.gw[gwBatchWrites], a.gw[gwBatchRounds]), Unit: "count"},
		"gw.stale_retries":    {Value: a.gw[gwStale], Unit: "count"},
		"gw.shed":             {Value: a.gw[gwShed], Unit: "count"},

		"node.cpu_us_per_op": {Value: ratio(float64(a.nodeCPU.Microseconds()), ops), Unit: "us"},
		"node.rss_mb":        {Value: a.nodeRSS, Unit: "MB"},
		"node.msgs_per_op":   {Value: ratio(a.node[promMsgSent], ops), Unit: "count"},
		"node.commit_ratio":  {Value: ratio(a.node[promTxnCommit], attempts), Unit: "ratio"},

		"journal.fsyncs_per_op":     {Value: ratio(a.node[promFsync], ops), Unit: "count"},
		"journal.bytes_per_op":      {Value: ratio(a.node[promJBytes], ops), Unit: "B"},
		"journal.records_per_fsync": {Value: ratio(a.node[promJRecords], a.node[promFsync]), Unit: "count"},
		"journal.lag_ms_p50":        {Value: a.lagP50, Unit: "ms"},
	}
}

// msgsByKind breaks node.msgs_per_op down by message kind.
func (a activity) msgsByKind() map[string]float64 {
	out := map[string]float64{}
	prefix := promMsgSent + `{kind="`
	for k, v := range a.node {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			out[strings.TrimSuffix(rest, `"}`)] = ratio(v, float64(a.window.committed))
		}
	}
	return out
}

// shardMetrics are the shard layer's numbers; only a sharded workload
// has them.
func (a activity) shardMetrics(sp spec) map[string]metric {
	var laneRounds float64
	for k, v := range a.gw {
		if strings.HasPrefix(k, gwBatchRounds+".s") {
			laneRounds += v
		}
	}
	var lo, hi int64
	for s := 1; s <= sp.Shards; s++ {
		n := a.window.perShard[s]
		if s == 1 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	return map[string]metric{
		"shard.cross_frac":            {Value: sp.TransferFrac, Unit: "fraction"},
		"shard.lane_rounds_per_write": {Value: ratio(laneRounds, a.gw[gwWriteCommitted]), Unit: "ratio"},
		"shard.tps_spread":            {Value: ratio(float64(hi), float64(lo)), Unit: "ratio"},
	}
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
