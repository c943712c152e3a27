// Command vptop is a live terminal inspector for a running cluster: it
// polls every node's debug endpoints (-debug-addr: /metrics, /healthz,
// /spans) plus, optionally, a gateway (/gw/stats, /spans), and renders
// one screenful of cluster state — per-node health, transaction and
// message counters, and the cluster-wide per-phase span latency rollup
// from the causal tracing layer.
//
// Example, against the three-node cluster from the vpnode docs:
//
//	vptop -nodes 1=localhost:7101,2=localhost:7102,3=localhost:7103 -gw localhost:8080
//
// By default vptop redraws every second until interrupted; -once prints
// a single snapshot and exits, which is what scripts and CI want.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
)

// options is the parsed command line, separated from main so flag
// handling is testable without forking a process.
type options struct {
	nodes    map[model.ProcID]string
	gw       string
	interval time.Duration
	once     bool
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vptop", flag.ContinueOnError)
	var (
		nodes    = fs.String("nodes", "", "comma-separated id=host:port node debug addresses (required)")
		gw       = fs.String("gw", "", "gateway address to scrape /gw/stats and /spans from")
		interval = fs.Duration("interval", time.Second, "refresh period")
		once     = fs.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	addrs, err := parseNodeMap(*nodes)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 && *gw == "" {
		return nil, fmt.Errorf("-nodes (or at least -gw) is required")
	}
	return &options{nodes: addrs, gw: *gw, interval: *interval, once: *once}, nil
}

func parseNodeMap(s string) (map[model.ProcID]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[model.ProcID]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -nodes entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil || id < 1 {
			return nil, fmt.Errorf("bad processor id %q", kv[0])
		}
		out[model.ProcID(id)] = kv[1]
	}
	return out, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vptop:", err)
		os.Exit(2)
	}
	client := &http.Client{Timeout: opt.interval}
	if opt.once {
		snapshot(opt, client, os.Stdout)
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(opt.interval)
	defer tick.Stop()
	for {
		// Home + clear-to-end keeps the redraw flicker-free.
		fmt.Print("\x1b[H\x1b[2J")
		snapshot(opt, client, os.Stdout)
		select {
		case <-sig:
			return
		case <-tick.C:
		}
	}
}

// nodeRow is one node's scraped state; zero-valued fields render as
// unreachable.
type nodeRow struct {
	id      model.ProcID
	up      bool
	health  debughttp.HealthState
	metrics map[string]float64
	spans   debughttp.SpansPayload
}

// snapshot scrapes everything once and renders one screenful.
func snapshot(opt *options, client *http.Client, w io.Writer) {
	ids := model.SortedKeys(opt.nodes)

	rows := make([]nodeRow, 0, len(ids))
	for _, id := range ids {
		addr := opt.nodes[id]
		row := nodeRow{id: id}
		if m, err := scrapeMetrics(client, addr); err == nil {
			row.up, row.metrics = true, m
		}
		getJSON(client, "http://"+addr+"/healthz", &row.health) //nolint:errcheck // absent health renders as not-ready
		getJSON(client, "http://"+addr+"/spans", &row.spans)    //nolint:errcheck // absent spans render as disabled
		rows = append(rows, row)
	}

	fmt.Fprintf(w, "vptop  %s  (%d nodes", time.Now().Format("15:04:05"), len(rows))
	if opt.gw != "" {
		fmt.Fprintf(w, " + gateway %s", opt.gw)
	}
	fmt.Fprintln(w, ")")

	// "created" is how many partitions the node has created and why it
	// created the last of them (vp_vp_created_<cause> has the split);
	// "refresh" how many copies are still locked for rule R5 refresh.
	fmt.Fprintf(w, "\n%-5s %-6s %-10s %7s %-19s %9s %8s %9s %9s %7s %7s %8s %7s %7s %8s\n",
		"node", "state", "vp", "refresh", "created", "commits", "aborts", "msgs", "peerdown", "spans", "traces",
		"fsyncs", "batch", "lag", "recov")
	for _, r := range rows {
		state, vp := "DOWN", "-"
		if r.up {
			state = "serving"
			if r.metrics["vp_node_halted"] > 0 {
				state = "HALTED" // silent like a partitioned node, but for good: see below the table
			}
			if r.health.OK {
				vp = fmt.Sprintf("%d/%v", r.health.VPN, r.health.VPP)
			} else if r.health.Assigned {
				vp = "joining"
			} else {
				vp = "departed"
			}
		}
		created := "-"
		if r.health.Cause != "" {
			created = fmt.Sprintf("%.0f %s", r.metrics["vp_vp_created"], r.health.Cause)
		}
		fmt.Fprintf(w, "%-5s %-6s %-10s %7d %-19s %9.0f %8.0f %9.0f %9.0f %7d %7d %8.0f %7s %7s %8s\n",
			r.id, state, vp, r.health.Refreshing, created,
			r.metrics["vp_txn_commit"], r.metrics["vp_txn_abort"],
			r.metrics["vp_net_msg_sent"], r.metrics["vp_net_peer_down"],
			r.spans.Spans, r.spans.Traces,
			r.metrics["vp_journal_fsync"],
			meanOf(r.metrics, "vp_journal_batch_size", "%.1f"),
			meanOf(r.metrics, "vp_journal_lag_ms", "%.2fms"),
			meanOf(r.metrics, "vp_journal_recovery_ms", "%.1fms"))
	}

	for _, r := range rows {
		if r.health.Halted != "" {
			fmt.Fprintf(w, "node %s halted, journal barrier failed: %s\n", r.id, r.health.Halted)
		}
	}

	if opt.gw != "" {
		renderGateway(client, opt.gw, w)
	}
	renderPhases(rows, w)
}

// gwStats mirrors the subset of gateway.Stats vptop renders.
type gwStats struct {
	Counters map[string]int64 `json:"counters"`
	Latency  metrics.Summary  `json:"latency_ms"`
	Inflight int              `json:"inflight"`
}

func renderGateway(client *http.Client, addr string, w io.Writer) {
	var st gwStats
	if err := getJSON(client, "http://"+addr+"/gw/stats", &st); err != nil {
		fmt.Fprintf(w, "\ngateway %s: DOWN (%v)\n", addr, err)
		return
	}
	fmt.Fprintf(w, "\ngateway: inflight %d, committed %d writes / %d reads, shed %d, batch rounds %d, p50 %.2fms p99 %.2fms\n",
		st.Inflight,
		st.Counters["gateway.write.committed"], st.Counters["gateway.read.committed"],
		st.Counters["gateway.shed"], st.Counters["gateway.batch.rounds"],
		st.Latency.P50, st.Latency.P99)
	var sp debughttp.SpansPayload
	if getJSON(client, "http://"+addr+"/spans?limit=0", &sp) == nil && sp.Enabled {
		fmt.Fprintf(w, "gateway spans: %d in %d traces\n", sp.Spans, sp.Traces)
	}
}

// renderPhases merges every node's per-phase rollup into one table.
// Counts sum exactly; for the latency columns each phase shows its
// worst node (max over the per-node quantiles), which cannot
// understate a problem the way averaging quantiles would.
func renderPhases(rows []nodeRow, w io.Writer) {
	type agg struct {
		count           int
		p50, p99, maxUS int64
	}
	phases := map[string]*agg{}
	for _, r := range rows {
		for _, ph := range r.spans.Phases {
			a := phases[ph.Phase]
			if a == nil {
				a = &agg{}
				phases[ph.Phase] = a
			}
			a.count += ph.Count
			a.p50 = max(a.p50, ph.P50US)
			a.p99 = max(a.p99, ph.P99US)
			a.maxUS = max(a.maxUS, ph.MaxUS)
		}
	}
	if len(phases) == 0 {
		fmt.Fprintln(w, "\nno spans retained (tracing off, or nothing sampled yet)")
		return
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return phases[names[i]].count > phases[names[j]].count ||
			(phases[names[i]].count == phases[names[j]].count && names[i] < names[j])
	})
	fmt.Fprintf(w, "\nspan phases (latency = worst node):\n")
	fmt.Fprintf(w, "%-16s %7s %12s %12s %12s\n", "phase", "count", "p50", "p99", "max")
	for _, name := range names {
		a := phases[name]
		fmt.Fprintf(w, "%-16s %7d %12v %12v %12v\n", name, a.count,
			time.Duration(a.p50)*time.Microsecond,
			time.Duration(a.p99)*time.Microsecond,
			time.Duration(a.maxUS)*time.Microsecond)
	}
}

// meanOf renders a summary's mean (sum/count) with the given verb, or
// "-" when the node has observed nothing — a diskless node has no
// journal batch sizes, fsync lag, or recovery time to report.
func meanOf(m map[string]float64, family, verb string) string {
	count := m[family+"_count"]
	if count == 0 {
		return "-"
	}
	return fmt.Sprintf(verb, m[family+"_sum"]/count)
}

// scrapeMetrics parses a Prometheus text exposition into a flat name →
// value map; labeled series are summed into their base family, which is
// exactly what the per-node message totals want.
func scrapeMetrics(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parsePrometheus(resp.Body)
}

func parsePrometheus(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		name := fields[0]
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}
