package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Cluster timing, fixed for every workload. δ = 20 ms gives the default
// probe period π = 20δ = 400 ms; journals keep the default 2 ms
// group-fsync. No message delay is injected: latency is processor and
// fsync time of this host, not a network's.
const clusterDelta = "20ms"

// env is where the harness lives on disk.
type env struct {
	root   string // checkout root (holds cmd/, internal/, BENCHMARK.json)
	outDir string // benchmark/out: logs, data directories, results
	binDir string // built vpnode and vpgateway
}

// findEnv locates the checkout root by walking up from the working
// directory, so the harness runs from the root or from benchmark/.
func findEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "vpnode")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
				return &env{
					root:   dir,
					outDir: filepath.Join(dir, "benchmark", "out"),
					binDir: filepath.Join(dir, ".bench_build", "bin"),
				}, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("cannot find the repository root (no cmd/vpnode and benchmark/go.mod above the working directory)")
		}
		dir = parent
	}
}

// build compiles the two programs under test, once per harness run.
// Build time is outside every timed region.
func (e *env) build() error {
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", e.binDir+string(filepath.Separator), "./cmd/vpnode", "./cmd/vpgateway")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/vpnode ./cmd/vpgateway: %v\n%s", err, out)
	}
	return nil
}

// --- child processes ---

// children tracks every live child so exit paths (normal return, SIGINT,
// panic, watchdog) can kill them all, and mirrors their pids to a file a
// later run checks before starting.
var children = struct {
	sync.Mutex
	procs   map[*proc]struct{}
	pidFile string
}{procs: make(map[*proc]struct{})}

// writePidFileLocked rewrites the pid file from the live set.
func writePidFileLocked() {
	if children.pidFile == "" {
		return
	}
	var b strings.Builder
	for p := range children.procs {
		fmt.Fprintf(&b, "%d %s\n", p.cmd.Process.Pid, p.bin)
	}
	os.WriteFile(children.pidFile, []byte(b.String()), 0o644) //nolint:errcheck // best-effort bookkeeping
}

// claimPidFile refuses to start while children of an earlier run are
// alive (they hold ports and CPU and would corrupt the measurement), then
// takes ownership of the pid file.
func claimPidFile(path string) error {
	raw, err := os.ReadFile(path)
	if err == nil {
		var alive []string
		for _, line := range strings.Split(string(raw), "\n") {
			pidStr, bin, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			// The pid may have been recycled: it is ours only if it still
			// runs the binary we spawned.
			if exe, err := os.Readlink("/proc/" + pidStr + "/exe"); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
				alive = append(alive, pidStr)
			}
		}
		if len(alive) > 0 {
			return fmt.Errorf("children of a previous run are still alive (pids %s); kill them first: kill -9 %s",
				strings.Join(alive, ","), strings.Join(alive, " "))
		}
	}
	children.Lock()
	children.pidFile = path
	writePidFileLocked()
	children.Unlock()
	return nil
}

// killAllChildren kills every live child's process group and waits for
// each to end.
func killAllChildren() {
	children.Lock()
	live := make([]*proc, 0, len(children.procs))
	for p := range children.procs {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// proc is one spawned vpnode or vpgateway.
type proc struct {
	name string
	bin  string
	args []string
	log  string // stdout+stderr, appended across restarts
	cmd  *exec.Cmd
	done chan struct{}
	// cpuPast is the CPU time of earlier incarnations (a node the fault
	// schedule killed and restarted).
	cpuPast time.Duration
}

// start spawns the process in its own process group, so a kill reaches
// anything it might fork and a terminal ^C reaches only the harness.
func (p *proc) start() error {
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cpuPast = p.cpu()
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.done = make(chan struct{})
	children.Lock()
	children.procs[p] = struct{}{}
	writePidFileLocked()
	children.Unlock()
	go func(cmd *exec.Cmd, done chan struct{}) {
		cmd.Wait() //nolint:errcheck // exit status of a killed child is not news
		children.Lock()
		delete(children.procs, p)
		writePidFileLocked()
		children.Unlock()
		close(done)
	}(p.cmd, p.done)
	return nil
}

func (p *proc) alive() bool {
	if p.done == nil {
		return false
	}
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL to the process group and waits until the process
// has ended. Safe on a process that is already gone.
func (p *proc) kill() {
	if p.done == nil {
		return
	}
	if p.alive() {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
	}
	<-p.done
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 100

// cpu returns user+system CPU time consumed so far: from /proc while the
// process runs, from its exit rusage once it has ended.
func (p *proc) cpu() time.Duration {
	if p.done == nil {
		return 0
	}
	if !p.alive() {
		if st := p.cmd.ProcessState; st != nil {
			return p.cpuPast + st.UserTime() + st.SystemTime()
		}
		return p.cpuPast
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return p.cpuPast
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return p.cpuPast
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64) //nolint:errcheck // kernel-formatted
	st, _ := strconv.ParseInt(f[12], 10, 64) //nolint:errcheck // kernel-formatted
	return p.cpuPast + time.Duration(ut+st)*time.Second/clockTick
}

// rssMB returns the resident set size from /proc/<pid>/status.
func (p *proc) rssMB() float64 {
	if !p.alive() {
		return 0
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64) //nolint:errcheck // kernel-formatted
			return kb / 1024
		}
	}
	return 0
}

// --- cluster ---

// cluster is one booted deployment: vpnode processes with -data
// directories on loopback TCP, fronted by one vpgateway process.
type cluster struct {
	sp        spec
	dataDir   string
	nodes     []*proc  // nodes[i] is processor i+1
	debugAddr []string // nodes' -debug-addr (http host:port)
	nodeAddr  []string // nodes' client/peer TCP address
	gw        *proc
	gwURL     string
	setup     time.Duration // first spawn → a probe write committed on every shard
}

// ctl is the HTTP client for control traffic (health polls, scrapes).
var ctl = &http.Client{Timeout: 2 * time.Second}

// freePorts asks the kernel for n distinct free loopback ports by
// binding :0 listeners, which it closes before returning.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// bootCluster spawns the deployment and waits until a probe write has
// committed on every shard. traced adds the existing tracing flags; the
// programs are otherwise started identically. Only flags on the pinned
// surface (see README) are used.
func bootCluster(e *env, sp spec, traced bool) (*cluster, error) {
	runDir := filepath.Join(e.outDir, sp.Name)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(runDir, "data-")
	if err != nil {
		return nil, err
	}
	addrs, err := freePorts(2*sp.Nodes + 1)
	if err != nil {
		return nil, err
	}
	c := &cluster{sp: sp, dataDir: dataDir,
		nodeAddr: addrs[:sp.Nodes], debugAddr: addrs[sp.Nodes : 2*sp.Nodes]}
	gwAddr := addrs[2*sp.Nodes]
	c.gwURL = "http://" + gwAddr

	pairs := make([]string, sp.Nodes)
	for i, a := range c.nodeAddr {
		pairs[i] = fmt.Sprintf("%d=%s", i+1, a)
	}
	clusterFlag := strings.Join(pairs, ",")
	objects := strings.Join(objectNames(sp.Objects), ",")
	var shardFlags []string
	if sp.Shards > 1 {
		shardFlags = []string{"-shards", strconv.Itoa(sp.Shards),
			"-shard-seed", strconv.Itoa(shardSeed), "-shard-replicas", strconv.Itoa(sp.ShardReplicas)}
	}

	for i := 0; i < sp.Nodes; i++ {
		id := strconv.Itoa(i + 1)
		args := []string{"-id", id, "-cluster", clusterFlag, "-objects", objects,
			"-delta", clusterDelta, "-data", filepath.Join(dataDir, "n"+id), "-debug-addr", c.debugAddr[i]}
		if traced {
			args = append(args, "-trace", filepath.Join(dataDir, "n"+id+".trace.jsonl"))
		}
		args = append(args, shardFlags...)
		c.nodes = append(c.nodes, &proc{name: "n" + id, bin: filepath.Join(e.binDir, "vpnode"),
			args: args, log: filepath.Join(runDir, "n"+id+".log")})
	}
	gwArgs := []string{"-listen", gwAddr, "-cluster", clusterFlag}
	if traced {
		gwArgs = append(gwArgs, "-trace-sample", "8")
	}
	gwArgs = append(gwArgs, shardFlags...)
	c.gw = &proc{name: "gw", bin: filepath.Join(e.binDir, "vpgateway"), args: gwArgs,
		log: filepath.Join(runDir, "gw.log")}

	probes, err := sp.probeObjects()
	if err != nil {
		return nil, err
	}
	// Logs are appended across a node's restarts but start afresh with
	// each boot, so the directory holds the last boot's story only.
	for _, p := range append(append([]*proc(nil), c.nodes...), c.gw) {
		os.Remove(p.log) //nolint:errcheck // absent on the first boot
	}

	began := time.Now()
	for _, p := range append(append([]*proc(nil), c.nodes...), c.gw) {
		if err := p.start(); err != nil {
			c.stop()
			return nil, err
		}
	}
	if err := c.waitServing(probes, 20*time.Second); err != nil {
		c.stop()
		return nil, fmt.Errorf("%s: cluster did not come up (logs in %s): %w", sp.Name, runDir, err)
	}
	c.setup = time.Since(began)
	return c, nil
}

// healthState is the node /healthz body.
type healthState struct {
	OK   bool   `json:"ok"`
	VPN  uint64 `json:"vpn"`
	View []int  `json:"view"`
}

// health reads node i's (0-based) readiness state; a node that does not
// answer is reported as not OK.
func (c *cluster) health(i int) healthState {
	var st healthState
	resp, err := ctl.Get("http://" + c.debugAddr[i] + "/healthz")
	if err != nil {
		return st
	}
	defer resp.Body.Close()
	json.NewDecoder(resp.Body).Decode(&st) //nolint:errcheck // zero state on a bad body
	return st
}

// waitAssigned polls until every node reports OK (assigned to a virtual
// partition on every hosted shard), at a 5 ms period so the wait adds no
// coarse quantum to setup_s.
func (c *cluster) waitAssigned(deadline time.Time) error {
	for i := range c.nodes {
		for !c.health(i).OK {
			if !c.nodes[i].alive() {
				return fmt.Errorf("node %d exited", i+1)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %d not in a view before the deadline", i+1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// waitFullView polls until node i's view holds every node.
func (c *cluster) waitFullView(i int, deadline time.Time) error {
	for {
		if st := c.health(i); st.OK && len(st.View) == len(c.nodes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d did not rejoin a full view before the deadline", i+1)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// probeObjects picks one object per shard (object 0 when unsharded) for
// the probe writes that end set-up.
func (sp spec) probeObjects() ([]int, error) {
	shardOf, err := sp.shardOf()
	if shardOf == nil {
		return []int{0}, err
	}
	var probes []int
	seen := make(map[int]bool)
	for o := 0; o < sp.Objects && len(seen) < sp.Shards; o++ {
		if s := shardOf(o); !seen[s] {
			seen[s] = true
			probes = append(probes, o)
		}
	}
	return probes, nil
}

// waitServing waits for view formation, then commits a probe write on
// each of the given objects through the gateway (delta 0, so counters
// are untouched).
func (c *cluster) waitServing(probes []int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	if err := c.waitAssigned(deadline); err != nil {
		return err
	}
	for _, o := range probes {
		for {
			err := probeWrite(c.gwURL, o)
			if err == nil {
				break
			}
			if !c.gw.alive() {
				return errors.New("gateway exited")
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("probe write on o%d: %w", o, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// probeWrite commits a no-op increment on object index o.
func probeWrite(gwURL string, o int) error {
	body := fmt.Sprintf(`{"ops":[{"kind":"incr","obj":"o%d","delta":0}]}`, o)
	resp, err := ctl.Post(gwURL+"/txn", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body) //nolint:errcheck // judged by status below
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return nil
}

// stop kills every process of the cluster and removes its data. Logs
// stay in benchmark/out/<workload>/ for post-mortem.
func (c *cluster) stop() {
	for _, p := range append(append([]*proc(nil), c.nodes...), c.gw) {
		if p != nil {
			p.kill()
		}
	}
	os.RemoveAll(c.dataDir) //nolint:errcheck // best-effort cleanup of a temp dir
}

// nodeCPU sums the CPU time of every node process, restarts included.
func (c *cluster) nodeCPU() time.Duration {
	var sum time.Duration
	for _, p := range c.nodes {
		sum += p.cpu()
	}
	return sum
}
