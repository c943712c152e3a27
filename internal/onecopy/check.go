package onecopy

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/virtualpartitions/vp/internal/model"
)

// Result reports a serializability verdict.
type Result struct {
	OK bool
	// Order is a witnessing serial order of the committed transactions
	// when OK (exact checker only).
	Order []model.TxnID
	// Reason explains a failure.
	Reason string
}

// Check decides one-copy serializability of the committed transactions in
// h, exactly. It searches for a serial order in which every read of an
// object observes the most recent preceding write of that object (reads
// with no preceding write must have observed the initial version, i.e. a
// zero Writer). Writes are identified by their Writer tags, so values
// need not be compared.
//
// The search is a depth-first enumeration memoized on (set of executed
// transactions, current writer of every object). It is exact — if no
// witnessing order exists the history is certainly not 1SR — and fast for
// the history sizes used in scenario tests (≲ 25 transactions).
func Check(h *History) Result {
	return CheckRecords(h.Committed())
}

// CheckRecords is Check over an explicit record slice.
func CheckRecords(recs []TxnRecord) Result {
	n := len(recs)
	if n == 0 {
		return Result{OK: true}
	}
	if n > 63 {
		return Result{OK: false, Reason: "exact checker limited to 63 transactions; use CheckGraph"}
	}
	// Deterministic exploration order.
	recs = append([]TxnRecord(nil), recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID.Less(recs[j].ID) })

	// Objects touched, densely numbered.
	objIdx := map[model.ObjectID]int{}
	var objs []model.ObjectID
	for _, r := range recs {
		for o := range r.Reads {
			if _, ok := objIdx[o]; !ok {
				objIdx[o] = len(objs)
				objs = append(objs, o)
			}
		}
		for o := range r.Writes {
			if _, ok := objIdx[o]; !ok {
				objIdx[o] = len(objs)
				objs = append(objs, o)
			}
		}
	}
	// writer ids, densely numbered; 0 = initial version.
	writerIdx := map[model.TxnID]int{{}: 0}
	for _, r := range recs {
		if _, ok := writerIdx[r.ID]; !ok {
			writerIdx[r.ID] = len(writerIdx)
		}
	}
	type key struct {
		mask uint64
		fp   uint64
	}
	cur := make([]int, len(objs)) // current writer per object (0 = initial)
	// Memo fingerprint of cur. When every object's writer id fits the
	// packed budget the encoding is exact; otherwise fall back to FNV-1a
	// (writer ids are < 64, i.e. single bytes). A 64-bit hash collision
	// could in principle prune a reachable state, but the state counts
	// here (≲ 2^n·|writers|^|objs| visited, n ≤ 63 in practice ≪ 2^32)
	// make that vanishingly unlikely. Either way the key costs zero
	// allocations, unlike a per-state []byte→string fingerprint.
	bitsPer := bits.Len(uint(len(writerIdx) - 1))
	if bitsPer == 0 {
		bitsPer = 1
	}
	packed := bitsPer*len(objs) <= 64
	fingerprint := func() uint64 {
		if packed {
			var fp uint64
			for _, w := range cur {
				fp = fp<<bitsPer | uint64(w)
			}
			return fp
		}
		const offset64, prime64 = 14695981039346656037, 1099511628211
		fp := uint64(offset64)
		for _, w := range cur {
			fp ^= uint64(w)
			fp *= prime64
		}
		return fp
	}
	visited := map[key]bool{}
	var order []model.TxnID
	var dfs func(mask uint64) bool
	dfs = func(mask uint64) bool {
		if mask == (uint64(1)<<n)-1 {
			return true
		}
		k := key{mask, fingerprint()}
		if visited[k] {
			return false
		}
		visited[k] = true
		for i, r := range recs {
			if mask&(1<<i) != 0 {
				continue
			}
			// r can run next iff each of its reads saw the current writer.
			// A read of the transaction's own write is trivially satisfied
			// (it observed its in-progress state) and constrains nothing.
			ok := true
			for o, ver := range r.Reads {
				if ver.Writer == r.ID {
					continue
				}
				w, known := writerIdx[ver.Writer]
				if !known || cur[objIdx[o]] != w {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Apply r's writes, recurse, undo.
			var undo [][2]int
			for o := range r.Writes {
				oi := objIdx[o]
				undo = append(undo, [2]int{oi, cur[oi]})
				cur[oi] = writerIdx[r.ID]
			}
			order = append(order, r.ID)
			if dfs(mask | 1<<i) {
				return true
			}
			order = order[:len(order)-1]
			for _, u := range undo {
				cur[u[0]] = u[1]
			}
		}
		return false
	}
	if dfs(0) {
		return Result{OK: true, Order: append([]model.TxnID(nil), order...)}
	}
	return Result{OK: false, Reason: "no serial order satisfies every read"}
}

// CheckGraph tests 1SR via the multiversion serialization graph induced
// by the recorded version order: for each object, the committed writes
// are ordered by their versions; edges are
//
//	wr: the writer of a version → each transaction that read it,
//	ww: each write → the next write of the same object,
//	rw: each reader of a version → the writer of the next version.
//
// Acyclicity of this graph certifies one-copy serializability with
// respect to the recorded version order. It also verifies that every
// read observed the writer recorded for that version (catching protocols
// that return values inconsistent with their own version tags). It scales
// linearly and is used for large randomized histories.
func CheckGraph(h *History) Result {
	return CheckGraphRecords(h.Committed())
}

// CheckGraphRecords is CheckGraph over an explicit record slice.
func CheckGraphRecords(recs []TxnRecord) Result {
	idx := map[model.TxnID]int{}
	for i, r := range recs {
		idx[r.ID] = i
	}
	// Per-object committed version chains.
	type verWrite struct {
		ver    model.Version
		writer int
	}
	chains := map[model.ObjectID][]verWrite{}
	for i, r := range recs {
		for o, v := range r.Writes {
			chains[o] = append(chains[o], verWrite{v, i})
		}
	}
	for o := range chains {
		c := chains[o]
		sort.Slice(c, func(i, j int) bool { return c[i].ver.Less(c[j].ver) })
		for i := 1; i < len(c); i++ {
			if !c[i-1].ver.Less(c[i].ver) {
				return Result{OK: false,
					Reason: fmt.Sprintf("duplicate version %v of %s", c[i].ver, o)}
			}
		}
	}
	adj := make(map[int]map[int]struct{})
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = make(map[int]struct{})
		}
		adj[a][b] = struct{}{}
	}
	// position of a version in its chain
	posOf := func(o model.ObjectID, v model.Version) int {
		c := chains[o]
		for i, w := range c {
			if w.ver == v {
				return i
			}
		}
		return -1
	}
	for i, r := range recs {
		for o, v := range r.Reads {
			if v.Writer == r.ID {
				continue // own write: trivially satisfied, no constraint
			}
			if v.Writer.IsZero() {
				// Read of the initial version: rw edge to the first write.
				if c := chains[o]; len(c) > 0 {
					addEdge(i, c[0].writer)
				}
				continue
			}
			wi, known := idx[v.Writer]
			if !known {
				return Result{OK: false, Reason: fmt.Sprintf(
					"%s read %s from uncommitted or unknown writer %s", r.ID, o, v.Writer)}
			}
			p := posOf(o, v)
			if p < 0 {
				return Result{OK: false, Reason: fmt.Sprintf(
					"%s read version %v of %s that no committed txn wrote", r.ID, v, o)}
			}
			addEdge(wi, i) // wr
			if p+1 < len(chains[o]) {
				addEdge(i, chains[o][p+1].writer) // rw
			}
		}
	}
	for _, c := range chains {
		for i := 1; i < len(c); i++ {
			addEdge(c[i-1].writer, c[i].writer) // ww
		}
	}
	// Cycle detection via iterative DFS coloring.
	color := make([]int, len(recs)) // 0 white, 1 gray, 2 black
	var stack []int
	for s := range recs {
		if color[s] != 0 {
			continue
		}
		stack = append(stack[:0], s)
		type frame struct {
			node int
			next []int
		}
		frames := []frame{{s, model.SortedKeys(adj[s])}}
		color[s] = 1
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if len(f.next) == 0 {
				color[f.node] = 2
				frames = frames[:len(frames)-1]
				continue
			}
			n := f.next[0]
			f.next = f.next[1:]
			switch color[n] {
			case 1:
				return Result{OK: false, Reason: fmt.Sprintf(
					"serialization graph cycle through %s", recs[n].ID)}
			case 0:
				color[n] = 1
				frames = append(frames, frame{n, model.SortedKeys(adj[n])})
			}
		}
	}
	return Result{OK: true}
}
