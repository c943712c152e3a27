// Package onecopy records transaction histories and decides one-copy
// serializability (1SR), the correctness criterion of the paper (§3,
// [BGb], [TGGL]): an execution over replicated data must be equivalent to
// some serial execution of the same transactions on a single-copy
// database.
//
// Two checkers are provided. Check replays candidate serial orders with
// memoized depth-first search — exact, and practical for the tens of
// transactions used in anomaly scenarios and property tests. CheckGraph
// builds the multiversion serialization graph induced by the recorded
// version order and tests acyclicity — a sound certificate that scales to
// large histories.
package onecopy

import (
	"fmt"
	"sort"
	"sync"

	"github.com/virtualpartitions/vp/internal/model"
)

// TxnRecord describes one completed transaction as the checker sees it:
// for every logical object read, the version it observed (whose Writer
// field identifies the transaction it read from), and for every logical
// object written, the version it installed.
type TxnRecord struct {
	ID        model.TxnID
	Epoch     model.VPID // virtual partition it executed in (zero if n/a)
	Committed bool
	Reads     map[model.ObjectID]model.Version
	Writes    map[model.ObjectID]model.Version
}

// History is a thread-safe log of transaction records. Nodes append to
// it as transactions finish; checkers and experiments read it afterwards.
type History struct {
	mu      sync.Mutex
	records []TxnRecord
	inDoubt map[model.TxnID]TxnRecord // see InDoubt
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Record appends one transaction outcome, superseding an in-doubt
// record of the same transaction.
func (h *History) Record(r TxnRecord) {
	h.mu.Lock()
	delete(h.inDoubt, r.ID)
	h.records = append(h.records, r)
	h.mu.Unlock()
}

// InDoubt parks the record of a transaction whose coordinator has
// written its decision to a journal but not yet announced it. If the
// coordinator dies in between, nobody that knows what the transaction
// read and wrote survives — yet the restarted coordinator finds the
// decision and carries it out. It then calls Resolve, and the parked
// record joins the history with that outcome. A record never resolved
// (the decision did not reach the disk: presumed abort) stays out of it.
func (h *History) InDoubt(r TxnRecord) {
	h.mu.Lock()
	if h.inDoubt == nil {
		h.inDoubt = make(map[model.TxnID]TxnRecord)
	}
	h.inDoubt[r.ID] = r
	h.mu.Unlock()
}

// Resolve records the in-doubt transaction id, if there is one, with the
// outcome its coordinator's journal held.
func (h *History) Resolve(id model.TxnID, committed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.inDoubt[id]
	if !ok {
		return
	}
	delete(h.inDoubt, id)
	if r.Committed = committed; !committed {
		r.Writes = nil
	}
	h.records = append(h.records, r)
}

// All returns a copy of every record, in arrival order.
func (h *History) All() []TxnRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]TxnRecord(nil), h.records...)
}

// Committed returns the committed transactions only — the ones 1SR
// quantifies over (aborted transactions have no effect by atomicity).
func (h *History) Committed() []TxnRecord {
	var out []TxnRecord
	for _, r := range h.All() {
		if r.Committed {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the number of records.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records)
}

// String renders the committed records for debugging.
func (h *History) String() string {
	out := ""
	for _, r := range h.Committed() {
		out += fmt.Sprintf("%s in %s:", r.ID, r.Epoch)
		for _, obj := range sortedObjs(r.Reads) {
			out += fmt.Sprintf(" r(%s)<-%s", obj, r.Reads[obj].Writer)
		}
		for _, obj := range sortedObjs(r.Writes) {
			out += fmt.Sprintf(" w(%s)", obj)
		}
		out += "\n"
	}
	return out
}

func sortedObjs(m map[model.ObjectID]model.Version) []model.ObjectID {
	out := make([]model.ObjectID, 0, len(m))
	for o := range m {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
