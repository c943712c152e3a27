package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// JSONL export/import. One event per line, keyed by (proc, vp, time,
// seq); field order is fixed by the struct below, so traces from
// identical simulated runs are byte-identical and diffable. Zero-valued
// optional fields are omitted to keep lines short.

type jsonEvent struct {
	Seq   uint64 `json:"seq"`
	AtNs  int64  `json:"at_ns"`
	Proc  int    `json:"proc,omitempty"`
	Kind  string `json:"kind"`
	VPN   uint64 `json:"vp_n,omitempty"`
	VPP   int    `json:"vp_p,omitempty"`
	TxnS  int64  `json:"txn_start,omitempty"`
	TxnP  int    `json:"txn_p,omitempty"`
	TxnQ  uint64 `json:"txn_seq,omitempty"`
	Obj   string `json:"obj,omitempty"`
	Peer  int    `json:"peer,omitempty"`
	Msg   string `json:"msg,omitempty"`
	Aux   int64  `json:"aux,omitempty"`
	Procs []int  `json:"procs,omitempty"`
	// Trace/Span/Parent carry the causal context of EvSpan events; they
	// are appended after the original fields and omitted when zero, so
	// pre-tracing captures round-trip byte-identically.
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint32 `json:"span,omitempty"`
	Parent uint32 `json:"parent,omitempty"`
	// Shard scopes the event in sharded deployments; appended after the
	// earlier fields and omitted when zero, so unsharded captures stay
	// byte-identical.
	Shard int `json:"shard,omitempty"`
}

func toJSON(e Event) jsonEvent {
	je := jsonEvent{
		Seq:  e.Seq,
		AtNs: int64(e.At),
		Proc: int(e.Proc),
		Kind: e.Kind.String(),
		VPN:  e.VP.N,
		VPP:  int(e.VP.P),
		TxnS: e.Txn.Start,
		TxnP: int(e.Txn.P),
		TxnQ: e.Txn.Seq,
		Obj:  string(e.Obj),
		Peer: int(e.Peer),
		Msg:  e.Msg,
		Aux:  e.Aux,

		Trace:  e.Ctx.Trace,
		Span:   e.Ctx.Span,
		Parent: e.Ctx.Parent,
		Shard:  int(e.Shard),
	}
	for _, p := range e.Procs.Sorted() {
		je.Procs = append(je.Procs, int(p))
	}
	return je
}

func fromJSON(je jsonEvent) (Event, error) {
	kind, ok := ParseKind(je.Kind)
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown event kind %q", je.Kind)
	}
	e := Event{
		Seq:   je.Seq,
		At:    time.Duration(je.AtNs),
		Proc:  model.ProcID(je.Proc),
		Kind:  kind,
		VP:    model.VPID{N: je.VPN, P: model.ProcID(je.VPP)},
		Txn:   model.TxnID{Start: je.TxnS, P: model.ProcID(je.TxnP), Seq: je.TxnQ},
		Obj:   model.ObjectID(je.Obj),
		Peer:  model.ProcID(je.Peer),
		Msg:   je.Msg,
		Aux:   je.Aux,
		Ctx:   model.TraceCtx{Trace: je.Trace, Span: je.Span, Parent: je.Parent},
		Shard: model.ShardID(je.Shard),
	}
	for _, p := range je.Procs {
		if err := model.CheckProc(model.ProcID(p)); err != nil {
			return Event{}, fmt.Errorf("trace: event %d: %w", je.Seq, err)
		}
		e.Procs.Add(model.ProcID(p))
	}
	return e, nil
}

// WriteJSONL writes events to w, one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(toJSON(e)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL exports the recorder's retained events (oldest first).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, r.Events())
}

// ReadJSONL parses a JSONL trace back into events. Blank lines are
// skipped; any malformed line aborts with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		e, err := fromJSON(je)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
