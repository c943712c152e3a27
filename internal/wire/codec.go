package wire

import "fmt"

// The TCP transport frames every message with a 4-byte big-endian length
// prefix. FrameHeaderLen is that prefix's size; MaxFrame bounds a frame's
// payload so a corrupt peer cannot make a reader allocate without limit.
const (
	FrameHeaderLen = 4
	MaxFrame       = 16 << 20
)

// kindID is the codec's numeric message discriminator: the low six bits
// of a frame's first byte (see binary.go), and the inner kind byte of a
// ShardMsg. Values are wire format: never reorder, only append.
type kindID uint8

const (
	kindInvalid kindID = iota
	kindNewVP
	kindAcceptVP
	kindCommitVP
	kindProbe
	kindProbeAck
	kindRecoverRead
	kindRecoverReadResp
	kindRecoverLog     // reserved: retired single-object log catch-up, refused on decode
	kindRecoverLogResp // reserved, like kindRecoverLog
	kindLockReq
	kindLockResp
	kindPrepare
	kindVote
	kindDecide
	kindDecideAck
	kindRelease
	kindClientTxn
	kindClientResult
	kindCatchupReq
	kindCatchupResp
	kindDecideQuery
	kindShardMsg
	kindShardEpochReq
	kindShardEpochResp
)

// kindNames names each kind for metrics and tracing (see Kind). The
// names are part of the per-kind message counters and of the trace's Msg
// field: never change one.
var kindNames = [...]string{
	kindNewVP:           "newvp",
	kindAcceptVP:        "acceptvp",
	kindCommitVP:        "commitvp",
	kindProbe:           "probe",
	kindProbeAck:        "probeack",
	kindRecoverRead:     "recoverread",
	kindRecoverReadResp: "recoverreadresp",
	kindLockReq:         "lockreq",
	kindLockResp:        "lockresp",
	kindPrepare:         "prepare",
	kindVote:            "vote",
	kindDecide:          "decide",
	kindDecideAck:       "decideack",
	kindRelease:         "release",
	kindClientTxn:       "clienttxn",
	kindClientResult:    "clientresult",
	kindCatchupReq:      "catchupreq",
	kindCatchupResp:     "catchupresp",
	kindDecideQuery:     "decidequery",
	kindShardMsg:        "shard",
	kindShardEpochReq:   "shardepochreq",
	kindShardEpochResp:  "shardepochresp",
}

// shardKindNames names a ShardMsg by its inner kind, "shard:<inner>",
// precomputed so naming one allocates nothing.
var shardKindNames = func() (names [len(kindNames)]string) {
	for k, name := range kindNames {
		if name != "" && kindID(k) != kindShardMsg {
			names[k] = kindNames[kindShardMsg] + ":" + name
		}
	}
	return names
}()

// Kind returns a short stable name for a message's type, for metrics.
func Kind(m Message) string {
	k := kindOf(m)
	if k == kindShardMsg {
		inner := m.(ShardMsg).Msg
		if name := shardKindNames[kindOf(inner)]; name != "" {
			return name
		}
		return "shard:" + Kind(inner)
	}
	if name := kindNames[k]; name != "" {
		return name
	}
	return fmt.Sprintf("unknown(%T)", m)
}

func kindOf(m Message) kindID {
	switch m.(type) {
	case NewVP:
		return kindNewVP
	case AcceptVP:
		return kindAcceptVP
	case CommitVP:
		return kindCommitVP
	case Probe:
		return kindProbe
	case ProbeAck:
		return kindProbeAck
	case RecoverRead:
		return kindRecoverRead
	case RecoverReadResp:
		return kindRecoverReadResp
	case CatchupReq:
		return kindCatchupReq
	case CatchupResp:
		return kindCatchupResp
	case LockReq:
		return kindLockReq
	case LockResp:
		return kindLockResp
	case Prepare:
		return kindPrepare
	case Vote:
		return kindVote
	case Decide:
		return kindDecide
	case DecideAck:
		return kindDecideAck
	case DecideQuery:
		return kindDecideQuery
	case Release:
		return kindRelease
	case ClientTxn:
		return kindClientTxn
	case ClientResult:
		return kindClientResult
	case ShardMsg:
		return kindShardMsg
	case ShardEpochReq:
		return kindShardEpochReq
	case ShardEpochResp:
		return kindShardEpochResp
	default:
		return kindInvalid
	}
}
