package wire

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
	kindRecoverLog
	kindRecoverLogResp
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
	case RecoverLog:
		return kindRecoverLog
	case RecoverLogResp:
		return kindRecoverLogResp
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
