package net

import (
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Verdict is an Interceptor's decision about one outbound message. The
// zero Verdict delivers the message normally.
type Verdict struct {
	// Drop loses the message (an omission failure). It is accounted as a
	// drop in the metrics and the trace, exactly like a down link.
	Drop bool
	// Delay postpones handing the message to the transport (a performance
	// failure). Delayed messages still honor the destination's bounded
	// queue when they eventually go out.
	Delay time.Duration
	// Duplicate delivers the message twice. The protocol must tolerate
	// duplicates anyway (retransmissions), so a nemesis is entitled to
	// manufacture them.
	Duplicate bool
}

// Interceptor inspects every remote send before the transport commits to
// it, so a fault injector can impose the paper's failure model — lost,
// slow and duplicated messages, partitions — on a live cluster. The TCP
// transport consults the installed interceptor on every non-local send;
// self-sends and the client result sink bypass it (a processor can
// always talk to itself, property S2). It gets the message itself, not
// only its kind (wire.Kind): a sharded deployment's traffic is
// wire.ShardMsg frames whose kind ("shard:probe") does not say WHICH
// shard, and a nemesis that partitions one shard's majority must tell.
//
// Implementations must be safe for concurrent use: a node calls
// Outbound from multiple goroutines.
type Interceptor interface {
	Outbound(from, to model.ProcID, m wire.Message) Verdict
}
