package storage

import (
	"sync/atomic"
	"time"
)

// Throttled wraps a Backend with a bandwidth/latency cost model, used to
// study how the listless-I/O advantage depends on the speed of the file
// system relative to memory and interconnect (paper §4.2, "file-system
// and memory performance").  Every operation pays Latency plus
// size/bandwidth of busy time, accumulated across operations so that
// sub-resolution costs are not lost.  A vectored batch or a view
// transfer pays one Latency plus its total bytes — the cost model under
// which batching n runs into one call is the win.  Registration, seal,
// commit and abort are control traffic, charged only the Latency; sync,
// truncate, and epoch begin and end are free.
type Throttled struct {
	spine
	ReadBW  int64         // bytes per second; 0 = unlimited
	WriteBW int64         // bytes per second; 0 = unlimited
	Latency time.Duration // per-operation seek/issue cost

	debt atomic.Int64 // accumulated nanoseconds not yet slept
}

// NewThrottled wraps b with the given read/write bandwidths (bytes/s) and
// per-operation latency.
func NewThrottled(b Backend, readBW, writeBW int64, latency time.Duration) *Throttled {
	t := &Throttled{ReadBW: readBW, WriteBW: writeBW, Latency: latency}
	t.spine = spine{in: b, pol: t}
	return t
}

func (t *Throttled) charge(n, bw int64) {
	ns := int64(t.Latency)
	if bw > 0 {
		ns += n * int64(time.Second) / bw
	}
	// Accumulate and sleep only when the debt is large enough for the
	// sleeper to be meaningful; this keeps many small operations honest
	// without millions of timer calls.
	d := t.debt.Add(ns)
	const quantum = int64(200 * time.Microsecond)
	if d >= quantum {
		if t.debt.CompareAndSwap(d, 0) {
			time.Sleep(time.Duration(d))
		}
	}
}

func (t *Throttled) around(c call) (int64, error) {
	switch {
	case c.kind.reads():
		t.charge(c.n, t.ReadBW)
	case c.kind.writes():
		t.charge(c.n, t.WriteBW)
	case c.kind.control():
		t.charge(0, 0)
	}
	return c.run()
}
