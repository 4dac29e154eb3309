package storage

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// AccessStats counts backend operations, bytes, and busy time.  The
// nanosecond totals sum over operations, so with concurrent accesses
// (the pipelined collective window loop) they can exceed wall time.
type AccessStats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	ReadNs, WriteNs         int64
}

// Observed wraps a Backend with the storage layer's one observer.  For
// every call it
//   - records a span on a tracer — normally the collector's shared
//     storage-backend track, where cross-rank contention on the common
//     file becomes visible — whose Window is the file offset (the
//     view-data offset of a view transfer, the length of a truncate,
//     the epoch id of a seal or commit, trace.NoWindow for a sync) and
//     whose byte count is what the call actually moved;
//   - counts reads and writes for Stats: a vectored batch or a view
//     transfer is one access, as a preadv is one syscall;
//   - feeds the storage_* metrics of a registry: latency histograms,
//     byte and call counters, and the vectored batch-size distribution
//     that shows how well scatter/gather coalescing works.
//
// A nil tracer or registry switches that output off.  Registration and
// epoch abort pass through unobserved.  Safe for concurrent use when
// the wrapped backend is.
type Observed struct {
	spine
	tr *trace.Tracer

	// Stats counters, zeroed by Reset.
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	readNs, writeNs         atomic.Int64

	// Registry handles, nil without a registry; counters stay monotonic.
	readLat, writeLat, syncLat *obs.Hist
	batch                      *obs.Hist
	readCalls, writeCalls      *obs.Counter
	readB, writeB              *obs.Counter
	vReads, vWrites            *obs.Counter
}

// NewObserved wraps b; spans go to tr and metrics register under
// storage_* on reg.  Either may be nil.
func NewObserved(b Backend, tr *trace.Tracer, reg *obs.Registry) *Observed {
	o := &Observed{
		tr:         tr,
		readLat:    reg.Hist("storage_read_ns", "Storage read latency in nanoseconds."),
		writeLat:   reg.Hist("storage_write_ns", "Storage write latency in nanoseconds."),
		syncLat:    reg.Hist("storage_sync_ns", "Storage sync latency in nanoseconds."),
		batch:      reg.Hist("storage_vectored_batch_segs", "Segments per vectored storage call."),
		readCalls:  reg.Counter("storage_reads_total", "Storage read calls (vectored batches count once)."),
		writeCalls: reg.Counter("storage_writes_total", "Storage write calls (vectored batches count once)."),
		readB:      reg.Counter("storage_read_bytes_total", "Bytes read from storage."),
		writeB:     reg.Counter("storage_written_bytes_total", "Bytes written to storage."),
		vReads:     reg.Counter("storage_vectored_reads_total", "Vectored read batches issued."),
		vWrites:    reg.Counter("storage_vectored_writes_total", "Vectored write batches issued."),
	}
	o.spine = spine{in: b, pol: o}
	return o
}

// phase reports the span phase of a call kind; false for the calls that
// pass through unobserved.
func phase(k opKind) (trace.Phase, bool) {
	switch k {
	case opRead, opReadv:
		return trace.PhaseStorageRead, true
	case opWrite, opWritev:
		return trace.PhaseStorageWrite, true
	case opViewRead:
		return trace.PhaseStorageViewRead, true
	case opViewWrite:
		return trace.PhaseStorageViewWrite, true
	case opTruncate:
		return trace.PhaseStorageTruncate, true
	case opSync:
		return trace.PhaseStorageSync, true
	case opSeal:
		return trace.PhaseEpochSeal, true
	case opCommit:
		return trace.PhaseEpochCommit, true
	}
	return "", false
}

func (o *Observed) around(c call) (int64, error) {
	ph, ok := phase(c.kind)
	if !ok {
		return c.run()
	}
	tm := o.tr.Start(ph, c.off, c.n)
	n, err := c.run()
	ns := tm.StopBytes(n)
	switch {
	case c.kind.reads():
		o.reads.Add(1)
		o.bytesRead.Add(n)
		o.readNs.Add(ns)
		o.readCalls.Inc()
		o.readB.Add(n)
		o.readLat.Observe(ns)
		if c.kind.vectored() {
			o.vReads.Inc()
			o.batch.Observe(int64(len(c.segs)))
		}
	case c.kind.writes():
		o.writes.Add(1)
		o.bytesWritten.Add(n)
		o.writeNs.Add(ns)
		o.writeCalls.Inc()
		o.writeB.Add(n)
		o.writeLat.Observe(ns)
		if c.kind.vectored() {
			o.vWrites.Inc()
			o.batch.Observe(int64(len(c.segs)))
		}
	case c.kind == opSync:
		o.syncLat.Observe(ns)
	}
	return n, err
}

// Stats returns a snapshot of the access counters.
func (o *Observed) Stats() AccessStats {
	return AccessStats{
		Reads:        o.reads.Load(),
		Writes:       o.writes.Load(),
		BytesRead:    o.bytesRead.Load(),
		BytesWritten: o.bytesWritten.Load(),
		ReadNs:       o.readNs.Load(),
		WriteNs:      o.writeNs.Load(),
	}
}

// Reset zeroes the access counters.
func (o *Observed) Reset() {
	o.reads.Store(0)
	o.writes.Store(0)
	o.bytesRead.Store(0)
	o.bytesWritten.Store(0)
	o.readNs.Store(0)
	o.writeNs.Store(0)
}
