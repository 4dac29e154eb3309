package core

import (
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// Stats counts the work a file handle performed, separating the
// overheads the paper attributes to list-based I/O.  Every field is one
// row of statTable, which also names the core_* metric the same count
// feeds and says what it means; File.add is the only writer of both.
type Stats struct {
	// Access description: ol-list tuples built and exchanged (list-based
	// engine) and compact-fileview bytes exchanged (listless engine).
	ListTuples, ListBytesSent, ViewBytesSent int64
	// Sieving windows, and collective write windows whose pre-read the
	// combined fileviews made unnecessary.
	SieveReads, SieveWrites, PreReadsSkipped int64
	// The sparse-access direct path (SieveDensity): logical per-run
	// accesses, and the vectored batches that carried them.
	DirectReads, DirectWrites     int64
	VectoredReads, VectoredWrites int64
	// Fileviews registered with a view-capable backend (the remote
	// I/O-server tier) and the view-addressed transfers made with them.
	ViewRegistrations, ViewReads, ViewWrites int64
	// Completed collective accesses and user-data volumes moved.
	CollectiveWrites, CollectiveReads int64
	BytesRead, BytesWritten           int64
	// Data bytes moved in one pass between the user buffer and a file
	// window, with no pack buffer: independent sieving and the IOP's
	// own chunk of a collective.  0 means every access staged.
	MovedBytes int64

	// Per-phase time in nanoseconds, each the sum of the phase's trace
	// spans on this rank: ExchangeNs is AP↔IOP data send/receive,
	// StorageNs is collective window pre-reads and write-backs (whether
	// sequential or overlapped), CopyNs is pack/unpack and window
	// copying.
	ExchangeNs, StorageNs, CopyNs int64
	// IOP windows processed, and windows whose storage I/O overlapped a
	// neighboring window's exchange in the pipelined loop.
	Windows, WindowsOverlapped int64

	// The epoch crash-consistency protocol: collective writes committed,
	// seal or commit rounds retried, epochs abandoned after a fault.
	EpochsCommitted, EpochRetries, EpochAborts int64

	// Datatype copy programs compiled (process-wide memo-cache misses)
	// and lookups the cache satisfied.
	ProgramCompiles, ProgramCacheHits int64
}

// stat indexes one Stats field: the fields, in declaration order, are
// the rows of statTable.
type stat int

const (
	stListTuples stat = iota
	stListBytesSent
	stViewBytesSent
	stSieveReads
	stSieveWrites
	stPreReadsSkipped
	stDirectReads
	stDirectWrites
	stVectoredReads
	stVectoredWrites
	stViewRegistrations
	stViewReads
	stViewWrites
	stCollectiveWrites
	stCollectiveReads
	stBytesRead
	stBytesWritten
	stMovedBytes
	stExchangeNs
	stStorageNs
	stCopyNs
	stWindows
	stWindowsOverlapped
	stEpochsCommitted
	stEpochRetries
	stEpochAborts
	stProgramCompiles
	stProgramCacheHits
	numStats
)

// Stats is numStats int64s and nothing else (this fails to compile
// otherwise), so it can be indexed by stat.
var _ = [1]struct{}{}[unsafe.Sizeof(Stats{})-uintptr(numStats)*8]

// vals views the counters as an array indexed by stat.
func (s *Stats) vals() *[numStats]int64 { return (*[numStats]int64)(unsafe.Pointer(s)) }

// statTable is the one definition of every counter: its Stats field,
// its core_* metric and the metric's help text.
var statTable = [numStats]struct{ field, metric, help string }{
	{"ListTuples", "core_list_tuples_total", "Ol-list tuples built (list-based engine)."},
	{"ListBytesSent", "core_list_bytes_sent_total", "Ol-list bytes sent to IOPs by collective accesses."},
	{"ViewBytesSent", "core_view_bytes_sent_total", "Encoded fileview bytes exchanged (listless engine)."},
	{"SieveReads", "core_sieve_reads_total", "Sieving windows read: collective window reads and independent sieve reads."},
	{"SieveWrites", "core_sieve_writes_total", "Sieving windows written: collective window write-backs and independent read-modify-writes."},
	{"PreReadsSkipped", "core_prereads_skipped_total", "Window pre-reads skipped by the mergeview full-coverage check."},
	{"DirectReads", "core_direct_reads_total", "Per-run reads taken by the sparse-access direct path."},
	{"DirectWrites", "core_direct_writes_total", "Per-run writes taken by the sparse-access direct path."},
	{"VectoredReads", "core_vectored_reads_total", "Vectored read batches issued by the direct path."},
	{"VectoredWrites", "core_vectored_writes_total", "Vectored write batches issued by the direct path."},
	{"ViewRegistrations", "core_view_registrations_total", "Fileviews registered with a view-capable backend."},
	{"ViewReads", "core_view_reads_total", "View-addressed reads issued by the direct path."},
	{"ViewWrites", "core_view_writes_total", "View-addressed writes issued by the direct path."},
	{"CollectiveWrites", "core_collective_writes_total", "Collective write accesses completed."},
	{"CollectiveReads", "core_collective_reads_total", "Collective read accesses completed."},
	{"BytesRead", "core_read_bytes_total", "Data bytes moved by collective and independent reads."},
	{"BytesWritten", "core_written_bytes_total", "Data bytes moved by collective and independent writes."},
	{"MovedBytes", "core_moved_bytes_total", "Data bytes moved in one pass between the user buffer and a file window, without a pack buffer."},
	{"ExchangeNs", "core_exchange_ns_total", "Nanoseconds in AP-IOP data exchange, AP and IOP side."},
	{"StorageNs", "core_storage_ns_total", "Nanoseconds in collective window storage I/O."},
	{"CopyNs", "core_copy_ns_total", "Nanoseconds in pack/unpack and window merge copies, AP and IOP side."},
	{"Windows", "core_windows_total", "IOP file windows processed."},
	{"WindowsOverlapped", "core_windows_overlapped_total", "Windows whose storage I/O overlapped a neighbor's exchange (pipeline hits)."},
	{"EpochsCommitted", "core_epochs_committed_total", "Epoch commit rounds completed."},
	{"EpochRetries", "core_epoch_retries_total", "Epoch seal/commit rounds retried after a server bounce."},
	{"EpochAborts", "core_epoch_aborts_total", "Epochs abandoned after a collective fault."},
	{"ProgramCompiles", "core_program_compiles_total", "Datatype copy programs compiled (memo-cache misses)."},
	{"ProgramCacheHits", "core_program_cache_hits_total", "Program memo-cache hits."},
}

// statCounters registers the core_* counters on r; a nil registry
// yields all-nil handles, whose updates are no-ops.
func statCounters(r *obs.Registry) (c [numStats]*obs.Counter) {
	if r == nil {
		return c
	}
	for k, row := range statTable {
		c[k] = r.Counter(row.metric, row.help)
	}
	return c
}

// add charges n to counter k: the Stats field and its live metric.
// Stats has one writer, the rank's main goroutine; the metric is atomic
// so a concurrent /metrics scrape sees a current, race-free value.
func (f *File) add(k stat, n int64) {
	f.Stats.vals()[k] += n
	f.ctr[k].Add(n)
}

// Snapshot returns a copy of the counters, for differencing around a
// phase of interest: take one before, one after, and Sub them.
func (s *Stats) Snapshot() Stats { return *s }

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats {
	for k, v := range prev.vals() {
		s.vals()[k] -= v
	}
	return s
}

// String renders every nonzero counter as label=value, phase times as
// durations, wrapped into lines of moderate width.  The label is the
// metric name without its core_ prefix and unit suffixes.
func (s Stats) String() string {
	var b, line strings.Builder
	for k, v := range s.vals() {
		if v == 0 {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(statTable[k].metric, "core_"), "_total")
		val := strconv.FormatInt(v, 10)
		if n, ok := strings.CutSuffix(name, "_ns"); ok {
			name, val = n, time.Duration(v).Round(time.Microsecond).String()
		}
		item := strings.ReplaceAll(name, "_", " ") + "=" + val
		if line.Len() > 0 && line.Len()+2+len(item) > 72 {
			b.WriteString(line.String() + "\n")
			line.Reset()
		}
		if line.Len() > 0 {
			line.WriteString("  ")
		}
		line.WriteString(item)
	}
	if line.Len() > 0 {
		b.WriteString(line.String() + "\n")
	}
	return b.String()
}
