package ioserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datatype"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config describes one I/O server: the backend holding its stripe's
// bytes, and its place in the global layout.
type Config struct {
	// Backend stores this server's stripe (local offsets).
	Backend storage.Backend
	// Geom is the global stripe layout; Index is this server's stripe.
	// Every server of a deployment must be configured with the same
	// Geom, and the clients with the matching layout — the shared
	// StripeGeom arithmetic is what keeps them agreeing on ownership.
	Geom  storage.StripeGeom
	Index int
	// MaxFrame bounds request and response payloads (<= 0 selects
	// transport.DefaultMaxFrame).  Header lengths are validated against
	// it before any allocation.
	MaxFrame int
	// ViewCache is the per-connection registered-view LRU capacity
	// (<= 0 selects DefaultViewCache).  Evicted handles answer
	// subsequent view requests with a stale-handle error, which clients
	// repair by re-registering.
	ViewCache int
	// Tracer, when non-nil, records request spans and view-cache
	// events.
	Tracer *trace.Tracer
	// Journal is the intent journal backing the epoch commit protocol.
	// File-backed deployments recover one with RecoverJournal (replaying
	// committed epochs into Backend first) and pass it here; when nil,
	// New builds a volatile in-memory journal, which still gives staged
	// writes commit atomicity against everything but a server crash.
	Journal *Journal
	// Recovery, when the journal came from RecoverJournal, carries what
	// recovery found; its counts fold into Stats so op=stats and the
	// metrics plane reflect crash-consistency activity across restarts.
	Recovery RecoveryInfo
	// Metrics, when non-nil, registers the server's request counters and
	// per-op latency histograms; opMetrics serves its snapshot in-band.
	Metrics *obs.Registry
	// Proc names this process in metrics snapshots (default
	// "srv<Index>").
	Proc string
}

// Server serves one stripe of a file to any number of client
// connections.
type Server struct {
	cfg         Config
	journal     *Journal
	incarnation int64 // instance id, fresh per process start
	stats       struct {
		requests, rawReads, rawWrites    atomic.Int64
		viewReads, viewWrites            atomic.Int64
		viewRegs, viewHits, staleHandles atomic.Int64
		bytesRead, bytesWritten          atomic.Int64
		stagedWrites, epochsCommitted    atomic.Int64
		epochsSealed, epochsAborted      atomic.Int64
	}
	opNs map[int]*obs.Hist // per-op handling latency, when Metrics is set

	// Epoch commit state: staged holds each in-flight epoch's parked
	// segments (applied to Backend only at commit), lastCommitted the
	// highest epoch this instance has applied.
	epochMu       sync.Mutex
	staged        map[uint64][]storage.Segment
	lastCommitted uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{} // closed when Serve returns
}

// New validates cfg and builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("ioserver: nil backend")
	}
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Geom.Count {
		return nil, fmt.Errorf("ioserver: stripe index %d out of range [0,%d)", cfg.Index, cfg.Geom.Count)
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = transport.DefaultMaxFrame
	}
	if cfg.ViewCache <= 0 {
		cfg.ViewCache = DefaultViewCache
	}
	j := cfg.Journal
	if j == nil {
		j = NewJournal(storage.NewMem())
	}
	if cfg.Proc == "" {
		cfg.Proc = fmt.Sprintf("srv%d", cfg.Index)
	}
	s := &Server{
		cfg:         cfg,
		journal:     j,
		incarnation: time.Now().UnixNano(),
		staged:      make(map[uint64][]storage.Segment),
		conns:       make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
	}
	s.registerMetrics(cfg.Metrics)
	return s, nil
}

// registerMetrics joins the server's counters to the metrics plane: the
// op tallies as zero-hot-path-cost gauge callbacks over the existing
// atomics, plus one latency histogram per protocol op.
func (s *Server) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("ioserver_requests_total", "Requests handled, all ops.", s.stats.requests.Load)
	r.GaugeFunc("ioserver_raw_reads_total", "opReadv requests served.", s.stats.rawReads.Load)
	r.GaugeFunc("ioserver_raw_writes_total", "opWritev requests served.", s.stats.rawWrites.Load)
	r.GaugeFunc("ioserver_view_reads_total", "opViewRead requests served.", s.stats.viewReads.Load)
	r.GaugeFunc("ioserver_view_writes_total", "opViewWrite requests served.", s.stats.viewWrites.Load)
	r.GaugeFunc("ioserver_view_registrations_total", "opRegister requests that decoded a new view.", s.stats.viewRegs.Load)
	r.GaugeFunc("ioserver_view_cache_hits_total", "opRegister requests answered from the view LRU.", s.stats.viewHits.Load)
	r.GaugeFunc("ioserver_view_stale_handles_total", "View requests naming an evicted or unknown handle.", s.stats.staleHandles.Load)
	r.GaugeFunc("ioserver_read_bytes_total", "Data bytes sent to clients.", s.stats.bytesRead.Load)
	r.GaugeFunc("ioserver_written_bytes_total", "Data bytes received from clients.", s.stats.bytesWritten.Load)
	r.GaugeFunc("ioserver_staged_writes_total", "Epoch-staged write requests.", s.stats.stagedWrites.Load)
	r.GaugeFunc("ioserver_epochs_committed_total", "Epoch commits applied.", s.stats.epochsCommitted.Load)
	r.GaugeFunc("ioserver_epochs_sealed_total", "Epoch seal requests answered.", s.stats.epochsSealed.Load)
	r.GaugeFunc("ioserver_epochs_aborted_total", "Epochs whose staged state was discarded by abort.", s.stats.epochsAborted.Load)
	r.GaugeFunc("ioserver_journal_fsyncs_total", "Journal syncs (commit, seal, and reset durability points).", s.journal.Fsyncs)
	r.GaugeFunc("ioserver_epochs_recovered_total", "Committed epochs re-applied by journal recovery at start.",
		func() int64 { return int64(s.cfg.Recovery.AppliedEpochs) })
	r.GaugeFunc("ioserver_epochs_discarded_total", "Staged-but-uncommitted epochs discarded by recovery.",
		func() int64 { return int64(s.cfg.Recovery.DiscardedEpochs) })
	r.GaugeFunc("ioserver_journal_torn_tails_total", "Torn journal tails truncated by recovery.",
		func() int64 {
			if s.cfg.Recovery.TornTail {
				return 1
			}
			return 0
		})
	s.opNs = make(map[int]*obs.Hist)
	for _, tag := range []int{opReadv, opWritev, opSize, opTruncate, opSync,
		opRegister, opViewRead, opViewWrite, opStats,
		opStageWritev, opStageViewWrite,
		opEpochSeal, opEpochCommit, opEpochAbort, opMetrics} {
		s.opNs[tag] = r.Hist("ioserver_op_ns", "Server-side request handling latency by op.",
			obs.Label{Key: "op", Value: opName(tag)})
	}
}

// opName labels a protocol op for metrics.
func opName(tag int) string {
	switch tag {
	case opReadv:
		return "readv"
	case opWritev:
		return "writev"
	case opSize:
		return "size"
	case opTruncate:
		return "truncate"
	case opSync:
		return "sync"
	case opRegister:
		return "register"
	case opViewRead:
		return "view_read"
	case opViewWrite:
		return "view_write"
	case opStats:
		return "stats"
	case opStageWritev:
		return "stage_writev"
	case opStageViewWrite:
		return "stage_view_write"
	case opEpochSeal:
		return "epoch_seal"
	case opEpochCommit:
		return "epoch_commit"
	case opEpochAbort:
		return "epoch_abort"
	case opMetrics:
		return "metrics"
	}
	return "unknown"
}

// Serve accepts connections on ln until Close, handling each on its own
// goroutine.  It returns nil after a Close-initiated shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("ioserver: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	defer close(s.done)

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, seals the journal and syncs the stripe (so a
// graceful shutdown is distinguishable from a crash on recovery), closes
// every live connection, and waits for the handlers and Serve to return.
// Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()

	// Graceful-shutdown seal: fsync the stripe and mark the journal
	// before dropping connections.  Failures are reported but do not
	// abort the shutdown.
	s.epochMu.Lock()
	err := s.journal.AppendSeal()
	if serr := s.cfg.Backend.Sync(); err == nil {
		err = serr
	}
	s.epochMu.Unlock()

	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln == nil {
		return err
	}
	ln.Close()
	<-s.done
	return err
}

// Stats snapshots the request counters.  The recovery numbers come from
// the journal recovery that produced cfg.Journal (zero for fresh
// starts), so a restarted server's stats carry its crash history.
func (s *Server) Stats() ServerStats {
	torn := int64(0)
	if s.cfg.Recovery.TornTail {
		torn = 1
	}
	return ServerStats{
		Requests:          s.stats.requests.Load(),
		RawReads:          s.stats.rawReads.Load(),
		RawWrites:         s.stats.rawWrites.Load(),
		ViewReads:         s.stats.viewReads.Load(),
		ViewWrites:        s.stats.viewWrites.Load(),
		ViewRegistrations: s.stats.viewRegs.Load(),
		ViewCacheHits:     s.stats.viewHits.Load(),
		StaleHandles:      s.stats.staleHandles.Load(),
		BytesRead:         s.stats.bytesRead.Load(),
		BytesWritten:      s.stats.bytesWritten.Load(),
		StagedWrites:      s.stats.stagedWrites.Load(),
		EpochsCommitted:   s.stats.epochsCommitted.Load(),
		EpochsSealed:      s.stats.epochsSealed.Load(),
		EpochsAborted:     s.stats.epochsAborted.Load(),
		JournalFsyncs:     s.journal.Fsyncs(),
		EpochsRecovered:   int64(s.cfg.Recovery.AppliedEpochs),
		EpochsDiscarded:   int64(s.cfg.Recovery.DiscardedEpochs),
		TornTails:         torn,
	}
}

// serverView is one decoded registration in a connection's cache.
type serverView struct {
	key    string // the raw opRegister payload, the cache key
	handle uint64
	disp   int64
	t      *datatype.Type
}

// connState is the per-connection handler state: the registered-view
// LRU plus reusable scratch buffers.  It is confined to the
// connection's goroutine.
type connState struct {
	srv *Server
	fc  *transport.FrameConn

	views  map[uint64]*serverView // live handles
	byKey  map[string]*serverView // cache index
	lru    []*serverView          // least recent first
	nextID uint64

	req  []byte            // request payload buffer, reused
	resp []byte            // response staging buffer, reused
	ents [][2]int64        // decoded offset list (off, n), reused
	segs []storage.Segment // vectored-call staging, reused

	// Staging tally for the connection's in-flight epoch, echoed by
	// opEpochSeal so the client can verify nothing staged was lost to a
	// silent restart.
	tallyEpoch             uint64
	tallyCount, tallyBytes int64
}

// handleConn serves one connection to completion.  Malformed framing
// tears the connection down (the stream cannot be resynchronized);
// malformed requests inside a valid frame answer with an opErr frame
// and keep the connection.
func (s *Server) handleConn(conn net.Conn) {
	st := &connState{
		srv:   s,
		fc:    transport.NewFrameConn(conn, s.cfg.MaxFrame),
		views: make(map[uint64]*serverView),
		byKey: make(map[string]*serverView),
	}
	defer st.fc.Close()
	for {
		// EOF is the client hanging up; anything else is a framing
		// failure — either way the stream is over.
		seq, tag, n, err := st.fc.ReadHeader()
		if err != nil {
			return
		}
		// Every request lands in the one per-connection buffer: no
		// handler keeps its payload past the response (staging and the
		// journal copy, backends must not retain write buffers, and a
		// registration's cache key is a string copy).
		st.req = grow(st.req[:0], int64(n))
		if err := st.fc.ReadPayload(st.req); err != nil {
			return
		}
		s.stats.requests.Add(1)
		if err := st.handle(seq, tag, st.req); err != nil {
			return // response write failed: connection is gone
		}
	}
}

// handle dispatches one request and writes its response.  The returned
// error reports only response-write failures.
func (st *connState) handle(seq, tag int, payload []byte) error {
	var t0 time.Time
	if st.srv.opNs != nil {
		t0 = time.Now()
	}
	resp, err := st.dispatch(tag, payload)
	if st.srv.opNs != nil {
		st.srv.opNs[tag].ObserveSince(t0) // nil map entry (unknown op) no-ops
	}
	if err != nil {
		class, msg := wireError(err)
		if errors.Is(err, errStale) {
			class = classStale
		} else if errors.Is(err, errTruncated) || errors.Is(err, errBadRequest) {
			class = classBad
		}
		st.resp = putV(st.resp[:0], class)
		st.resp = append(st.resp, msg...)
		return st.fc.WriteFrame(seq, opErr, st.resp)
	}
	return st.fc.WriteFrame(seq, tag, resp)
}

// errBadRequest classifies a structurally valid but unserviceable
// request (bad lengths, unknown op, oversized response).
var errBadRequest = errors.New("ioserver: bad request")

func (st *connState) dispatch(tag int, payload []byte) ([]byte, error) {
	switch tag {
	case opReadv:
		return st.opReadv(payload)
	case opWritev:
		return st.opWritev(payload, false)
	case opSize:
		return putV(st.resp[:0], st.srv.cfg.Backend.Size()), nil
	case opTruncate:
		n, _, err := getV(payload)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("%w: negative truncate %d", errBadRequest, n)
		}
		if err := checkExtent(n, 0); err != nil {
			return nil, err
		}
		return nil, st.srv.cfg.Backend.Truncate(n)
	case opSync:
		return nil, st.srv.cfg.Backend.Sync()
	case opRegister:
		return st.opRegister(payload)
	case opViewRead, opViewWrite, opStageViewWrite:
		return st.opView(payload, tag)
	case opStats:
		return st.srv.Stats().encode(st.resp[:0]), nil
	case opMetrics:
		// An empty registry still answers with a valid (empty) snapshot,
		// so pullers need not know whether the server was instrumented.
		snap := st.srv.cfg.Metrics.Snapshot(st.srv.cfg.Proc)
		st.resp = append(st.resp[:0], snap.Encode()...)
		return st.resp, nil
	case opStageWritev:
		return st.opWritev(payload, true)
	case opEpochSeal:
		return st.opEpochSeal(payload)
	case opEpochCommit:
		return st.opEpochCommit(payload)
	case opEpochAbort:
		return st.opEpochAbort(payload)
	}
	return nil, fmt.Errorf("%w: unknown op %d", errBadRequest, tag)
}

// parseList decodes an offset list — k, then k×(off, n) — into st.ents
// and returns the runs' total length and the bytes after the list.
// limit bounds the total.
func (st *connState) parseList(payload []byte, limit int64) (int64, []byte, error) {
	k, payload, err := getV(payload)
	if err != nil {
		return 0, nil, err
	}
	if k < 0 || k > MaxListRuns {
		return 0, nil, fmt.Errorf("%w: list of %d runs (limit %d)", errBadRequest, k, MaxListRuns)
	}
	st.ents = st.ents[:0]
	var total int64
	for i := int64(0); i < k; i++ {
		var off, n int64
		if off, payload, err = getV(payload); err != nil {
			return 0, nil, err
		}
		if n, payload, err = getV(payload); err != nil {
			return 0, nil, err
		}
		if off < 0 || n < 0 || total+n > limit {
			return 0, nil, fmt.Errorf("%w: list entry off %d len %d", errBadRequest, off, n)
		}
		st.ents = append(st.ents, [2]int64{off, n})
		total += n
	}
	return total, payload, nil
}

// carve lays the decoded list over data, which holds the runs' bytes
// back to back, as local segments.
func (st *connState) carve(data []byte) []storage.Segment {
	st.segs = st.segs[:0]
	var pos int64
	for _, e := range st.ents {
		st.segs = append(st.segs, storage.Segment{Off: e[0], Buf: data[pos : pos+e[1]]})
		pos += e[1]
	}
	return st.segs
}

// opReadv: k, k×(off,n) → concatenated data (ReadFull semantics per
// entry: bytes past the stripe's EOF read as zeros), then the stripe's
// size as a sizeTrailer — what lets a client derive io.EOF and the
// global size from the replies of a read alone.
func (st *connState) opReadv(payload []byte) ([]byte, error) {
	cfg := &st.srv.cfg
	total, _, err := st.parseList(payload, int64(cfg.MaxFrame-sizeTrailer))
	if err != nil {
		return nil, err
	}
	sp := cfg.Tracer.BeginIO(trace.PhaseServerRead, 0, total)
	defer sp.End()
	st.resp = grow(st.resp[:0], total+sizeTrailer)
	if err := storage.ReadAtv(cfg.Backend, st.carve(st.resp[:total])); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(st.resp[total:], uint64(cfg.Backend.Size()))
	st.srv.stats.rawReads.Add(1)
	st.srv.stats.bytesRead.Add(total)
	return st.resp, nil
}

// opWritev: k, k×(off,n), concatenated data → —.  As opStageWritev the
// request leads with an epoch id, and the runs are journaled and parked
// under that epoch instead of written.
func (st *connState) opWritev(payload []byte, staged bool) ([]byte, error) {
	var epoch uint64
	if staged {
		var err error
		if epoch, payload, err = getEpoch(payload); err != nil {
			return nil, err
		}
	}
	total, data, err := st.parseList(payload, int64(st.srv.cfg.MaxFrame))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != total {
		return nil, fmt.Errorf("%w: write list names %d bytes, payload carries %d", errBadRequest, total, len(data))
	}
	for _, e := range st.ents {
		if err := checkExtent(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	segs := st.carve(data)
	if staged {
		sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerStage, 0, total)
		defer sp.End()
		if err := st.srv.stageEpoch(epoch, segs); err != nil {
			return nil, err
		}
		st.tally(epoch, total)
		return nil, nil
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerWrite, 0, total)
	defer sp.End()
	if err := storage.WriteAtv(st.srv.cfg.Backend, segs); err != nil {
		return nil, err
	}
	st.srv.stats.rawWrites.Add(1)
	st.srv.stats.bytesWritten.Add(total)
	return nil, nil
}

// opRegister: disp, encoded filetype → handle.  The whole payload is
// the cache key, so a repeat registration of the same view — every rank
// re-opening the same fileview, or a client re-registering after
// reconnect — is a cache hit that skips the decode.
func (st *connState) opRegister(payload []byte) ([]byte, error) {
	if v, ok := st.byKey[string(payload)]; ok {
		st.srv.stats.viewHits.Add(1)
		st.srv.cfg.Tracer.Instant(trace.PhaseServerViewHit, int64(v.handle), 0, "")
		st.touch(v)
		return putV(st.resp[:0], int64(v.handle)), nil
	}
	disp, enc, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if disp < 0 {
		return nil, fmt.Errorf("%w: negative displacement %d", errBadRequest, disp)
	}
	t, err := datatype.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	st.nextID++
	v := &serverView{key: string(payload), handle: st.nextID, disp: disp, t: t}
	st.views[v.handle] = v
	st.byKey[v.key] = v
	st.lru = append(st.lru, v)
	if len(st.lru) > st.srv.cfg.ViewCache {
		old := st.lru[0]
		st.lru = st.lru[1:]
		delete(st.views, old.handle)
		delete(st.byKey, old.key)
	}
	st.srv.stats.viewRegs.Add(1)
	st.srv.cfg.Tracer.Instant(trace.PhaseServerViewReg, int64(v.handle), int64(len(enc)), "")
	return putV(st.resp[:0], int64(v.handle)), nil
}

// touch marks v most recently used.
func (st *connState) touch(v *serverView) {
	for i, u := range st.lru {
		if u == v {
			copy(st.lru[i:], st.lru[i+1:])
			st.lru[len(st.lru)-1] = v
			return
		}
	}
}

// opView serves opViewRead, opViewWrite and opStageViewWrite: [epoch,]
// handle, d0, d1 [, data].  The server walks the registered pattern over
// [d0, d1), keeps the pieces its stripe owns, and moves them against its
// local backend in data order — staged, it journals and parks them under
// the epoch instead — one vectored call per request in the common case,
// flushed in bounded batches so a hostile many-tiny-runs view cannot
// force an oversized segment list.
func (st *connState) opView(payload []byte, op int) ([]byte, error) {
	var epoch uint64
	var err error
	if op == opStageViewWrite {
		if epoch, payload, err = getEpoch(payload); err != nil {
			return nil, err
		}
	}
	h, payload, err := getV(payload)
	if err != nil {
		return nil, err
	}
	d0, payload, err := getV(payload)
	if err != nil {
		return nil, err
	}
	d1, payload, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if d0 < 0 || d1 < d0 || d1-d0 > int64(st.srv.cfg.MaxFrame) {
		return nil, fmt.Errorf("%w: view range [%d,%d)", errBadRequest, d0, d1)
	}
	v, ok := st.views[uint64(h)]
	if !ok {
		st.srv.stats.staleHandles.Add(1)
		st.srv.cfg.Tracer.Instant(trace.PhaseServerViewStale, h, 0, "")
		return nil, fmt.Errorf("view handle %d: %w", h, errStale)
	}
	cfg := &st.srv.cfg

	// Allocation pass: this stripe's share of the range, and for a
	// write the capacity check of every piece.
	var total int64
	err = walkView(v.t, v.disp, cfg.Geom, d0, d1, func(stripe int, localOff, _, n int64) error {
		if stripe != cfg.Index {
			return nil
		}
		total += n
		if op == opViewRead {
			return nil
		}
		return checkExtent(localOff, n)
	})
	if err != nil {
		return nil, err
	}

	data, ph := payload, trace.PhaseServerViewWrite
	switch {
	case op == opViewRead:
		st.resp = grow(st.resp[:0], total)
		data, ph = st.resp, trace.PhaseServerViewRead
	case int64(len(payload)) != total:
		return nil, fmt.Errorf("%w: view write carries %d bytes, stripe owns %d of [%d,%d)", errBadRequest, len(payload), total, d0, d1)
	case op == opStageViewWrite:
		ph = trace.PhaseServerStage
	}
	sp := cfg.Tracer.BeginIO(ph, d0, total)
	defer sp.End()

	// Transfer pass: gather the owned pieces into bounded vectored
	// batches against the local store.
	const flushAt = 1024
	st.segs = st.segs[:0]
	var pos int64
	flush := func() error {
		if len(st.segs) == 0 {
			return nil
		}
		var err error
		switch op {
		case opViewRead:
			err = storage.ReadAtv(cfg.Backend, st.segs)
		case opViewWrite:
			err = storage.WriteAtv(cfg.Backend, st.segs)
		default:
			err = st.srv.stageEpoch(epoch, st.segs)
		}
		st.segs = st.segs[:0]
		return err
	}
	err = walkView(v.t, v.disp, cfg.Geom, d0, d1, func(stripe int, localOff, _, n int64) error {
		if stripe != cfg.Index {
			return nil
		}
		st.segs = append(st.segs, storage.Segment{Off: localOff, Buf: data[pos : pos+n]})
		pos += n
		if len(st.segs) >= flushAt {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return nil, err
	}
	switch op {
	case opViewRead:
		st.srv.stats.viewReads.Add(1)
		st.srv.stats.bytesRead.Add(total)
		return st.resp, nil
	case opViewWrite:
		st.srv.stats.viewWrites.Add(1)
		st.srv.stats.bytesWritten.Add(total)
	default:
		st.tally(epoch, total)
	}
	return nil, nil
}

// checkExtent refuses a write of n bytes at local offset off, or a
// truncate to off (n = 0), that would extend the stripe past
// StripeCapacity.
func checkExtent(off, n int64) error {
	if off > StripeCapacity-n {
		return fmt.Errorf("%w: [%d,+%d) extends the stripe past its capacity of %d bytes",
			errBadRequest, off, n, int64(StripeCapacity))
	}
	return nil
}

// grow returns buf extended to n bytes, reallocating only when the
// capacity is short.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}
