package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/datatype"
	"repro/internal/storage"
)

// The traced run records spans from the benchmark's own files only: a
// timing wrapper around each backend it mounts, and the benchmark's own
// calls into core and the session service.  Spans are kept in memory
// and written out as a Chrome trace when the run ends.  A span belongs
// to the op whose time interval contains its start: ops never overlap,
// because every op starts at a barrier (or, in a session, after the
// previous job's Wait).

// layer names the boundary a span was recorded at.
type layer uint8

const (
	layerStorage layer = iota // core -> mounted backend
	layerServer               // I/O server -> its stripe backend
	layerJournal              // I/O server -> its intent journal backend
	layerJob                  // session: Submit .. Wait of one job
	layerCall                 // session: the collective inside a job, per rank
	numLayers
)

var layerNames = [numLayers]string{"storage", "ioserver.stripe", "ioserver.journal", "session.job", "session.call"}

// call names the operation a span timed.
type call uint8

const (
	callRead call = iota
	callWrite
	callReadv
	callWritev
	callSize
	callTruncate
	callSync
	callRegisterView
	callViewRead
	callViewWrite
	callEpochBegin
	callEpochSeal
	callEpochCommit
	callEpochAbort
	callEpochEnd
	callJob
	callCollective
	numCalls
)

var callNames = [numCalls]string{"read", "write", "readv", "writev", "size", "truncate", "sync",
	"register-view", "view-read", "view-write", "epoch-begin", "epoch-seal", "epoch-commit",
	"epoch-abort", "epoch-end", "job", "collective"}

func (c call) vectored() bool { return c == callReadv || c == callWritev }
func (c call) view() bool     { return c == callRegisterView || c == callViewRead || c == callViewWrite }

type span struct {
	layer      layer
	call       call
	failed     bool
	start, end int64 // ns since the recorder's base
	bytes      int64
}

// recorder keeps spans in memory.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) add(l layer, c call, t0, t1 time.Time, bytes int64, err error) {
	s := span{layer: l, call: c, start: t0.Sub(r.base).Nanoseconds(), end: t1.Sub(r.base).Nanoseconds(),
		bytes: bytes, failed: err != nil && !errors.Is(err, io.EOF)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// timed is the benchmark's timing wrapper.  It must not change the
// program under it, so besides Backend it implements Vectored,
// ViewBackend and EpochBackend, passing each capability through exactly
// when the wrapped backend has it: core probes views and epochs with
// storage.AsViewBackend/AsEpochBackend, and session.Cache probes epochs,
// on whatever it is handed.  Vectored needs no probe: storage.ReadAtv
// falls back to per-segment calls on a backend without it, as every
// wrapper in storage does.
type timed struct {
	storage.Backend
	rec *recorder
	l   layer
}

func newTimed(b storage.Backend, rec *recorder, l layer) *timed {
	return &timed{Backend: b, rec: rec, l: l}
}

func (t *timed) done(c call, t0 time.Time, bytes int64, err error) {
	t.rec.add(t.l, c, t0, time.Now(), bytes, err)
}

func segsLen(segs []storage.Segment) int64 {
	var n int64
	for _, s := range segs {
		n += int64(len(s.Buf))
	}
	return n
}

func (t *timed) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := t.Backend.ReadAt(p, off)
	t.done(callRead, t0, int64(n), err)
	return n, err
}

func (t *timed) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := t.Backend.WriteAt(p, off)
	t.done(callWrite, t0, int64(n), err)
	return n, err
}

func (t *timed) Size() int64 {
	t0 := time.Now()
	n := t.Backend.Size()
	t.done(callSize, t0, 0, nil)
	return n
}

func (t *timed) Truncate(n int64) error {
	t0 := time.Now()
	err := t.Backend.Truncate(n)
	t.done(callTruncate, t0, 0, err)
	return err
}

func (t *timed) Sync() error {
	t0 := time.Now()
	err := t.Backend.Sync()
	t.done(callSync, t0, 0, err)
	return err
}

func (t *timed) ReadAtv(segs []storage.Segment) error {
	t0 := time.Now()
	err := storage.ReadAtv(t.Backend, segs)
	t.done(callReadv, t0, segsLen(segs), err)
	return err
}

func (t *timed) WriteAtv(segs []storage.Segment) error {
	t0 := time.Now()
	err := storage.WriteAtv(t.Backend, segs)
	t.done(callWritev, t0, segsLen(segs), err)
	return err
}

func (t *timed) SupportsViews() bool {
	_, ok := storage.AsViewBackend(t.Backend)
	return ok
}

func (t *timed) RegisterView(disp int64, ftype *datatype.Type) (storage.ViewHandle, error) {
	vb, ok := storage.AsViewBackend(t.Backend)
	if !ok {
		return 0, storage.ErrNoViews
	}
	t0 := time.Now()
	h, err := vb.RegisterView(disp, ftype)
	t.done(callRegisterView, t0, 0, err)
	return h, err
}

func (t *timed) ViewRead(h storage.ViewHandle, p []byte, d0 int64) error {
	vb, ok := storage.AsViewBackend(t.Backend)
	if !ok {
		return storage.ErrNoViews
	}
	t0 := time.Now()
	err := vb.ViewRead(h, p, d0)
	t.done(callViewRead, t0, int64(len(p)), err)
	return err
}

func (t *timed) ViewWrite(h storage.ViewHandle, p []byte, d0 int64) error {
	vb, ok := storage.AsViewBackend(t.Backend)
	if !ok {
		return storage.ErrNoViews
	}
	t0 := time.Now()
	err := vb.ViewWrite(h, p, d0)
	t.done(callViewWrite, t0, int64(len(p)), err)
	return err
}

func (t *timed) SupportsEpochs() bool {
	_, ok := storage.AsEpochBackend(t.Backend)
	return ok
}

func (t *timed) EpochBegin(id uint64) {
	if eb, ok := storage.AsEpochBackend(t.Backend); ok {
		t0 := time.Now()
		eb.EpochBegin(id)
		t.done(callEpochBegin, t0, 0, nil)
	}
}

func (t *timed) epochOp(c call, id uint64, op func(storage.EpochBackend, uint64) error) error {
	eb, ok := storage.AsEpochBackend(t.Backend)
	if !ok {
		return storage.ErrNoEpochs
	}
	t0 := time.Now()
	err := op(eb, id)
	t.done(c, t0, 0, err)
	return err
}

func (t *timed) EpochSeal(id uint64) error {
	return t.epochOp(callEpochSeal, id, storage.EpochBackend.EpochSeal)
}

func (t *timed) EpochCommit(id uint64) error {
	return t.epochOp(callEpochCommit, id, storage.EpochBackend.EpochCommit)
}

func (t *timed) EpochAbort(id uint64) error {
	return t.epochOp(callEpochAbort, id, storage.EpochBackend.EpochAbort)
}

func (t *timed) EpochEnd(id uint64) {
	if eb, ok := storage.AsEpochBackend(t.Backend); ok {
		t0 := time.Now()
		eb.EpochEnd(id)
		t.done(callEpochEnd, t0, 0, nil)
	}
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args struct {
		Op    int   `json:"op"`
		Bytes int64 `json:"bytes,omitempty"`
	} `json:"args"`
}

// maxTraceOps bounds the trace file: the first measured ops with their
// spans are enough to look at, and the metrics use every span anyway.
const maxTraceOps = 1000

// writeChrome writes the first maxTraceOps measured ops (tid 0) and
// their layer spans (tid layer+1), each tagged with its op id, as a
// Chrome trace.
func writeChrome(path string, ops []op, spans []span, opOf []int) error {
	var ev []chromeEvent
	keep := map[int]bool{}
	for i, o := range ops {
		if o.warm || len(keep) == maxTraceOps {
			continue
		}
		keep[i] = true
		e := chromeEvent{Name: o.kind.String(), Ph: "X", Ts: float64(o.start) / 1e3, Dur: float64(o.end-o.start) / 1e3}
		e.Args.Op = i
		ev = append(ev, e)
	}
	for i, s := range spans {
		if !keep[opOf[i]] {
			continue
		}
		e := chromeEvent{Name: layerNames[s.layer] + " " + callNames[s.call], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Tid: int(s.layer) + 1}
		e.Args.Op, e.Args.Bytes = opOf[i], s.bytes
		ev = append(ev, e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": ev}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
