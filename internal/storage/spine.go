package storage

import (
	"repro/internal/datatype"
	"repro/internal/trace"
)

// The storage middleware spine.  Every wrapper backend — Resilient,
// Throttled, Chaos, Faulty, Observed — embeds one spine, which
// implements Backend, Vectored, ViewBackend and EpochBackend exactly
// once, resolves SupportsViews/SupportsEpochs from the inner backend,
// and hands each data, view, register, truncate, sync, seal, commit and
// abort call to the wrapper's single policy method as a call value.
// The policy decides around the call (retry it, charge it, inject a
// fault, observe it) and runs it with call.run.  EpochBegin, EpochEnd
// and Size pass straight through.  A wrapper stack is plain nested
// constructor calls, and every stack keeps its innermost backend's
// capabilities by construction — ROMIO's ADIO shape: one device
// interface, policies layered on it.

// opKind names the backend call a policy sees.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opReadv
	opWritev
	opViewRead
	opViewWrite
	opRegister
	opTruncate
	opSync
	opSeal
	opCommit
	opAbort
)

// reads reports whether the call moves bytes out of the store.
func (k opKind) reads() bool { return k == opRead || k == opReadv || k == opViewRead }

// writes reports whether the call moves bytes into the store.
func (k opKind) writes() bool { return k == opWrite || k == opWritev || k == opViewWrite }

// control reports whether the call is metadata or commit traffic:
// view registration and the epoch seal, commit and abort.
func (k opKind) control() bool {
	return k == opRegister || k == opSeal || k == opCommit || k == opAbort
}

// vectored reports whether the call is a scatter/gather batch.
func (k opKind) vectored() bool { return k == opReadv || k == opWritev }

// view reports whether the call is a view-addressed transfer.
func (k opKind) view() bool { return k == opViewRead || k == opViewWrite }

// call is one backend call, passed by value to a policy: what it
// touches, and what run needs to issue it on the inner backend.  It
// holds no closure, so the spine allocates nothing per call.
type call struct {
	kind opKind
	// off is the file offset (the first segment offset of a vectored
	// batch, the data offset of a view transfer), the displacement of a
	// registration, the length of a truncate, the epoch id of a seal,
	// commit or abort, or trace.NoWindow for a sync.
	off int64
	// end closes the range [off, end) a data call touches: a vectored
	// batch's file span, or off+n for a contiguous or view transfer.
	end int64
	n   int64 // bytes requested

	in    Backend
	p     []byte
	segs  []Segment
	h     ViewHandle
	ftype *datatype.Type
}

// run issues the call on the inner backend.  It reports the bytes
// moved for a data call (0 when a vectored batch or view transfer
// fails), the handle of a registration, and 0 otherwise.
func (c call) run() (int64, error) {
	var err error
	switch c.kind {
	case opRead:
		n, err := c.in.ReadAt(c.p, c.off)
		return int64(n), err
	case opWrite:
		n, err := c.in.WriteAt(c.p, c.off)
		return int64(n), err
	case opReadv:
		err = ReadAtv(c.in, c.segs)
	case opWritev:
		err = WriteAtv(c.in, c.segs)
	case opViewRead:
		err = c.in.(ViewBackend).ViewRead(c.h, c.p, c.off)
	case opViewWrite:
		err = c.in.(ViewBackend).ViewWrite(c.h, c.p, c.off)
	case opRegister:
		h, err := c.in.(ViewBackend).RegisterView(c.off, c.ftype)
		return int64(h), err
	case opTruncate:
		return 0, c.in.Truncate(c.off)
	case opSync:
		return 0, c.in.Sync()
	case opSeal:
		return 0, c.in.(EpochBackend).EpochSeal(uint64(c.off))
	case opCommit:
		return 0, c.in.(EpochBackend).EpochCommit(uint64(c.off))
	case opAbort:
		return 0, c.in.(EpochBackend).EpochAbort(uint64(c.off))
	}
	if err != nil {
		return 0, err
	}
	return c.n, nil
}

// clip returns the call cut to its first k bytes (0 < k < n): the
// strict prefix a short read delivers or a torn write persists.
func (c call) clip(k int64) call {
	if c.kind.vectored() {
		c.segs = clipSegs(c.segs, k)
	} else {
		c.p = c.p[:k]
	}
	c.n = k
	return c
}

// policy is a wrapper's one decision point.  around runs c once
// (Throttled, Observed), reissues it (Resilient), runs a clipped copy
// (Chaos) or skips it (Faulty), and returns what run returned or the
// error that replaced it.
type policy interface {
	around(c call) (int64, error)
}

// spine forwards the Backend surface and every optional extension to a
// policy over an inner backend.  Embedded by value in each wrapper, it
// is set once by the wrapper's constructor.
type spine struct {
	in  Backend
	pol policy
}

// ReadAt implements io.ReaderAt.
func (s *spine) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.pol.around(call{kind: opRead, off: off, end: off + int64(len(p)), n: int64(len(p)), in: s.in, p: p})
	return int(n), err
}

// WriteAt implements io.WriterAt.
func (s *spine) WriteAt(p []byte, off int64) (int, error) {
	n, err := s.pol.around(call{kind: opWrite, off: off, end: off + int64(len(p)), n: int64(len(p)), in: s.in, p: p})
	return int(n), err
}

// Size implements Backend, straight through.
func (s *spine) Size() int64 { return s.in.Size() }

// Truncate implements Backend.
func (s *spine) Truncate(n int64) error {
	_, err := s.pol.around(call{kind: opTruncate, off: n, in: s.in})
	return err
}

// Sync implements Backend.
func (s *spine) Sync() error {
	_, err := s.pol.around(call{kind: opSync, off: trace.NoWindow, in: s.in})
	return err
}

// ReadAtv implements Vectored: the whole batch is one call.
func (s *spine) ReadAtv(segs []Segment) error {
	lo, hi := segsSpan(segs)
	_, err := s.pol.around(call{kind: opReadv, off: lo, end: hi, n: segsLen(segs), in: s.in, segs: segs})
	return err
}

// WriteAtv implements Vectored: the whole batch is one call.
func (s *spine) WriteAtv(segs []Segment) error {
	lo, hi := segsSpan(segs)
	_, err := s.pol.around(call{kind: opWritev, off: lo, end: hi, n: segsLen(segs), in: s.in, segs: segs})
	return err
}

// SupportsViews implements ViewBackend from the inner backend.
func (s *spine) SupportsViews() bool {
	_, ok := AsViewBackend(s.in)
	return ok
}

// RegisterView implements ViewBackend.
func (s *spine) RegisterView(disp int64, ftype *datatype.Type) (ViewHandle, error) {
	if !s.SupportsViews() {
		return 0, ErrNoViews
	}
	h, err := s.pol.around(call{kind: opRegister, off: disp, in: s.in, ftype: ftype})
	return ViewHandle(h), err
}

// ViewRead implements ViewBackend; off is the view-data offset d0.
func (s *spine) ViewRead(h ViewHandle, p []byte, d0 int64) error {
	if !s.SupportsViews() {
		return ErrNoViews
	}
	_, err := s.pol.around(call{kind: opViewRead, off: d0, end: d0 + int64(len(p)), n: int64(len(p)), in: s.in, p: p, h: h})
	return err
}

// ViewWrite implements ViewBackend.
func (s *spine) ViewWrite(h ViewHandle, p []byte, d0 int64) error {
	if !s.SupportsViews() {
		return ErrNoViews
	}
	_, err := s.pol.around(call{kind: opViewWrite, off: d0, end: d0 + int64(len(p)), n: int64(len(p)), in: s.in, p: p, h: h})
	return err
}

// SupportsEpochs implements EpochBackend from the inner backend.
func (s *spine) SupportsEpochs() bool {
	_, ok := AsEpochBackend(s.in)
	return ok
}

// EpochBegin implements EpochBackend, straight through.
func (s *spine) EpochBegin(id uint64) {
	if eb, ok := AsEpochBackend(s.in); ok {
		eb.EpochBegin(id)
	}
}

// EpochEnd implements EpochBackend, straight through.
func (s *spine) EpochEnd(id uint64) {
	if eb, ok := AsEpochBackend(s.in); ok {
		eb.EpochEnd(id)
	}
}

// EpochSeal implements EpochBackend.
func (s *spine) EpochSeal(id uint64) error { return s.epoch(opSeal, id) }

// EpochCommit implements EpochBackend.
func (s *spine) EpochCommit(id uint64) error { return s.epoch(opCommit, id) }

// EpochAbort implements EpochBackend.
func (s *spine) EpochAbort(id uint64) error { return s.epoch(opAbort, id) }

func (s *spine) epoch(k opKind, id uint64) error {
	if !s.SupportsEpochs() {
		return ErrNoEpochs
	}
	_, err := s.pol.around(call{kind: k, off: int64(id), in: s.in})
	return err
}
