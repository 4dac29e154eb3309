package core

import (
	"repro/internal/storage"
	"repro/internal/trace"
)

// The IOP window loop.  Each IOP walks its file domain in CollBufSize
// windows; for every window it (write) optionally pre-reads the window,
// receives and merges each AP's chunk, and writes the window back, or
// (read) reads the window and sends each AP its portion.
//
// Two variants share the engine-provided iopWindow state:
//
//   - iopSequential: one window at a time, every phase in order — the
//     classic two-phase loop, kept as the DisableCollPipeline ablation
//     baseline.
//
//   - iopPipelined (the default): a double-buffered pipeline over two
//     window buffers.  Window k+1's pre-read and window k-1's
//     write-back run in the background while window k's AP exchange and
//     copying proceed on the main goroutine, overlapping storage time
//     with communication time.  Safe because windows are disjoint file
//     ranges, backends accept concurrent access, and all MPI traffic
//     stays on the main goroutine (preserving per-pair message order).
//
// The pipeline's steady state is allocation-free: the two window
// buffers come from the pool, each slot owns one persistent worker
// goroutine fed by reusable channels of value structs (no per-window
// goroutines, channels, or window descriptors), and the engines recycle
// their per-window state via iopWindow.release.
//
// All Stats fields are updated on the main goroutine only; background
// I/O durations, measured by the I/O-track timers, travel back through
// the reply tokens.

// iopProcess runs this rank's IOP role: engine setup (the list-based
// engine receives one access list from every AP — this must happen even
// for an empty domain, to drain the AP phase-1 messages), then the
// window loop over the domain.  Failures come back phase-attributed for
// the error-agreement vote.
func (f *File) iopProcess(pl *collPlan, own *ownChunk, write bool) *CollectiveError {
	ssp := f.tr.Begin(trace.PhaseIOPSetup, trace.NoWindow, 0)
	iop, err := f.eng.iopSetup(pl)
	ssp.End()
	if err != nil {
		return &CollectiveError{Rank: f.p.Rank(), Phase: PhaseIOPSetup, Err: err}
	}
	domLo, domHi := pl.domain(f.p.Rank())
	if domLo >= domHi {
		return nil
	}
	winSize := min(int64(f.opts.CollBufSize), domHi-domLo)
	if f.opts.DisableCollPipeline {
		err = f.iopSequential(iop, own, domLo, domHi, winSize, write)
	} else {
		err = f.iopPipelined(iop, own, domLo, domHi, winSize, write)
	}
	if err != nil {
		return &CollectiveError{Rank: f.p.Rank(), Phase: PhaseIOPWindow, Err: err}
	}
	return nil
}

// iopExchangeWrite receives every AP's chunk for one window and merges
// it into the window buffer w, accounting exchange and copy time.  The
// received chunks are owned by this rank (SendNoCopy transfers
// ownership end-to-end) and are returned to the pool after merging.
// This rank's own data, with own set, moves from the user buffer
// instead, in rank order like a received chunk.  winLo annotates the
// trace spans with the window's file offset.
func (f *File) iopExchangeWrite(iw iopWindow, own *ownChunk, w []byte, winLo int64) {
	for r := 0; r < f.p.Size(); r++ {
		if iw.chunkLen(r) == 0 {
			continue
		}
		if own != nil && r == f.p.Rank() {
			f.moveOwn(own, w, winLo, true)
			continue
		}
		et := f.tr.Start(trace.PhaseExchange, winLo, 0)
		chunk, _, _ := f.p.Recv(r, tagCollData)
		f.add(stExchangeNs, et.StopBytes(int64(len(chunk))))
		ct := f.tr.Start(trace.PhaseCopy, winLo, int64(len(chunk)))
		iw.copyIn(w, r, chunk)
		f.add(stCopyNs, ct.Stop())
		f.bp.Put(chunk)
	}
}

// iopExchangeRead extracts every AP's portion of the window buffer w
// and sends it, accounting copy and exchange time.  Chunk ownership
// passes to the transport and onward to the receiving AP, which
// recycles it after unpacking.  This rank's own portion, with own set,
// moves into the user buffer instead.
func (f *File) iopExchangeRead(iw iopWindow, own *ownChunk, w []byte, winLo int64) {
	for r := 0; r < f.p.Size(); r++ {
		n := iw.chunkLen(r)
		if n == 0 {
			continue
		}
		if own != nil && r == f.p.Rank() {
			f.moveOwn(own, w, winLo, false)
			continue
		}
		ct := f.tr.Start(trace.PhaseCopy, winLo, n)
		chunk := f.bp.Get(int(n))
		iw.copyOut(w, r, chunk)
		f.add(stCopyNs, ct.Stop())
		et := f.tr.Start(trace.PhaseExchange, winLo, n)
		f.p.SendNoCopy(r, tagCollData, chunk)
		f.add(stExchangeNs, et.Stop())
	}
}

// iopSequential is the strictly ordered window loop.
func (f *File) iopSequential(iop iopState, own *ownChunk, domLo, domHi, winSize int64, write bool) error {
	win := f.bp.Get(int(winSize))
	defer f.bp.Put(win)
	for winLo := domLo; winLo < domHi; winLo += winSize {
		winHi := min(winLo+winSize, domHi)
		w := win[:winHi-winLo]
		iw := iop.window(winLo, winHi)
		if iw.total() == 0 {
			iw.release()
			continue
		}
		wsp := f.tr.Begin(trace.PhaseWindow, winLo, iw.total())
		if write {
			covered := !f.opts.DisableMergeCheck && iw.covered()
			if covered {
				f.add(stPreReadsSkipped, 1)
			} else {
				rt := f.tr.Start(trace.PhasePreRead, winLo, int64(len(w)))
				err := storage.ReadFull(f.sh.b, w, winLo)
				f.add(stStorageNs, rt.Stop())
				if err != nil {
					wsp.End()
					iw.release()
					return err
				}
			}
			f.iopExchangeWrite(iw, own, w, winLo)
			bt := f.tr.Start(trace.PhaseWriteBack, winLo, int64(len(w)))
			_, err := f.sh.b.WriteAt(w, winLo)
			f.add(stStorageNs, bt.Stop())
			if err != nil {
				wsp.End()
				iw.release()
				return err
			}
			f.add(stSieveWrites, 1)
		} else {
			rt := f.tr.Start(trace.PhasePreRead, winLo, int64(len(w)))
			err := storage.ReadFull(f.sh.b, w, winLo)
			f.add(stStorageNs, rt.Stop())
			if err != nil {
				wsp.End()
				iw.release()
				return err
			}
			f.add(stSieveReads, 1)
			f.iopExchangeRead(iw, own, w, winLo)
		}
		wsp.End()
		f.add(stWindows, 1)
		iw.release()
	}
	return nil
}

// ioToken carries the result of background storage access through the
// pipeline's channels: its error and its duration, which the main
// goroutine charges to StorageNs.
type ioToken struct {
	err error
	ns  int64
}

// pipeReq is one request to a slot worker.
type pipeReq struct {
	lo, hi int64
	kind   uint8 // pipePrep or pipeWrite
	read   bool  // pipePrep: pre-read the window into the slot buffer
}

const (
	pipePrep  = uint8(iota) // prepare the slot for a window (optional pre-read)
	pipeWrite               // write the slot buffer back to storage
)

// pipeSlot is one of the two window buffers with its persistent worker.
// Requests are processed FIFO, which encodes the slot discipline: a
// window's prep (and therefore its pre-read) cannot start before the
// slot's previous write-back finished.  req has capacity 2 — at most
// one outstanding write-back plus one prep are ever queued — so the
// main goroutine never blocks enqueueing.
type pipeSlot struct {
	buf  []byte
	req  chan pipeReq // main → worker
	done chan ioToken // worker → main: prep complete, slot buffer ready
	fin  chan ioToken // worker → main: trailing write-back result at exit
}

// slotWorker is a slot's persistent background goroutine.  Write-back
// errors and durations are carried into the next prep reply (or the fin
// token at shutdown), mirroring the slot hand-over semantics: whoever
// waits for the slot learns the fate of its previous write-back.
func (f *File) slotWorker(s *pipeSlot) {
	var carry ioToken
	for r := range s.req {
		switch r.kind {
		case pipeWrite:
			bt := f.tr.StartIO(trace.PhaseWriteBack, r.lo, r.hi-r.lo)
			_, err := f.sh.b.WriteAt(s.buf[:r.hi-r.lo], r.lo)
			carry.ns += bt.Stop()
			if carry.err == nil {
				carry.err = err
			}
		case pipePrep:
			t := carry
			carry = ioToken{}
			if t.err == nil && r.read {
				rt := f.tr.StartIO(trace.PhasePreRead, r.lo, r.hi-r.lo)
				t.err = storage.ReadFull(f.sh.b, s.buf[:r.hi-r.lo], r.lo)
				t.ns += rt.Stop()
			}
			s.done <- t
		}
	}
	s.fin <- carry
}

// pipeWindow describes one in-flight window (a value; the pipeline
// holds at most two).
type pipeWindow struct {
	lo, hi  int64
	iw      iopWindow
	slot    *pipeSlot
	covered bool // write: pre-read skipped
}

// iopPipelined is the double-buffered window loop.  Window k+1's prep
// request queues behind its slot's previous write-back (windows k+1 and
// k-1 share a slot), so at most two windows are ever in flight; the
// main goroutine does all exchange and copying and hands write-backs to
// the slot workers.
func (f *File) iopPipelined(iop iopState, own *ownChunk, domLo, domHi, winSize int64, write bool) error {
	var slots [2]*pipeSlot
	for i := range slots {
		s := &pipeSlot{
			buf:  f.bp.Get(int(winSize)),
			req:  make(chan pipeReq, 2),
			done: make(chan ioToken, 1),
			fin:  make(chan ioToken, 1),
		}
		slots[i] = s
		go f.slotWorker(s)
	}

	nextSlot := 0
	nextLo := domLo

	// mk prepares the next non-empty window, or ok=false when the
	// domain is exhausted.  Empty windows are skipped without consuming
	// a slot.  iop.window calls stay on the main goroutine, in order.
	mk := func() (pipeWindow, bool) {
		for nextLo < domHi {
			winLo := nextLo
			winHi := min(winLo+winSize, domHi)
			nextLo = winHi
			iw := iop.window(winLo, winHi)
			if iw.total() == 0 {
				iw.release()
				continue
			}
			pw := pipeWindow{lo: winLo, hi: winHi, iw: iw, slot: slots[nextSlot]}
			nextSlot = 1 - nextSlot
			if write && !f.opts.DisableMergeCheck {
				pw.covered = iw.covered()
			}
			pw.slot.req <- pipeReq{lo: winLo, hi: winHi, kind: pipePrep, read: !write || !pw.covered}
			return pw, true
		}
		return pipeWindow{}, false
	}

	var err error
	cur, ok := mk()
	for ok && err == nil {
		// Start window k+1's prep before touching window k: this is
		// the overlap.
		nxt, nok := mk()
		if nok {
			f.add(stWindowsOverlapped, 1)
		}

		psp := f.tr.Begin(trace.PhasePipelineWait, cur.lo, 0)
		t := <-cur.slot.done
		psp.End()
		f.add(stStorageNs, t.ns)
		if t.err != nil {
			// Unwind quiescently: consume nxt's prep reply if one was
			// issued (its slot's prior write-back folds into it), then
			// fall through to the shutdown drain below — no background
			// I/O may outlive this return, or it would race the next
			// collective on the file.
			err = t.err
			if nok {
				f.add(stStorageNs, (<-nxt.slot.done).ns)
				nxt.iw.release()
			}
			cur.iw.release()
			break
		}

		w := cur.slot.buf[:cur.hi-cur.lo]
		wsp := f.tr.Begin(trace.PhaseWindow, cur.lo, cur.iw.total())
		if write {
			if cur.covered {
				f.add(stPreReadsSkipped, 1)
			}
			f.iopExchangeWrite(cur.iw, own, w, cur.lo)
			f.add(stSieveWrites, 1)
			cur.slot.req <- pipeReq{lo: cur.lo, hi: cur.hi, kind: pipeWrite}
		} else {
			f.add(stSieveReads, 1)
			f.iopExchangeRead(cur.iw, own, w, cur.lo)
		}
		wsp.End()
		f.add(stWindows, 1)
		cur.iw.release()
		cur, ok = nxt, nok
	}

	// Shut down: closing req makes each worker finish every queued
	// write-back, then report the trailing result and exit — the
	// pipeline is quiescent when fin has been consumed from both slots.
	for _, s := range slots {
		close(s.req)
	}
	for _, s := range slots {
		t := <-s.fin
		f.add(stStorageNs, t.ns)
		if t.err != nil && err == nil {
			err = t.err
		}
		f.bp.Put(s.buf)
	}
	return err
}
