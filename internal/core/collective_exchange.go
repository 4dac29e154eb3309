package core

import "repro/internal/trace"

// apExchange walks every (IOP, window) pair in the deterministic
// schedule order and, for each one containing this rank's data, packs
// and sends (write) or receives and unpacks (read) that data.  The
// engine's apCursor locates this rank's data range per window; the
// neutral code moves it and accounts the per-phase time.  With ownMoved
// the rank's own IOP domain is skipped: its IOP moves that data itself
// (File.moveOwn).
func (f *File) apExchange(pl *collPlan, d0, d int64, mem *memState, buf []byte, ap apState, ownMoved, write bool) {
	myLo, myHi := pl.los[f.p.Rank()], pl.his[f.p.Rank()]
	for i := 0; i < pl.nIOP; i++ {
		domLo, domHi := pl.domain(i)
		if domHi <= myLo || domLo >= myHi || domLo == domHi || (ownMoved && i == f.p.Rank()) {
			continue
		}
		cur := ap.cursor(i)
		for winLo := domLo; winLo < domHi; winLo += int64(f.opts.CollBufSize) {
			winHi := min(winLo+int64(f.opts.CollBufSize), domHi)
			a, b := cur.window(winLo, winHi)
			if b <= a {
				continue
			}
			if write {
				// The chunk's ownership passes to the transport at
				// SendNoCopy and onward to the receiving IOP, which
				// returns it to a pool after merging (the zero-copy
				// AP→IOP path: pack once, no intermediate copies).
				chunk := f.bp.Get(int(b - a))
				ct := f.tr.Start(trace.PhaseCopy, winLo, b-a)
				f.eng.packUser(chunk, buf, mem, a-d0, b-a)
				f.add(stCopyNs, ct.Stop())
				et := f.tr.Start(trace.PhaseExchange, winLo, b-a)
				f.p.SendNoCopy(i, tagCollData, chunk)
				f.add(stExchangeNs, et.Stop())
			} else {
				et := f.tr.Start(trace.PhaseExchange, winLo, 0)
				chunk, _, _ := f.p.Recv(i, tagCollData)
				f.add(stExchangeNs, et.StopBytes(int64(len(chunk))))
				ct := f.tr.Start(trace.PhaseCopy, winLo, b-a)
				f.eng.unpackUser(buf, chunk, mem, a-d0, b-a)
				f.add(stCopyNs, ct.Stop())
				f.bp.Put(chunk) // this rank owns the received chunk; recycle it
			}
		}
	}
}

// ownChunk is this rank's own share of a collective access, which its
// IOP moves in one pass between the user buffer and each window
// (memState.moveWindow) instead of exchanging it with itself.  cur is
// the rank's AP cursor over its own IOP domain, which the AP side then
// leaves unused.
type ownChunk struct {
	mem *memState
	buf []byte
	d0  int64
	cur apCursor
}

// moveOwn moves this rank's data in the window w, which holds the file
// bytes from winLo, between w and the user buffer, charged to CopyNs as
// the copy it replaces.
func (f *File) moveOwn(own *ownChunk, w []byte, winLo int64, write bool) {
	a, b := own.cur.window(winLo, winLo+int64(len(w)))
	ct := f.tr.Start(trace.PhaseCopy, winLo, b-a)
	own.mem.moveWindow(w, winLo, a, own.buf, a-own.d0, b-a, write)
	f.add(stCopyNs, ct.Stop())
	f.add(stMovedBytes, b-a)
}
