package core

import "repro/internal/trace"

// apExchange walks every (IOP, window) pair in the deterministic
// schedule order and, for each one containing this rank's data, packs
// and sends (write) or receives and unpacks (read) that data.  The
// engine's apCursor locates this rank's data range per window; the
// neutral code moves it and accounts the per-phase time.
func (f *File) apExchange(pl *collPlan, d0, d int64, mem *memState, buf []byte, ap apState, write bool) {
	myLo, myHi := pl.los[f.p.Rank()], pl.his[f.p.Rank()]
	for i := 0; i < pl.nIOP; i++ {
		domLo, domHi := pl.domain(i)
		if domHi <= myLo || domLo >= myHi || domLo == domHi {
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
