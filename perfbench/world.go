package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// mount is the storage a world opens, plus what the benchmark reads
// from it without wrappers: round trips, retries, server counters and
// the raw file image.
type mount struct {
	be      storage.Backend
	image   func(size int64) ([]byte, error) // raw image, read after the world closed
	rounds  func() int64
	retries func() int64
	server  func() ioserver.ServerStats
	close   func() error
}

// worldSpec is a workload run by one world of goroutine ranks over
// loopback endpoints: every op starts at a barrier, the ranks make one
// call each, and an op's latency is the slowest rank's call.
type worldSpec struct {
	ranks      int
	collective bool
	cycle      []opKind // the op schedule, repeated
	slots      int      // file slots; write w goes to slot w % slots
	etype      *datatype.Type
	types      func(rank int, scale int64) (mt, ft *datatype.Type, err error)
	// mount builds the backend stack; with rec set, it wraps the
	// server-side backends (stripes, journals) in timing wrappers.
	mount func(cfg runConfig, fileSize int64, rec *recorder) (*mount, error)
}

// rankTypes is one rank's memtype and filetype.
type rankTypes struct{ mt, ft *datatype.Type }

func (s *worldSpec) allTypes(scale int64) ([]rankTypes, error) {
	ts := make([]rankTypes, s.ranks)
	for r := range ts {
		mt, ft, err := s.types(r, scale)
		if err != nil {
			return nil, err
		}
		ts[r] = rankTypes{mt, ft}
	}
	return ts, nil
}

func (s *worldSpec) bytesPerCall(scale int64) int64 {
	_, ft, err := s.types(0, scale)
	if err != nil {
		return 0
	}
	return ft.Size()
}

func (s *worldSpec) fileBytes(scale int64) int64 {
	_, ft, err := s.types(0, scale)
	if err != nil {
		return 0
	}
	return int64(s.slots) * ft.Extent()
}

// versions is how many payload versions a run cycles through: one more
// than the slots, so that consecutive writes to a slot always differ.
func (s *worldSpec) versions() int { return s.slots + 1 }

// runWorld runs one worldSpec workload: SetupReps timed set-ups, then
// the measured world.
func runWorld(spec *worldSpec, cfg runConfig, traced bool) (*runData, error) {
	var rec *recorder
	if traced {
		rec = newRecorder(time.Now())
	}
	scale := cfg.scale()
	ts, err := spec.allTypes(scale)
	if err != nil {
		return nil, err
	}
	period := ts[0].ft.Extent()
	fileSize := int64(spec.slots) * period
	esize := spec.etype.Size()
	d := &runData{traced: traced, ranks: spec.ranks, bytesPerCall: ts[0].ft.Size()}

	// Payloads: want[r][v] is rank r's buffer for version v.  Slots
	// share buffers because the payload depends on the offset within
	// the slot only.
	want := make([][][]byte, spec.ranks)
	for r := range want {
		want[r] = make([][]byte, spec.versions())
		for v := range want[r] {
			if want[r][v], err = fillTyped(cfg.Seed, v, ts[r].mt, ts[r].ft, period); err != nil {
				return nil, err
			}
		}
	}
	zero := make([][]byte, spec.ranks)
	for r := range zero {
		zero[r] = make([]byte, ts[r].mt.Extent())
	}

	open := func(rec *recorder) (*mount, *core.Shared, time.Time, error) {
		t0 := time.Now()
		m, err := spec.mount(cfg, fileSize, rec)
		if err != nil {
			return nil, nil, t0, fmt.Errorf("mounting the storage: %w", err)
		}
		be := m.be
		if cfg.Inject != nil {
			be = cfg.Inject(be)
		}
		if rec != nil {
			be = newTimed(be, rec, layerStorage)
		}
		return m, core.NewShared(be), t0, nil
	}
	// setupRank is every rank's share of set-up: pre-size (rank 0),
	// Open, first SetView.  It returns the open file and the Open and
	// SetView call times.
	setupRank := func(p *mpi.Proc, sh *core.Shared) (*core.File, int64, int64, error) {
		if p.Rank() == 0 && sh.Backend().Size() < fileSize {
			if err := sh.Backend().Truncate(fileSize); err != nil {
				return nil, 0, 0, err
			}
		}
		p.Barrier()
		t0 := time.Now()
		f, err := core.Open(p, sh, core.Options{})
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		if err := f.SetView(0, spec.etype, ts[p.Rank()].ft); err != nil {
			return nil, 0, 0, err
		}
		t2 := time.Now()
		p.Barrier()
		return f, t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), nil
	}
	noteSetup := func(t0 time.Time, end time.Time, openNs, viewNs []int64) {
		d.setup = append(d.setup, end.Sub(t0).Seconds())
		var o, v int64
		for r := range openNs {
			o, v = max(o, openNs[r]), max(v, viewNs[r])
		}
		d.openUs = append(d.openUs, float64(o)/1e3)
		d.setviewUs = append(d.setviewUs, float64(v)/1e3)
	}

	for rep := 0; rep < cfg.setupReps(); rep++ {
		runtime.GC()
		m, sh, t0, err := open(rec)
		if err != nil {
			return nil, err
		}
		openNs, viewNs := make([]int64, spec.ranks), make([]int64, spec.ranks)
		errs := make([]error, spec.ranks)
		var end time.Time
		_, werr := mpi.RunOver(transport.NewLoopback(spec.ranks), mpi.RunOptions{}, func(p *mpi.Proc) {
			f, o, v, err := setupRank(p, sh)
			if err != nil {
				panic(err) // aborts the world; RunOver returns it
			}
			if p.Rank() == 0 {
				end = time.Now()
			}
			openNs[p.Rank()], viewNs[p.Rank()] = o, v
			errs[p.Rank()] = f.Close()
		})
		cerr := m.close()
		if err := firstErr(append(errs, werr, cerr)...); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		noteSetup(t0, end, openNs, viewNs)
	}

	// The measured world.  Each rank records its call of op i in
	// slot[i%2]; rank 0 merges op i after the barrier that starts op
	// i+1, when every rank has recorded it and none can yet overwrite it.
	col := newCollector(rec != nil)
	d.col = col
	runtime.GC()
	resetPeakRSS()
	m, sh, t0, err := open(rec)
	if err != nil {
		return nil, err
	}
	base := t0
	if rec != nil {
		base = rec.base
	}
	clk := newClock(cfg, spec.cycle)
	slot := [2][]rankOp{make([]rankOp, spec.ranks), make([]rankOp, spec.ranks)}
	merge := func(i int) {
		warm := clk.warmAt.Load()
		col.add(combine(slot[i%2], clk.kindAt(i), warm < 0 || int64(i) < warm, d.bytesPerCall))
	}
	lastOK := make([][]int, spec.ranks) // per rank, per slot: last version written successfully
	errs := make([]error, spec.ranks)
	openNs, viewNs := make([]int64, spec.ranks), make([]int64, spec.ranks)
	var setupEnd time.Time
	_, werr := mpi.RunOver(transport.NewLoopback(spec.ranks), mpi.RunOptions{}, func(p *mpi.Proc) {
		r := p.Rank()
		f, o, v, err := setupRank(p, sh)
		if err != nil {
			panic(err) // aborts the world; RunOver returns it
		}
		openNs[r], viewNs[r] = o, v
		if r == 0 {
			setupEnd = time.Now()
			clk.start = setupEnd
		}
		mt := ts[r].mt
		rbuf := make([]byte, mt.Extent())
		last := make([]int, spec.slots)
		for i := range last {
			last[i] = -1
		}
		myEtypes := ts[r].ft.Size() / esize
		writes := 0
		for i := 0; ; i++ {
			if r == 0 {
				clk.decide(i)
			}
			p.Barrier()
			if r == 0 && i > 0 {
				merge(i - 1)
			}
			if clk.stopped(i) {
				if r == 0 {
					d.end = takeSnap(m)
				}
				break
			}
			if int64(i) == clk.warmAt.Load() {
				if r == 0 {
					d.begin = takeSnap(m)
				}
				p.Barrier()
			}
			kind := clk.kindAt(i)
			w := writes - 1 // a read checks the latest write
			if kind == opWrite {
				w = writes
				writes++
			}
			fs, ver := w%spec.slots, w%spec.versions()
			off := int64(fs) * myEtypes
			s0, c0 := p.SentStats(), f.Stats
			t1 := time.Now()
			switch {
			case kind == opWrite && spec.collective:
				_, err = f.WriteAtAll(off, 1, mt, want[r][ver])
			case kind == opWrite:
				_, err = f.WriteAt(off, 1, mt, want[r][ver])
			case spec.collective:
				_, err = f.ReadAtAll(off, 1, mt, rbuf)
			default:
				_, err = f.ReadAt(off, 1, mt, rbuf)
			}
			t2 := time.Now()
			s1 := p.SentStats()
			ro := rankOp{t0: t1.Sub(base).Nanoseconds(), t1: t2.Sub(base).Nanoseconds(),
				msgs: s1.Messages - s0.Messages, bytes: s1.Bytes - s0.Bytes, recvWait: s1.RecvWaitNs - s0.RecvWaitNs,
				cnt: coreDelta(f.Stats, c0)}
			switch {
			case err != nil:
				ro.failed = true
				if r == 0 {
					d.noteErr(fmt.Errorf("op %d %s: %w", i, kind, err))
				}
			case kind == opWrite:
				last[fs] = ver
			default:
				exp := zero[r]
				if last[fs] >= 0 {
					exp = want[r][last[fs]]
				}
				if !bytes.Equal(rbuf, exp) {
					ro.failed = true
					if r == 0 {
						d.noteErr(fmt.Errorf("op %d read: rank 0 read-back differs from what was written", i))
					}
				}
			}
			slot[i%2][r] = ro
		}
		lastOK[r] = last
		errs[r] = f.Close()
	})
	d.rssPeakMB = peakRSSMB()
	if err := firstErr(append(errs, werr)...); err != nil {
		m.close()
		return nil, fmt.Errorf("measured world: %w", err)
	}
	noteSetup(t0, setupEnd, openNs, viewNs)

	// The final file image against the flat oracle.
	orc := newOracle(fileSize)
	for r := range lastOK {
		for slot, ver := range lastOK[r] {
			if ver >= 0 {
				orc.write(cfg.Seed, ver, ts[r].ft, int64(slot), period)
			}
		}
	}
	img, err := m.image(fileSize)
	if err == nil {
		err = orc.check(img)
	}
	d.imageErr = err
	if rec != nil {
		d.spans = [][]span{rec.snapshot()}
	}
	if err := m.close(); err != nil {
		return nil, fmt.Errorf("closing the storage: %w", err)
	}
	return d, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
