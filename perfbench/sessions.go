package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/trace"
)

// sessions-cached: two concurrent sessions of two ranks each share one
// pool slot (Workers: 1).  Each session writes its own storage.Region of
// one storage.Throttled Mem (150 µs per op, 256 MB/s writes, as the
// session comparison in internal/bench uses) through the session cache
// with Checked off.  Each job is one nc-nc collective write, or one
// verified read, of 8 KiB per process; an op's latency is Submit until
// Wait returns.
const (
	sessionCount    = 2
	sessionRanks    = 2
	sessionBlocks   = 512
	sessionBlocklen = 16
	sessionLatency  = 150 * time.Microsecond
	sessionWriteBW  = 256 << 20
)

var sessionCycle = []opKind{opWrite, opRead}

// sessionData is what only sessions-cached measures: each session's
// SessionStats at the edges of its measured phase.
type sessionData struct {
	begin, end []session.SessionStats
}

// sessionRig is one set-up of the service and its sessions.
type sessionRig struct {
	mem      *storage.Mem
	sv       *session.Service
	sessions []*session.Session
	region   int64
}

func openSessions(cfg runConfig, fts []*datatype.Type, recs []*recorder) (*sessionRig, time.Duration, time.Duration, error) {
	region := fts[0].Extent() // both ranks' data, interleaved
	rig := &sessionRig{mem: storage.NewMem(), region: region}
	if err := rig.mem.Truncate(sessionCount * region); err != nil {
		return nil, 0, 0, err
	}
	shared := storage.NewThrottled(rig.mem, 0, sessionWriteBW, sessionLatency)
	rig.sv = session.NewService(session.Options{Workers: 1})
	var openD, viewD time.Duration
	for i := 0; i < sessionCount; i++ {
		reg, err := storage.NewRegion(shared, int64(i)*region, region)
		if err != nil {
			rig.close()
			return nil, 0, 0, err
		}
		var be storage.Backend = reg
		if cfg.Inject != nil {
			be = cfg.Inject(be)
		}
		if recs != nil {
			be = newTimed(be, recs[i], layerStorage)
		}
		t0 := time.Now()
		s, err := rig.sv.Open(fmt.Sprintf("s%d", i), be, session.SessionOptions{Ranks: sessionRanks, Cache: &session.CacheOptions{}})
		if err != nil {
			rig.close()
			return nil, 0, 0, err
		}
		t1 := time.Now()
		rig.sessions = append(rig.sessions, s)
		if err := s.Run(func(p *mpi.Proc, f *core.File) error {
			return f.SetView(0, datatype.Byte, fts[p.Rank()])
		}); err != nil {
			rig.close()
			return nil, 0, 0, err
		}
		s.Cache().Invalidate()
		openD, viewD = max(openD, t1.Sub(t0)), max(viewD, time.Since(t1))
	}
	return rig, openD, viewD, nil
}

func (rig *sessionRig) close() error {
	return rig.sv.Close()
}

func runSessions(cfg runConfig, traced bool) (*runData, error) {
	scale := cfg.scale()
	nb := sessionBlocks / scale
	mts, fts := make([]*datatype.Type, sessionRanks), make([]*datatype.Type, sessionRanks)
	for r := range mts {
		mt, ft, err := noncontigTypes(sessionRanks, nb, sessionBlocklen)(r, 1)
		if err != nil {
			return nil, err
		}
		mts[r], fts[r] = mt, ft
	}
	period := fts[0].Extent()
	const versions = 2
	want := make([][][]byte, sessionRanks)
	for r := range want {
		for v := 0; v < versions; v++ {
			b, err := fillTyped(cfg.Seed, v, mts[r], fts[r], period)
			if err != nil {
				return nil, err
			}
			want[r] = append(want[r], b)
		}
	}
	d := &runData{traced: traced, ranks: sessionRanks, bytesPerCall: fts[0].Size(), sess: &sessionData{}}
	var recs []*recorder
	base := time.Now()
	if traced {
		for i := 0; i < sessionCount; i++ {
			recs = append(recs, newRecorder(base))
		}
	}

	for rep := 0; rep < cfg.setupReps(); rep++ {
		runtime.GC()
		t0 := time.Now()
		rig, openD, viewD, err := openSessions(cfg, fts, recs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d.setup = append(d.setup, time.Since(t0).Seconds())
		d.openUs = append(d.openUs, float64(openD.Nanoseconds())/1e3)
		d.setviewUs = append(d.setviewUs, float64(viewD.Nanoseconds())/1e3)
		if err := rig.close(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	if traced {
		// Spans of the set-up rounds are of no op; drop them.
		for i := range recs {
			recs[i] = newRecorder(base)
		}
	}

	d.col = newCollector(traced)
	runtime.GC()
	resetPeakRSS()
	t0 := time.Now()
	rig, openD, viewD, err := openSessions(cfg, fts, recs)
	if err != nil {
		return nil, fmt.Errorf("opening the sessions: %w", err)
	}
	d.setup = append(d.setup, time.Since(t0).Seconds())
	d.openUs = append(d.openUs, float64(openD.Nanoseconds())/1e3)
	d.setviewUs = append(d.setviewUs, float64(viewD.Nanoseconds())/1e3)

	d.sess.begin = make([]session.SessionStats, sessionCount)
	d.sess.end = make([]session.SessionStats, sessionCount)
	lastOK := make([]int, sessionCount)
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < sessionCount; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := rig.sessions[g]
			clk := newClock(cfg, sessionCycle)
			rbuf := make([][]byte, sessionRanks)
			for r := range rbuf {
				rbuf[r] = make([]byte, mts[r].Extent())
			}
			last := -1
			writes := 0
			for i := 0; ; i++ {
				clk.decide(i)
				if clk.stopped(i) {
					d.sess.end[g] = s.Stats()
					if g == 0 {
						d.end = takeSnap(nil)
					}
					break
				}
				if int64(i) == clk.warmAt.Load() {
					d.sess.begin[g] = s.Stats()
					if g == 0 {
						d.begin = takeSnap(nil)
					}
				}
				kind := clk.kindAt(i)
				ver := writes % versions
				if kind == opWrite {
					writes++
				}
				o, rerr := runJob(s, kind, mts, want, ver, rbuf, base, recs, g)
				o.warm = clk.warmAt.Load() < 0 || int64(i) < clk.warmAt.Load()
				o.userBytes = sessionRanks * d.bytesPerCall
				switch {
				case rerr != nil:
					o.failed = true
					errMu.Lock()
					d.noteErr(fmt.Errorf("session %d job %d %s: %w", g, i, kind, rerr))
					errMu.Unlock()
				case kind == opWrite:
					last = ver
				default:
					for r := range rbuf {
						exp := make([]byte, len(rbuf[r]))
						if last >= 0 {
							exp = want[r][last]
						}
						if !bytes.Equal(rbuf[r], exp) {
							o.failed = true
						}
					}
					if o.failed {
						errMu.Lock()
						d.noteErr(fmt.Errorf("session %d job %d read: read-back differs from what was written", g, i))
						errMu.Unlock()
					}
				}
				d.col.add(o)
			}
			lastOK[g] = last
		}(g)
	}
	wg.Wait()
	d.rssPeakMB = peakRSSMB()
	// Closing the sessions flushes their caches; the image is read after.
	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("closing the sessions: %w", err)
	}

	img := rig.mem.Bytes()
	for g := 0; g < sessionCount && d.imageErr == nil; g++ {
		orc := newOracle(rig.region)
		if lastOK[g] >= 0 {
			for r := range fts {
				orc.write(cfg.Seed, lastOK[g], fts[r], 0, period)
			}
		}
		if err := orc.check(img[int64(g)*rig.region:]); err != nil {
			d.imageErr = fmt.Errorf("session %d: %w", g, err)
		}
	}
	if traced {
		for _, rec := range recs {
			d.spans = append(d.spans, rec.snapshot())
		}
	}
	return d, nil
}

// runJob submits one job of session g and waits for it.  Each rank
// times its own collective inside the job; the op's latency is Submit
// until Wait returns.
func runJob(s *session.Session, kind opKind, mts []*datatype.Type, want [][][]byte, ver int,
	rbuf [][]byte, base time.Time, recs []*recorder, g int) (op, error) {
	ranks := make([]rankOp, sessionRanks)
	var entry time.Time
	t0 := time.Now()
	job, err := s.Submit(func(p *mpi.Proc, f *core.File) error {
		r := p.Rank()
		e := time.Now()
		if r == 0 {
			entry = e
		}
		s0, c0 := p.SentStats(), f.Stats
		var err error
		if kind == opWrite {
			_, err = f.WriteAtAll(0, 1, mts[r], want[r][ver])
		} else {
			_, err = f.ReadAtAll(0, 1, mts[r], rbuf[r])
		}
		e2 := time.Now()
		s1 := p.SentStats()
		ranks[r] = rankOp{t0: e.Sub(base).Nanoseconds(), t1: e2.Sub(base).Nanoseconds(),
			msgs: s1.Messages - s0.Messages, bytes: s1.Bytes - s0.Bytes, recvWait: s1.RecvWaitNs - s0.RecvWaitNs,
			cnt: coreDelta(f.Stats, c0)}
		if recs != nil {
			recs[g].add(layerCall, callCollective, e, e2, mts[r].Size(), err)
		}
		return err
	})
	if err == nil {
		err = job.Wait()
	}
	t1 := time.Now()
	if recs != nil {
		recs[g].add(layerJob, callJob, t0, t1, 0, err)
	}
	var o op
	if err == nil {
		o = combine(ranks, kind, false, 0)
		o.call = o.lat
		o.startWait = entry.Sub(t0).Nanoseconds()
	}
	o.kind, o.group = kind, g
	o.start, o.end = t0.Sub(base).Nanoseconds(), t1.Sub(base).Nanoseconds()
	o.lat = o.end - o.start
	return o, err
}

// queueWaitDelta is the admission-wait histogram of a measured phase:
// the end snapshot's buckets minus the begin snapshot's.
func queueWaitDelta(begin, end trace.HistData) trace.HistData {
	d := end
	for i := range d.Counts {
		d.Counts[i] -= begin.Counts[i]
	}
	d.Count -= begin.Count
	d.Sum -= begin.Sum
	return d
}
