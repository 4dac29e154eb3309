package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/btio"
	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/noncontig"
	"repro/internal/storage"
)

// The four workloads.  All run on the listless engine with default
// options; all working sets fit in L2/L3, so they measure software
// overhead, the paper's regime.

func init() {
	fig6 := &worldSpec{
		ranks: 2, collective: true, cycle: []opKind{opWrite, opRead}, slots: 1, etype: datatype.Byte,
		types: noncontigTypes(2, 16384, 16),
		mount: memMount,
	}
	fig5 := &worldSpec{
		ranks: 2, collective: false, cycle: []opKind{opWrite, opRead}, slots: 1, etype: datatype.Byte,
		types: noncontigTypes(2, 16384, 8),
		mount: fileMount,
	}
	tier := &worldSpec{
		// Two checkpoint steps, then a restart read of the latest; one
		// cycle writes each of the four slots once, so every measured
		// phase sees the slots (which cross stripes differently) alike.
		ranks: 4, collective: true, cycle: []opKind{opWrite, opWrite, opRead, opWrite, opWrite, opRead}, slots: 4,
		etype: datatype.Double,
		types: btioTypes,
		mount: tierMount,
	}
	workloads = []*workload{
		worldWorkload("fig6-pack",
			"paper Fig. 6 point (P=2, nc-nc, 16 B blocks, Mem, loopback): most rank time goes to fotf pack/unpack of 16-byte runs",
			fig6),
		worldWorkload("tier-btio",
			"BTIO class W checkpoints from P=4 on a 2-server ioserver tier: 480 B runs, so round trips, framing, the server view walk and epochs dominate",
			tier),
		{
			name:         "sessions-cached",
			why:          "two cached 2-rank sessions share one pool slot over throttled storage: admission wait and cache absorption, the only contention",
			ranks:        sessionRanks,
			bytesPerCall: func(scale int64) int64 { return sessionBlocks / scale * sessionBlocklen },
			fileBytes: func(scale int64) int64 {
				return sessionCount * sessionRanks * sessionBlocks / scale * sessionBlocklen
			},
			types: func(scale int64) (*datatype.Type, *datatype.Type, error) {
				return noncontigTypes(sessionRanks, sessionBlocks/scale, sessionBlocklen)(0, 1)
			},
			run: runSessions,
		},
		worldWorkload("fig5-indep-file",
			"paper Fig. 5 independent access on storage.File: the only path with sieve read-modify-write, range locks and real pread/pwrite",
			fig5),
	}
}

func worldWorkload(name, why string, spec *worldSpec) *workload {
	return &workload{
		name: name, why: why, ranks: spec.ranks,
		bytesPerCall: spec.bytesPerCall,
		fileBytes:    spec.fileBytes,
		types: func(scale int64) (*datatype.Type, *datatype.Type, error) {
			return spec.types(0, scale)
		},
		run: func(cfg runConfig, traced bool) (*runData, error) { return runWorld(spec, cfg, traced) },
	}
}

// noncontigTypes returns the paper's nc-nc types (§4.1): the Figure-4
// vector fileview and a memtype of the same blocks with one-block gaps.
func noncontigTypes(P int, blocks, blocklen int64) func(int, int64) (*datatype.Type, *datatype.Type, error) {
	return func(rank int, scale int64) (*datatype.Type, *datatype.Type, error) {
		nb := blocks / scale
		ft, err := noncontig.Filetype(rank, P, nb, blocklen)
		if err != nil {
			return nil, nil, err
		}
		mt, err := noncontig.Memtype(nb, blocklen)
		return mt, ft, err
	}
}

// btioTypes returns BTIO's fileview (btio.Filetype) and the memtype of
// BT's ghosted local cell arrays with ghost width 1, which makes the
// memtype non-contiguous as in the real code.  Class W (24³) at scale 1,
// class S (12³) in the self-test.
func btioTypes(rank int, scale int64) (*datatype.Type, *datatype.Type, error) {
	name := "W"
	if scale > 1 {
		name = "S"
	}
	class, err := btio.ClassByName(name)
	if err != nil {
		return nil, nil, err
	}
	const P, q, ghost = 4, 2, 1
	ft, err := btio.Filetype(class, P, rank)
	if err != nil {
		return nil, nil, err
	}
	// BT's diagonal multipartitioning: in z-slab c the rank at grid
	// position (pi, pj) owns cell ((pi+c) mod q, (pj+c) mod q).
	n := class.Grid
	bounds := func(c int) int { return c*(n/q) + min(c, n%q) }
	pi, pj := rank%q, rank/q
	var (
		children []*datatype.Type
		lens     []int64
		displs   []int64
		off      int64
	)
	for c := 0; c < q; c++ {
		ci, cj := (pi+c)%q, (pj+c)%q
		size := [3]int64{int64(bounds(ci+1) - bounds(ci)), int64(bounds(cj+1) - bounds(cj)), int64(bounds(c+1) - bounds(c))}
		gd := [3]int64{size[0] + 2*ghost, size[1] + 2*ghost, size[2] + 2*ghost}
		sub, err := datatype.Subarray(
			[]int64{5, gd[0], gd[1], gd[2]},
			[]int64{5, size[0], size[1], size[2]},
			[]int64{0, ghost, ghost, ghost},
			datatype.OrderFortran, datatype.Double)
		if err != nil {
			return nil, nil, err
		}
		children, lens, displs = append(children, sub), append(lens, 1), append(displs, off)
		off += 5 * 8 * gd[0] * gd[1] * gd[2]
	}
	st, err := datatype.Struct(lens, displs, children)
	if err != nil {
		return nil, nil, err
	}
	mt, err := datatype.Resized(st, 0, off)
	return mt, ft, err
}

func memMount(_ runConfig, _ int64, _ *recorder) (*mount, error) {
	m := storage.NewMem()
	return &mount{
		be:    m,
		image: func(int64) ([]byte, error) { return m.Bytes(), nil },
		close: func() error { return nil },
	}, nil
}

var fileSeq atomic.Int64

// fileMount is a fresh storage.File in the run's scratch directory,
// written out and synced once so that its blocks are allocated: on ext4
// the first writeback of newly allocated blocks stalls overwrites, which
// put a run-dependent tail at write p90.
func fileMount(cfg runConfig, size int64, _ *recorder) (*mount, error) {
	path := filepath.Join(cfg.Dir, fmt.Sprintf("data-%d", fileSeq.Add(1)))
	fb, err := storage.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := fb.WriteAt(make([]byte, size), 0); err == nil {
		err = fb.Sync()
	}
	if err != nil {
		fb.Close()
		return nil, err
	}
	return &mount{
		be:    fb,
		image: func(size int64) ([]byte, error) { return readImage(fb, size) },
		close: func() error {
			err := fb.Close()
			if rerr := os.Remove(path); err == nil {
				err = rerr
			}
			return err
		},
	}, nil
}

// readImage reads [0, size) of b in 256 KiB pieces (one tier request
// each, well under the frame limit).
func readImage(b storage.Backend, size int64) ([]byte, error) {
	img := make([]byte, size)
	for off := int64(0); off < size; off += 256 << 10 {
		end := min(size, off+256<<10)
		if err := storage.ReadFull(b, img[off:end], off); err != nil {
			return nil, fmt.Errorf("reading the file image at %d: %w", off, err)
		}
	}
	return img, nil
}

// Tier layout: two in-process I/O servers on 127.0.0.1 with 64 KiB
// stripes (the -stripe default).  Each server's stripe and intent
// journal go through RecoverJournal as -net server deploys them, but on
// storage.Mem rather than storage.File: every commit fsyncs three times
// per server, and fsync latency on a shared disk swung write p50 and
// p90 by 25-42% (IQR over median) from run to run, more than any bound
// a gate could use.  The journal syncs are still counted
// (ioserver.journal_syncs_per_write).
const (
	tierServers = 2
	tierStripe  = 64 << 10
)

// tierMount starts the servers and mounts them behind storage.Resilient
// with the retry policy -net rank uses.  With rec set, each server's
// stripe and journal backends are timed.
func tierMount(_ runConfig, _ int64, rec *recorder) (*mount, error) {
	var (
		closers []func() error
		srvs    []*ioserver.Server
		addrs   []string
	)
	closeAll := func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	geom := storage.StripeGeom{Unit: tierStripe, Count: tierServers}
	for i := 0; i < tierServers; i++ {
		var stripe, jb storage.Backend = storage.NewMem(), storage.NewMem()
		if rec != nil {
			stripe, jb = newTimed(stripe, rec, layerServer), newTimed(jb, rec, layerJournal)
		}
		j, info, err := ioserver.RecoverJournal(jb, stripe)
		if err != nil {
			closeAll()
			return nil, err
		}
		srv, err := ioserver.New(ioserver.Config{Backend: stripe, Geom: geom, Index: i, Journal: j, Recovery: info})
		if err != nil {
			closeAll()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		closers = append(closers, func() error {
			err := srv.Close()
			// Serve's own result is nil after Close, or a "closed"
			// error when Close won the race to the listener; neither
			// says anything about the data.
			<-served
			return err
		})
		srvs = append(srvs, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	agg, err := ioserver.NewStriped(tierStripe, addrs, ioserver.ClientOptions{})
	if err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, agg.Close)
	res := storage.NewResilient(agg, storage.ResilientConfig{
		MaxRetries:  30,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
	})
	return &mount{
		be:     res,
		image:  func(size int64) ([]byte, error) { return readImage(agg, size) },
		rounds: agg.Rounds,
		retries: func() int64 {
			r, _ := res.RetryStats()
			return r
		},
		server: func() ioserver.ServerStats {
			var st ioserver.ServerStats
			for _, s := range srvs {
				x := s.Stats()
				st.ViewRegistrations += x.ViewRegistrations
				st.ViewCacheHits += x.ViewCacheHits
			}
			return st
		},
		close: closeAll,
	}, nil
}
