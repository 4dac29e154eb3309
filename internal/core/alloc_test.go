package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// The allocation-regression suite: the steady-state collective window
// loop must not allocate.  Per-collective setup (plan, engine states,
// pipeline channels) may allocate; per-window work — window buffers,
// exchange chunks, engine window descriptors, pipeline hand-offs — must
// come from the pool and the freelists.
//
// Measurement: inside one warm world, run the same collective at two
// sizes and divide the allocation difference by the window difference.
// Everything per-collective cancels in the subtraction; what remains is
// the per-window cost.  GC is disabled during the measurement so
// sync.Pool cannot shed its contents mid-run.

const (
	allocWinSize  = 4096 // CollBufSize: small windows, many of them
	allocBlocklen = 64   // holey vector: 50% density, pre-reads happen
)

// allocView installs the holey fileview: every other allocBlocklen-byte
// block, so a write window is never fully covered and the pipelined
// loop exercises its pre-read path too.
func allocView(f *File, blocks int64) error {
	vec, err := datatype.Hvector(blocks, allocBlocklen, 2*allocBlocklen, datatype.Byte)
	if err != nil {
		return err
	}
	return f.SetView(0, datatype.Byte, vec)
}

// measureCollective returns the average allocations of one collective
// access of d data bytes, from d/mt.Size() memtypes mt in buf, in an
// already-warm world.
func measureCollective(t *testing.T, f *File, mt *datatype.Type, buf []byte, d int64, write bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		var err error
		if write {
			_, err = f.WriteAtAll(0, d/mt.Size(), mt, buf)
		} else {
			_, err = f.ReadAtAll(0, d/mt.Size(), mt, buf)
		}
		if err != nil {
			t.Errorf("collective: %v", err)
		}
	})
}

func testWindowAllocFree(t *testing.T, engine Engine, write, metrics bool, wantPerWindow float64) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Window counts: d bytes of data cover 2*d bytes of file (50%
	// density), so windows = 2*d/allocWinSize.
	const dSmall = int64(4 * allocWinSize / 2)  // 4 windows
	const dLarge = int64(16 * allocWinSize / 2) // 16 windows
	const winSmall, winLarge = 4, 16

	var reg *obs.Registry
	if metrics {
		reg = obs.NewRegistry()
	}
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		sh := NewShared(storage.NewMem())
		f, err := Open(p, sh, Options{Engine: engine, CollBufSize: allocWinSize, Metrics: reg})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := allocView(f, dLarge/allocBlocklen); err != nil {
			panic(err)
		}
		// A contiguous memtype, and a holey one (8-byte elements every
		// 16 bytes), whose data the listless IOP moves in one pass.
		holey, err := datatype.Resized(datatype.Double, 0, 16)
		if err != nil {
			panic(err)
		}
		for _, mt := range []*datatype.Type{datatype.Byte, holey} {
			buf := make([]byte, dLarge/mt.Size()*mt.Extent())

			// Warm-up: grows the inbox queue to its high-water mark,
			// fills the buffer pool's classes, and populates the engine
			// freelist.
			if _, err := f.WriteAtAll(0, dLarge/mt.Size(), mt, buf); err != nil {
				panic(err)
			}
			if _, err := f.ReadAtAll(0, dLarge/mt.Size(), mt, buf); err != nil {
				panic(err)
			}

			aSmall := measureCollective(t, f, mt, buf, dSmall, write)
			aLarge := measureCollective(t, f, mt, buf, dLarge, write)
			perWindow := (aLarge - aSmall) / (winLarge - winSmall)
			if perWindow > wantPerWindow {
				t.Errorf("engine %v write=%v memtype %v: %.2f allocs per steady-state window (small=%v large=%v), want <= %v",
					engine, write, mt, perWindow, aSmall, aLarge, wantPerWindow)
			}
		}
		if engine == Listless && f.Stats.MovedBytes == 0 {
			t.Error("the holey memtype did not take the one-pass path")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestListlessWindowZeroAlloc: the listless engine's steady-state
// window loop — pooled buffers, recycled chunks, freelisted window
// descriptors, persistent pipeline workers — performs zero allocations
// per window, for both the pipelined and the sequential loop.
func TestListlessWindowZeroAlloc(t *testing.T) {
	for _, write := range []bool{true, false} {
		testWindowAllocFree(t, Listless, write, false, 0)
	}
}

// TestListlessWindowZeroAllocMetricsOn: instrumentation must be free in
// the steady state.  Every hot-path increment is a single atomic add on
// a handle registered at Open, so turning the metrics registry on may
// not reintroduce per-window allocations.
func TestListlessWindowZeroAllocMetricsOn(t *testing.T) {
	for _, write := range []bool{true, false} {
		testWindowAllocFree(t, Listless, write, true, 0)
	}
}

// TestListlessSequentialWindowZeroAlloc covers the DisableCollPipeline
// ablation loop.
func TestListlessSequentialWindowZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const d = int64(8 * allocWinSize / 2)
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		sh := NewShared(storage.NewMem())
		f, err := Open(p, sh, Options{Engine: Listless, CollBufSize: allocWinSize, DisableCollPipeline: true})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := allocView(f, d/allocBlocklen); err != nil {
			panic(err)
		}
		buf := make([]byte, d)
		if _, err := f.WriteAtAll(0, d, datatype.Byte, buf); err != nil {
			panic(err)
		}
		aSmall := measureCollective(t, f, datatype.Byte, buf, d/4, true)
		aLarge := measureCollective(t, f, datatype.Byte, buf, d, true)
		if perWindow := (aLarge - aSmall) / 6; perWindow > 0 {
			t.Errorf("sequential loop: %.2f allocs per window (small=%v large=%v)", perWindow, aSmall, aLarge)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnpooledAblationAllocates sanity-checks the measurement itself:
// with DisablePool the same loop must allocate per window (otherwise
// the zero assertions above would be vacuous).
func TestUnpooledAblationAllocates(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const dSmall = int64(4 * allocWinSize / 2)
	const dLarge = int64(16 * allocWinSize / 2)
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		sh := NewShared(storage.NewMem())
		f, err := Open(p, sh, Options{Engine: Listless, CollBufSize: allocWinSize, DisablePool: true})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := allocView(f, dLarge/allocBlocklen); err != nil {
			panic(err)
		}
		buf := make([]byte, dLarge)
		if _, err := f.WriteAtAll(0, dLarge, datatype.Byte, buf); err != nil {
			panic(err)
		}
		aSmall := measureCollective(t, f, datatype.Byte, buf, dSmall, true)
		aLarge := measureCollective(t, f, datatype.Byte, buf, dLarge, true)
		if perWindow := (aLarge - aSmall) / 12; perWindow < 1 {
			t.Errorf("unpooled ablation allocates %.2f per window; expected >= 1 (is the measurement broken?)", perWindow)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// benchCollective is the -benchmem benchmark behind the CI pooled vs
// unpooled benchstat artifact: P=4 nc-nc collective writes+reads.
func benchCollective(b *testing.B, opts Options) {
	const (
		P          = 4
		blockcount = 512
		blocklen   = 64
	)
	d := blockcount * int64(blocklen)
	opts.CollBufSize = 64 << 10
	sh := NewShared(storage.NewMem())
	_, err := mpi.Run(P, func(p *mpi.Proc) {
		f, err := Open(p, sh, opts)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		ft, err := NoncontigFiletype(p.Rank(), P, blockcount, blocklen)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		buf := make([]byte, d)
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
			if _, err := f.ReadAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCollectiveWindow(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		benchCollective(b, Options{Engine: Listless})
	})
	b.Run("unpooled", func(b *testing.B) {
		b.ReportAllocs()
		benchCollective(b, Options{Engine: Listless, DisablePool: true, DisableVectored: true})
	})
}
