package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/noncontig"
	"repro/internal/storage"
)

// Allocation comparison: the zero-copy hot path (buffer pooling +
// vectored storage I/O) against its ablation (DisablePool +
// DisableVectored), for both datatype engines.
//
// Allocations are measured with the repetition-delta method: the same
// nc-nc collective workload runs twice, differing only in repetition
// count, and the difference in runtime.MemStats between the two runs,
// divided by the repetition difference, is the steady-state cost of one
// operation (one collective write plus one collective read).  World
// setup, engine setup, and pool warm-up are identical in both runs and
// cancel in the subtraction.  Storage operations (≈ syscalls against a
// real file: a vectored batch is one preadv/pwritev) come from an
// Observed backend the same way.
//
// A second, independent-access table isolates the vectored-I/O win on
// the sieving-bypass direct path: a sparse c-nc access below the sieve
// density threshold issues one storage call per contiguous run without
// vectoring, and one per pack-buffer chunk with it.

// AllocPoint is one (engine, pooled) cell of the collective table.
type AllocPoint struct {
	Engine string `json:"engine"`
	Pooled bool   `json:"pooled"` // pooling + vectored I/O on (the default path)

	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	StorageOpsPerOp float64 `json:"storage_ops_per_op"`

	WriteMBps float64 `json:"write_mbps_per_proc"`
	ReadMBps  float64 `json:"read_mbps_per_proc"`
}

// AllocDirectPoint is one cell of the direct-path (independent, sparse
// c-nc) table: with vectoring the window's runs coalesce into one
// storage call per pack-buffer chunk.
type AllocDirectPoint struct {
	Vectored bool `json:"vectored"`

	StorageOpsPerOp float64 `json:"storage_ops_per_op"`
	DirectRuns      int64   `json:"direct_runs"`      // logical contiguous runs (rank 0)
	VectoredBatches int64   `json:"vectored_batches"` // batched calls issued (rank 0)
	WriteMBps       float64 `json:"write_mbps_per_proc"`
	ReadMBps        float64 `json:"read_mbps_per_proc"`
}

// AllocComparison is the full pooled-vs-unpooled measurement, the
// payload of BENCH_alloc.json.
type AllocComparison struct {
	P           int   `json:"p"`
	Blockcount  int64 `json:"n_block"`
	Blocklen    int64 `json:"s_block"`
	CollBufSize int   `json:"coll_buf_bytes"`
	RepsLow     int   `json:"reps_low"`
	RepsHigh    int   `json:"reps_high"`

	Points []AllocPoint       `json:"points"`
	Direct []AllocDirectPoint `json:"direct"`

	// AllocReduction is, per engine, 1 - pooled/unpooled allocations
	// per op (the headline number: >= 0.5 is the acceptance bar).
	AllocReduction map[string]float64 `json:"alloc_reduction"`
	// SyscallReduction is the direct-path storage-call reduction from
	// vectoring.
	SyscallReduction float64 `json:"syscall_reduction"`
}

func allocConfig(s Scale) AllocComparison {
	// Small windows and many blocks put the workload deep in the
	// steady state: the per-window costs the pool eliminates dominate
	// the per-collective setup that both paths share.
	ac := AllocComparison{
		P:           4,
		Blockcount:  8192,
		Blocklen:    32,
		CollBufSize: 8 << 10,
		RepsLow:     2,
		RepsHigh:    6,
	}
	if s == Quick {
		ac.Blockcount = 4096
		ac.RepsHigh = 4
	}
	return ac
}

// allocRun runs the nc-nc collective workload once with the given
// repetition count and returns the memory and storage tallies.
func allocRun(ac AllocComparison, eng core.Engine, pooled bool, reps int) (mallocs, bytes uint64, storageOps int64, res noncontig.Result, err error) {
	inst := storage.NewObserved(storage.NewMem(), nil, nil)
	cfg := noncontig.Config{
		P:          ac.P,
		Blockcount: ac.Blockcount,
		Blocklen:   ac.Blocklen,
		Pattern:    noncontig.NcNc,
		Collective: true,
		Engine:     eng,
		Reps:       reps,
		Backend:    inst,
		Options: core.Options{
			CollBufSize:     ac.CollBufSize,
			DisablePool:     !pooled,
			DisableVectored: !pooled,
		},
		StallTimeout: 30 * time.Second,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err = noncontig.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, 0, res, fmt.Errorf("alloc bench (%s pooled=%v reps=%d): %w", eng, pooled, reps, err)
	}
	st := inst.Stats()
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc,
		st.Reads + st.Writes, res, nil
}

// runAllocPoint measures one (engine, pooled) cell with the
// repetition-delta method.
func runAllocPoint(ac AllocComparison, eng core.Engine, pooled bool) (AllocPoint, error) {
	pt := AllocPoint{Engine: eng.String(), Pooled: pooled}
	// Warm run: fills the buffer pool and the runtime's internal caches
	// so neither run of the measured pair pays first-use costs.
	if _, _, _, _, err := allocRun(ac, eng, pooled, 1); err != nil {
		return pt, err
	}
	mLow, bLow, oLow, _, err := allocRun(ac, eng, pooled, ac.RepsLow)
	if err != nil {
		return pt, err
	}
	mHigh, bHigh, oHigh, res, err := allocRun(ac, eng, pooled, ac.RepsHigh)
	if err != nil {
		return pt, err
	}
	dr := float64(ac.RepsHigh - ac.RepsLow)
	pt.AllocsPerOp = float64(mHigh-mLow) / dr
	pt.BytesPerOp = float64(bHigh-bLow) / dr
	pt.StorageOpsPerOp = float64(oHigh-oLow) / dr
	pt.WriteMBps = res.WriteBpp
	pt.ReadMBps = res.ReadBpp
	return pt, nil
}

// runAllocDirect measures the direct-path cell: independent sparse c-nc
// below the sieve threshold, with and without vectoring.
func runAllocDirect(ac AllocComparison, vectored bool) (AllocDirectPoint, error) {
	pt := AllocDirectPoint{Vectored: vectored}
	run := func(reps int) (int64, noncontig.Result, error) {
		inst := storage.NewObserved(storage.NewMem(), nil, nil)
		cfg := noncontig.Config{
			P:          ac.P,
			Blockcount: ac.Blockcount,
			Blocklen:   ac.Blocklen,
			Pattern:    noncontig.CNc,
			Collective: false,
			Engine:     core.Listless,
			Reps:       reps,
			Backend:    inst,
			Options: core.Options{
				// The Figure-4 interleaving has density 1/P; 0.5 puts
				// every access on the direct path.
				SieveDensity:    0.5,
				DisableVectored: !vectored,
			},
			StallTimeout: 30 * time.Second,
		}
		res, err := noncontig.Run(cfg)
		if err != nil {
			return 0, res, fmt.Errorf("alloc bench (direct vectored=%v reps=%d): %w", vectored, reps, err)
		}
		st := inst.Stats()
		return st.Reads + st.Writes, res, nil
	}
	oLow, _, err := run(ac.RepsLow)
	if err != nil {
		return pt, err
	}
	oHigh, res, err := run(ac.RepsHigh)
	if err != nil {
		return pt, err
	}
	pt.StorageOpsPerOp = float64(oHigh-oLow) / float64(ac.RepsHigh-ac.RepsLow)
	pt.DirectRuns = res.Stats.DirectWrites + res.Stats.DirectReads
	pt.VectoredBatches = res.Stats.VectoredWrites + res.Stats.VectoredReads
	pt.WriteMBps = res.WriteBpp
	pt.ReadMBps = res.ReadBpp
	return pt, nil
}

// Alloc runs the full pooled-vs-unpooled comparison.  GC is disabled
// for the duration so sync.Pool contents survive between the paired
// runs and the deltas measure the steady state.
func Alloc(s Scale) (AllocComparison, error) {
	ac := allocConfig(s)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ac.AllocReduction = make(map[string]float64)
	for _, eng := range []core.Engine{core.Listless, core.ListBased} {
		pooled, err := runAllocPoint(ac, eng, true)
		if err != nil {
			return AllocComparison{}, err
		}
		unpooled, err := runAllocPoint(ac, eng, false)
		if err != nil {
			return AllocComparison{}, err
		}
		ac.Points = append(ac.Points, pooled, unpooled)
		if unpooled.AllocsPerOp > 0 {
			ac.AllocReduction[eng.String()] = 1 - pooled.AllocsPerOp/unpooled.AllocsPerOp
		}
	}
	vec, err := runAllocDirect(ac, true)
	if err != nil {
		return AllocComparison{}, err
	}
	loop, err := runAllocDirect(ac, false)
	if err != nil {
		return AllocComparison{}, err
	}
	ac.Direct = append(ac.Direct, vec, loop)
	if loop.StorageOpsPerOp > 0 {
		ac.SyscallReduction = 1 - vec.StorageOpsPerOp/loop.StorageOpsPerOp
	}
	return ac, nil
}

// AllocJSON renders the comparison as indented JSON, the payload of
// BENCH_alloc.json.
func AllocJSON(ac AllocComparison) ([]byte, error) {
	return json.MarshalIndent(ac, "", "  ")
}

// FormatAlloc renders the comparison as text.
func FormatAlloc(ac AllocComparison) string {
	s := fmt.Sprintf("Allocation and syscall comparison (P=%d, N_block=%d, S_block=%dB, collbuf=%dK, nc-nc collective):\n",
		ac.P, ac.Blockcount, ac.Blocklen, ac.CollBufSize>>10)
	for _, pt := range ac.Points {
		mode := "unpooled"
		if pt.Pooled {
			mode = "pooled"
		}
		s += fmt.Sprintf("  %-10s %-9s %9.0f allocs/op  %11.0f B/op  %6.0f storage ops/op  write %7.2f MB/s  read %7.2f MB/s\n",
			pt.Engine, mode, pt.AllocsPerOp, pt.BytesPerOp, pt.StorageOpsPerOp, pt.WriteMBps, pt.ReadMBps)
	}
	for eng, red := range ac.AllocReduction {
		s += fmt.Sprintf("  %s: pooling + vectoring removes %.0f%% of allocations per op\n", eng, 100*red)
	}
	s += "Direct path (independent sparse c-nc, below sieve threshold):\n"
	for _, pt := range ac.Direct {
		mode := "per-run"
		if pt.Vectored {
			mode = "vectored"
		}
		s += fmt.Sprintf("  %-9s %8.0f storage ops/op  (%d runs -> %d batches)  write %7.2f MB/s  read %7.2f MB/s\n",
			mode, pt.StorageOpsPerOp, pt.DirectRuns, pt.VectoredBatches, pt.WriteMBps, pt.ReadMBps)
	}
	if ac.SyscallReduction > 0 {
		s += fmt.Sprintf("  vectoring removes %.1f%% of direct-path storage calls\n", 100*ac.SyscallReduction)
	}
	return s
}
