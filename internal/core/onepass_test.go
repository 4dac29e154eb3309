package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// The one-pass path: with a non-contiguous memtype and a non-contiguous
// fileview, the listless engine moves data between the user buffer and
// a file window in one pass (fotf.Move) — in independent sieving and for
// each IOP's own chunk of a collective — where the list-based engine and
// the DisableProgram ablation still stage it through a contiguous
// buffer.  All must leave the same bytes as the flat oracle.

// userBuffer lays packed data out as count instances of mt, the flat
// way (the datatype's own Walk), with fill in the holes.
func userBuffer(mt *datatype.Type, count int64, packed []byte, fill byte) []byte {
	buf := bytes.Repeat([]byte{fill}, int((count-1)*mt.Extent()+mt.TrueUB()))
	pos := int64(0)
	for k := int64(0); k < count; k++ {
		mt.Walk(func(off, length int64) {
			copy(buf[k*mt.Extent()+off:], packed[pos:pos+length])
			pos += length
		})
	}
	return buf
}

// onePassEngines are the three ways an nc-nc access can run: one pass,
// and the two staged paths.
var onePassEngines = []struct {
	name string
	opts Options
}{
	{"listless", Options{Engine: Listless}},
	{"listless-no-program", Options{Engine: Listless, DisableProgram: true}},
	{"list-based", Options{Engine: ListBased}},
}

// TestOnePassNcNcOracle drives random nc memtypes through random
// fileviews, independently and collectively (P = 1..4, fewer IOPs than
// ranks, no fileview caching, the sequential window loop), on Mem and
// File backends.  The file must match the flat oracle, each rank's
// read-back must equal its buffer with the holes untouched, and
// MovedBytes must show that only the listless program cells moved data
// in one pass.
func TestOnePassNcNcOracle(t *testing.T) {
	worlds := []struct {
		name       string
		P          int
		collective bool
		opts       Options
	}{
		{"indep-P1", 1, false, Options{}},
		{"indep-P2", 2, false, Options{}},
		{"coll-P1", 1, true, Options{}},
		{"coll-P2", 2, true, Options{}},
		{"coll-P3-ionodes2", 3, true, Options{IONodes: 2}},
		{"coll-P4", 4, true, Options{}},
		{"coll-P4-ionodes1", 4, true, Options{IONodes: 1}},
		{"coll-P3-no-view-cache", 3, true, Options{DisableViewCache: true}},
		{"coll-P4-sequential", 4, true, Options{DisableCollPipeline: true}},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		base := datatype.RandomFiletype(r, 3)
		mt := datatype.RandomMemtype(r, 3)
		for mt.ContiguousTiled() {
			mt = datatype.RandomMemtype(r, 3)
		}
		stride := base.Extent()
		disp := 3 + seed // every view starts past a few untouched bytes
		count := 1 + (2*base.Size()+r.Int63n(base.Size()))/mt.Size()
		d := count * mt.Size()
		sizes := Options{CollBufSize: 64 + r.Intn(256), SieveBufSize: 48 + r.Intn(200), PackBufSize: 16 + r.Intn(64)}
		for _, w := range worlds {
			data := make([][]byte, w.P)
			for rank := range data {
				data[rank] = pattern(rank*5+int(seed), d)
			}
			want := diffOracle(base, w.P, stride, d, data)
			for _, eng := range onePassEngines {
				for _, backend := range []string{"mem", "file"} {
					label := fmt.Sprintf("seed %d %s %s %s (view %s, memtype %s)", seed, w.name, eng.name, backend, base, mt)
					opts := w.opts
					opts.Engine, opts.DisableProgram = eng.opts.Engine, eng.opts.DisableProgram
					opts.CollBufSize, opts.SieveBufSize, opts.PackBufSize = sizes.CollBufSize, sizes.SieveBufSize, sizes.PackBufSize
					got, moved := onePassWorld(t, label, backend, w.P, w.collective, opts, disp, base, mt, count, data)
					if int64(len(got)) < disp || !allZero(got[:disp]) {
						t.Fatalf("%s: bytes below the displacement %d were written", label, disp)
					}
					got = got[disp:]
					n := min(len(got), len(want))
					if !bytes.Equal(got[:n], want[:n]) || !allZero(got[n:]) || !allZero(want[n:]) {
						t.Fatalf("%s: file differs from the oracle (%d vs %d bytes)", label, len(got), len(want))
					}
					// A contiguous view (possible at P = 1) takes the
					// nc-c path, which has no window to move into.
					if oneP := eng.name == "listless" && !rankView(base, 0, w.P).ContiguousTiled(); oneP != (moved > 0) {
						t.Errorf("%s: MovedBytes %d, one-pass path expected %v", label, moved, oneP)
					}
				}
			}
		}
	}
}

// rankView is rank's fileview: base at rank*extent, tiled at P*extent.
func rankView(base *datatype.Type, rank, P int) *datatype.Type {
	st, err := datatype.Struct([]int64{1}, []int64{int64(rank) * base.Extent()}, []*datatype.Type{base})
	if err != nil {
		panic(err)
	}
	view, err := datatype.Resized(st, 0, int64(P)*base.Extent())
	if err != nil {
		panic(err)
	}
	return view
}

// onePassWorld writes each rank's data through its rankView, displaced
// by disp bytes, from a buffer of count memtypes, reads it back into a
// buffer of fill bytes, and returns the file image and the MovedBytes
// summed over ranks.
func onePassWorld(t *testing.T, label, backend string, P int, collective bool, opts Options,
	disp int64, base, mt *datatype.Type, count int64, data [][]byte) ([]byte, int64) {
	t.Helper()
	const fill = 0xEE
	var be storage.Backend
	var path string
	if backend == "mem" {
		be = storage.NewMem()
	} else {
		path = filepath.Join(t.TempDir(), "f")
		fb, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fb.Close()
		be = fb
	}
	sh := NewShared(be)
	moved := make([]int64, P)
	_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, opts)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := f.SetView(disp, datatype.Byte, rankView(base, p.Rank(), P)); err != nil {
			panic(err)
		}
		// Two accesses, the second at a nonzero view offset: the memtype
		// instances [0, half) and then [half, count).
		half := count / 2
		access := func(b []byte, write bool) {
			for _, a := range [][2]int64{{0, half}, {half, count}} {
				off, n, ub := a[0]*mt.Size(), a[1]-a[0], b[a[0]*mt.Extent():]
				var err error
				switch {
				case collective && write:
					_, err = f.WriteAtAll(off, n, mt, ub)
				case collective:
					_, err = f.ReadAtAll(off, n, mt, ub)
				case write:
					_, err = f.WriteAt(off, n, mt, ub)
				default:
					_, err = f.ReadAt(off, n, mt, ub)
				}
				if err != nil {
					panic(err)
				}
			}
		}
		buf := userBuffer(mt, count, data[p.Rank()], fill)
		access(buf, true)
		p.Barrier()
		got := bytes.Repeat([]byte{fill}, len(buf))
		access(got, false)
		if !bytes.Equal(got, buf) {
			panic(fmt.Sprintf("rank %d: read-back differs from the written buffer", p.Rank()))
		}
		moved[p.Rank()] = f.Stats.MovedBytes
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var total int64
	for _, m := range moved {
		total += m
	}
	if mem, ok := be.(*storage.Mem); ok {
		return mem.Bytes(), total
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img, total
}

// TestFailedCollectiveReadOwnChunk pins what a failed collective read
// leaves in the user buffer.  An IOP moves its own rank's data into the
// buffer during the window loop, before the ranks agree on the outcome,
// so on the one-pass path a rank whose IOP succeeded holds the bytes of
// its own domain, and every other byte keeps its old value.  The staged
// paths deliver data only after the agreement, so a failed read leaves
// their buffers untouched.
func TestFailedCollectiveReadOwnChunk(t *testing.T) {
	const (
		P          = 4
		blockcount = 32
		blocklen   = 16
		failIOP    = 1
		fill       = 0xEE
	)
	d := int64(blockcount * blocklen) // also each IOP's domain size
	elem, err := datatype.Resized(datatype.Double, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	count := d / elem.Size()
	for _, eng := range onePassEngines {
		for _, seq := range []bool{false, true} {
			label := fmt.Sprintf("%s/sequential=%v", eng.name, seq)
			fb := storage.NewFaulty(storage.NewMem())
			sh := NewShared(fb)
			opts := eng.opts
			opts.CollBufSize, opts.DisableCollPipeline = 128, seq
			bufs := make([][]byte, P)
			errs := make([]error, P)
			_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
				f, err := Open(p, sh, opts)
				if err != nil {
					panic(err)
				}
				defer f.Close()
				if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
					panic(err)
				}
				if _, err := f.WriteAtAll(0, count, elem, userBuffer(elem, count, pattern(p.Rank(), d), fill)); err != nil {
					panic(err)
				}
				if p.Rank() == 0 {
					fb.FailReadRange(failIOP*d, (failIOP+1)*d)
				}
				p.Barrier()
				bufs[p.Rank()] = userBuffer(elem, count, bytes.Repeat([]byte{fill}, int(d)), fill)
				_, errs[p.Rank()] = f.ReadAtAll(0, count, elem, bufs[p.Rank()])
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireAgreement(t, label, errs, failIOP, PhaseIOPWindow)
			for r := 0; r < P; r++ {
				// Rank r's data byte k lies at file offset
				// (k/blocklen)*P*blocklen + r*blocklen + k%blocklen, in
				// IOP i's domain [i*d, (i+1)*d).
				packed := pattern(r, d)
				own := make([]byte, d)
				for k := int64(0); k < d; k++ {
					off := k/blocklen*P*blocklen + int64(r)*blocklen + k%blocklen
					own[k] = fill
					if eng.name == "listless" && r != failIOP && off/d == int64(r) {
						own[k] = packed[k]
					}
				}
				if want := userBuffer(elem, count, own, fill); !bytes.Equal(bufs[r], want) {
					t.Errorf("%s: rank %d buffer after the failed read differs from the expected own-domain bytes", label, r)
				}
			}
		}
	}
}
