package core

import (
	"bytes"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Tests for the sieving-vs-direct-access decision (Options.SieveDensity,
// the paper's §5 outlook item).

// sparseType selects 8 bytes out of every 1024: density 1/128.
func sparseType(t *testing.T) *datatype.Type {
	t.Helper()
	dt, err := datatype.Hvector(16, 8, 1024, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestDirectPathTriggersOnSparseAccess(t *testing.T) {
	for _, eng := range []Engine{Listless, ListBased} {
		be := storage.NewObserved(storage.NewMem(), nil, nil)
		sh := NewShared(be)
		_, err := mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng, SieveDensity: 0.5})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, sparseType(t)); err != nil {
				panic(err)
			}
			data := pattern(1, 128)
			if _, err := f.WriteAt(0, 128, datatype.Byte, data); err != nil {
				panic(err)
			}
			if f.Stats.DirectWrites == 0 || f.Stats.SieveWrites != 0 {
				panic("sparse write did not take the direct path")
			}
			got := make([]byte, 128)
			if _, err := f.ReadAt(0, 128, datatype.Byte, got); err != nil {
				panic(err)
			}
			if f.Stats.DirectReads == 0 || f.Stats.SieveReads != 0 {
				panic("sparse read did not take the direct path")
			}
			if !bytes.Equal(got, data) {
				panic("direct path round trip mismatch")
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		// No read-modify-write: the direct write path must not read.
		st := be.Stats()
		if st.BytesRead > 256 { // read phase reads only the 16×8 blocks
			t.Errorf("%v: direct access read %d bytes; RMW not avoided", eng, st.BytesRead)
		}
	}
}

func TestDirectVsSievingIdenticalFiles(t *testing.T) {
	// The heuristic must not change file contents: compare density
	// thresholds that force each path, across engines, with a
	// non-contiguous memtype.
	memt, err := datatype.Hvector(16, 8, 24, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	var files [4][]byte
	i := 0
	for _, density := range []float64{0, 0.9} {
		for _, eng := range []Engine{Listless, ListBased} {
			be := storage.NewMem()
			sh := NewShared(be)
			_, err := mpi.Run(2, func(p *mpi.Proc) {
				f, err := Open(p, sh, Options{Engine: eng, SieveDensity: density, PackBufSize: 32})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				ft := noncontigTypeP(p.Rank(), 2, 16, 8)
				if err := f.SetView(0, datatype.Byte, ft); err != nil {
					panic(err)
				}
				buf := pattern(p.Rank(), memt.Extent())
				if _, err := f.WriteAt(0, 1, memt, buf); err != nil {
					panic(err)
				}
				got := make([]byte, len(buf))
				if _, err := f.ReadAt(0, 1, memt, got); err != nil {
					panic(err)
				}
				for b := int64(0); b < 16; b++ {
					o := b * 24
					if !bytes.Equal(got[o:o+8], buf[o:o+8]) {
						panic("direct/sieve round trip mismatch")
					}
				}
			})
			if err != nil {
				t.Fatalf("density=%v %v: %v", density, eng, err)
			}
			files[i] = be.Bytes()
			i++
		}
	}
	for k := 1; k < 4; k++ {
		if !bytes.Equal(files[0], files[k]) {
			t.Fatalf("variant %d produced a different file", k)
		}
	}
}

func TestDenseAccessStillSieves(t *testing.T) {
	// Density above the threshold keeps the sieving path.
	be := storage.NewMem()
	sh := NewShared(be)
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: Listless, SieveDensity: 0.25})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		// Half-dense view: 8 of every 16 bytes.
		ft, err := datatype.Hvector(32, 8, 16, datatype.Byte)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		if _, err := f.WriteAt(0, 256, datatype.Byte, pattern(0, 256)); err != nil {
			panic(err)
		}
		if f.Stats.SieveWrites == 0 || f.Stats.DirectWrites != 0 {
			panic("dense access took the direct path")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
