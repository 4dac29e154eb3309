package main

import (
	"bytes"
	"fmt"

	"repro/internal/datatype"
)

// Payloads are a pure function of (seed, version, file offset): the
// byte a write puts at file offset o in version v is byteAt(seed, v, o
// mod period), where period is the extent of one file slot.  Reads and
// the final file image are checked against the same function, so the
// oracle needs no copy of what was written.  Successive writes to one
// slot use different versions, so a read that returns stale bytes, or
// does nothing at all, is caught.

func byteAt(seed int64, v int, off int64) byte {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(v+1)*0xBF58476D1CE4E5B9 ^ uint64(off>>3)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return byte(x >> (uint(off&7) * 8))
}

// fileRuns lists the file runs of filetype instance k (the view's
// displacement is 0), in data order, as absolute file offsets.
func fileRuns(ft *datatype.Type, k int64) [][2]int64 {
	var runs [][2]int64
	base := k * ft.Extent()
	ft.Walk(func(off, ln int64) { runs = append(runs, [2]int64{base + off, ln}) })
	return runs
}

// fillTyped builds the memory buffer a rank writes (and must read back)
// for version v: the typed positions of one memtype instance carry
// byteAt of the file offset (in filetype instance 0) their data byte
// lands at, and the gaps stay zero.  A read into a zeroed buffer must
// reproduce it exactly, gaps included, so verification is one
// bytes.Equal.
func fillTyped(seed int64, v int, mt, ft *datatype.Type, period int64) ([]byte, error) {
	if mt.Size() != ft.Size() {
		return nil, fmt.Errorf("memtype carries %d bytes, filetype %d", mt.Size(), ft.Size())
	}
	buf := make([]byte, mt.Extent())
	fr := fileRuns(ft, 0)
	fi, fpos := 0, int64(0) // current file run and position inside it
	mt.Walk(func(moff, mlen int64) {
		for mlen > 0 {
			n := min(mlen, fr[fi][1]-fpos)
			fo := fr[fi][0] + fpos
			for j := int64(0); j < n; j++ {
				buf[moff+j] = byteAt(seed, v, (fo+j)%period)
			}
			moff += n
			mlen -= n
			fpos += n
			if fpos == fr[fi][1] {
				fi, fpos = fi+1, 0
			}
		}
	})
	return buf, nil
}

// oracle is the flat expected file image: every slot's bytes as the last
// successful write to them left them.
type oracle struct {
	img []byte
}

func newOracle(size int64) *oracle { return &oracle{img: make([]byte, size)} }

// write records that the runs of ft instance k now hold version v.
func (o *oracle) write(seed int64, v int, ft *datatype.Type, k, period int64) {
	for _, r := range fileRuns(ft, k) {
		for j := int64(0); j < r[1]; j++ {
			o.img[r[0]+j] = byteAt(seed, v, (r[0]+j)%period)
		}
	}
}

// check compares an image read back from storage with the oracle and
// describes the first difference.
func (o *oracle) check(got []byte) error {
	if len(got) < len(o.img) {
		return fmt.Errorf("file image is %d bytes, oracle %d", len(got), len(o.img))
	}
	if bytes.Equal(got[:len(o.img)], o.img) {
		return nil
	}
	for i := range o.img {
		if got[i] != o.img[i] {
			return fmt.Errorf("file image differs from the oracle at byte %d (got %#x, want %#x)", i, got[i], o.img[i])
		}
	}
	return nil
}
