package ioserver

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// readResult is one ReadAt outcome, compared field by field.
type readResult struct {
	n    int
	err  string
	data []byte
}

func readAt(b storage.Backend, off, n int64) readResult {
	p := make([]byte, n)
	got, err := b.ReadAt(p, off)
	r := readResult{n: got, data: p[:got]}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func sameRead(got, want readResult) bool {
	return got.n == want.n && got.err == want.err && bytes.Equal(got.data, want.data)
}

// localStriped is the in-process reference: storage.Striped over Mem
// stripes of the same geometry.
func localStriped(t *testing.T, unit int64, n int) *storage.Striped {
	t.Helper()
	stripes := make([]storage.Backend, n)
	for i := range stripes {
		stripes[i] = storage.NewMem()
	}
	ref, err := storage.NewStriped(unit, stripes...)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestStripedMatchesLocal drives the remote aggregate and the
// in-process storage.Striped with one random operation stream and
// requires the same ReadAt results — byte count, io.EOF, error text and
// bytes — and the same sizes.  Reads past the end, zero-length and
// negative-offset accesses are in the mix, and so are epochs: writes
// inside one are staged, so until the commit the reference has not seen
// them and reads inside the epoch must still match it.
func TestStripedMatchesLocal(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("servers=%d", n), func(t *testing.T) {
			const unit = 16
			agg, _ := startServers(t, unit, n, nil)
			ref := localStriped(t, unit, n)
			rng := rand.New(rand.NewSource(int64(11 + n)))
			var (
				epoch   uint64
				pending []storage.Segment // staged writes, applied to ref at commit
			)
			for i := 0; i < 400; i++ {
				off := rng.Int63n(600)
				if rng.Intn(12) == 0 {
					off = -1 - rng.Int63n(20)
				}
				ln := rng.Int63n(120)
				if rng.Intn(8) == 0 {
					ln = 0
				}
				switch op := rng.Intn(10); {
				case op < 4:
					buf := make([]byte, ln)
					rng.Read(buf)
					_, gerr := agg.WriteAt(buf, off)
					var werr error
					if epoch == 0 {
						_, werr = ref.WriteAt(buf, off)
					} else if off < 0 {
						werr = fmt.Errorf("storage: negative offset %d", off)
					} else {
						pending = append(pending, storage.Segment{Off: off, Buf: buf})
					}
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("op %d: WriteAt(%d, %d) = %v, want %v", i, off, ln, gerr, werr)
					}
				case op < 8:
					got, want := readAt(agg, off, ln), readAt(ref, off, ln)
					if !sameRead(got, want) {
						t.Fatalf("op %d (epoch %d): ReadAt(%d, %d) = (%d, %q), want (%d, %q)",
							i, epoch, off, ln, got.n, got.err, want.n, want.err)
					}
				case op == 8 && epoch == 0:
					if rng.Intn(3) == 0 {
						sz := rng.Int63n(700)
						if err := agg.Truncate(sz); err != nil {
							t.Fatal(err)
						}
						if err := ref.Truncate(sz); err != nil {
							t.Fatal(err)
						}
					}
					epoch = uint64(i + 1)
					agg.EpochBegin(epoch)
				case op == 8:
					if err := agg.EpochSeal(epoch); err != nil {
						t.Fatal(err)
					}
					if err := agg.EpochCommit(epoch); err != nil {
						t.Fatal(err)
					}
					for _, s := range pending {
						if _, err := ref.WriteAt(s.Buf, s.Off); err != nil {
							t.Fatal(err)
						}
					}
					epoch, pending = 0, nil
				default:
					if got, want := agg.Size(), ref.Size(); got != want {
						t.Fatalf("op %d: size %d, want %d", i, got, want)
					}
				}
			}
		})
	}
}

// TestStripedSizeFallback pins when ReadAt asks for sizes: only when
// the range ends past every size its replies reported and some server
// was not read from.  Layout: two servers, 16-byte units, and a file
// whose only bytes are [16, 32) on server 1.
func TestStripedSizeFallback(t *testing.T) {
	agg, _ := startServers(t, 16, 2, nil)
	ref := localStriped(t, 16, 2)
	tail := bytes.Repeat([]byte{0xee}, 16)
	for _, b := range []storage.Backend{agg, ref} {
		if _, err := b.WriteAt(tail, 16); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		off, n  int64
		rounds  int64
		wantN   int
		wantEOF bool
	}{
		// Server 0 alone owns [0, 8) and reports an empty stripe; the
		// file's tail is on server 1, which only a probe finds.
		{"owner is not the furthest server", 0, 8, 2, 8, false},
		// Server 1 owns [24, 32) and its size covers the range.
		{"owner covers the range", 24, 8, 1, 8, false},
		// [28, 36) ends past server 1's size; server 0 might hold more.
		{"range ends past every reply", 28, 8, 2, 4, true},
		// Both servers answer, so their sizes are exact: no probe.
		{"every server asked", 8, 40, 2, 24, true},
		// Nothing to read, nobody asked: the sizes come from probes.
		{"zero length", 32, 0, 2, 0, true},
		{"zero length inside", 20, 0, 2, 0, false},
		{"zero length at 0", 0, 0, 2, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := agg.Rounds()
			got, want := readAt(agg, tc.off, tc.n), readAt(ref, tc.off, tc.n)
			if !sameRead(got, want) {
				t.Fatalf("ReadAt(%d, %d) = (%d, %q), reference (%d, %q)", tc.off, tc.n, got.n, got.err, want.n, want.err)
			}
			if got.n != tc.wantN || (got.err == io.EOF.Error()) != tc.wantEOF {
				t.Fatalf("ReadAt(%d, %d) = (%d, %q), want %d bytes, EOF %v", tc.off, tc.n, got.n, got.err, tc.wantN, tc.wantEOF)
			}
			if r := agg.Rounds() - before; r != tc.rounds {
				t.Fatalf("ReadAt(%d, %d) cost %d round trips, want %d", tc.off, tc.n, r, tc.rounds)
			}
		})
	}
}

// TestWindowReadOneRequestPerServer: a window read or write — however
// many stripe units it spans — costs exactly one request per server
// that owns part of it, and a read sends no size probe.
func TestWindowReadOneRequestPerServer(t *testing.T) {
	const unit, n = 64, 3
	agg, servers := startServers(t, unit, n, nil)
	file := make([]byte, unit*n*8)
	for i := range file {
		file[i] = byte(i * 7)
	}
	requests := func() int64 {
		var total int64
		for _, s := range servers {
			total += s.Stats().Requests
		}
		return total
	}
	cost := func(t *testing.T, what string, want int64, op func() error) {
		t.Helper()
		r0, q0 := agg.Rounds(), requests()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if r, q := agg.Rounds()-r0, requests()-q0; r != want || q != want {
			t.Fatalf("%s cost %d round trips (%d server requests), want %d", what, r, q, want)
		}
	}
	write := func(p []byte, off int64) func() error {
		return func() error { _, err := agg.WriteAt(p, off); return err }
	}
	read := func(p []byte, off int64, want []byte, wantEOF bool) func() error {
		return func() error {
			got, err := agg.ReadAt(p, off)
			if (err == io.EOF) != wantEOF || (err != nil && err != io.EOF) {
				return fmt.Errorf("ReadAt error %v, EOF expected: %v", err, wantEOF)
			}
			if !bytes.Equal(p[:got], want) {
				return fmt.Errorf("ReadAt returned %d wrong bytes", got)
			}
			return nil
		}
	}
	cost(t, "whole-file write", n, write(file, 0))
	cost(t, "whole-file read", n, read(make([]byte, len(file)), 0, file, false))
	cost(t, "read past the end", n, read(make([]byte, len(file)+100), 0, file, true))
	cost(t, "two-server window", 2, read(make([]byte, 100), unit+10, file[unit+10:unit+110], false))
	cost(t, "one-server window", 1, read(make([]byte, 40), 2*unit+5, file[2*unit+5:2*unit+45], false))

	agg.EpochBegin(1)
	patch := bytes.Repeat([]byte{0x5a}, 5*unit)
	cost(t, "staged window write", n, write(patch, 100))
	cost(t, "window read inside the epoch", n, read(make([]byte, len(file)), 0, file, false))
	if err := agg.EpochSeal(1); err != nil {
		t.Fatal(err)
	}
	if err := agg.EpochCommit(1); err != nil {
		t.Fatal(err)
	}
	copy(file[100:], patch)
	cost(t, "read after commit", n, read(make([]byte, len(file)), 0, file, false))
}
