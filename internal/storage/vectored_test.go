package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// vectoredBackends builds the backends whose vectored paths the matrix
// exercises, paired with a way to read the final contents back.
func vectoredBackends(t *testing.T) map[string]Backend {
	t.Helper()
	f, err := OpenFile(filepath.Join(t.TempDir(), "v.dat"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]Backend{
		"mem":          NewMem(),
		"file":         f,
		"instrumented": NewObserved(NewMem(), nil, obs.NewRegistry()),
		"throttled":    NewThrottled(NewMem(), 1<<30, 1<<30, 0),
		"resilient":    NewResilient(NewMem(), ResilientConfig{}),
		"faulty":       NewFaulty(NewMem()),
		"traced":       NewObserved(NewMem(), nil, nil),
	}
}

// TestVectoredMatrix writes and reads a scatter/gather pattern through
// every backend and checks byte equivalence with the loop fallback.
func TestVectoredMatrix(t *testing.T) {
	mkSegs := func(bufs ...[]byte) []Segment {
		// Layout: 10-byte gap, seg, gap 3, two adjacent segs, gap 7, seg.
		segs := make([]Segment, len(bufs))
		cur := int64(10)
		for i, b := range bufs {
			switch i {
			case 1:
				cur += 3
			case 2: // adjacent to 1
			case 3:
				cur += 7
			}
			segs[i] = Segment{Off: cur, Buf: b}
			cur += int64(len(b))
		}
		return segs
	}
	data := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 50),
		bytes.Repeat([]byte{3}, 75),
		bytes.Repeat([]byte{4}, 200),
	}

	// Oracle: the loop fallback over a plain Mem.
	oracle := NewMem()
	if err := func() error {
		for _, s := range mkSegs(data[0], data[1], data[2], data[3]) {
			if _, err := oracle.WriteAt(s.Buf, s.Off); err != nil {
				return err
			}
		}
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
	want := oracle.Bytes()

	for name, b := range vectoredBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAtv(b, mkSegs(data[0], data[1], data[2], data[3])); err != nil {
				t.Fatalf("WriteAtv: %v", err)
			}
			got := make([]byte, len(want))
			if err := ReadFull(b, got, 0); err != nil {
				t.Fatalf("ReadFull: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("contents differ from loop oracle")
			}
			// Read the same pattern back through the vectored path.
			rb := make([][]byte, len(data))
			for i, d := range data {
				rb[i] = make([]byte, len(d))
			}
			if err := ReadAtv(b, mkSegs(rb[0], rb[1], rb[2], rb[3])); err != nil {
				t.Fatalf("ReadAtv: %v", err)
			}
			for i := range data {
				if !bytes.Equal(rb[i], data[i]) {
					t.Fatalf("segment %d read back wrong", i)
				}
			}
		})
	}
}

// TestVectoredReadZeroFill checks the ReadFull contract: segments (and
// suffixes) past EOF read as zeros, across segment boundaries.
func TestVectoredReadZeroFill(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "z.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, b := range map[string]Backend{"mem": NewMem(), "file": f} {
		t.Run(name, func(t *testing.T) {
			if _, err := b.WriteAt(bytes.Repeat([]byte{9}, 20), 0); err != nil {
				t.Fatal(err)
			}
			// Segments: fully in-range, straddling EOF, fully past EOF.
			segs := []Segment{
				{Off: 0, Buf: bytes.Repeat([]byte{0xFF}, 10)},
				{Off: 10, Buf: bytes.Repeat([]byte{0xFF}, 20)}, // bytes 10..20 real, 20..30 zero
				{Off: 100, Buf: bytes.Repeat([]byte{0xFF}, 5)},
			}
			if err := ReadAtv(b, segs); err != nil {
				t.Fatalf("ReadAtv: %v", err)
			}
			for i := 0; i < 10; i++ {
				if segs[0].Buf[i] != 9 {
					t.Fatalf("seg0[%d] = %d", i, segs[0].Buf[i])
				}
			}
			for i := 0; i < 20; i++ {
				want := byte(0)
				if i < 10 {
					want = 9
				}
				if segs[1].Buf[i] != want {
					t.Fatalf("seg1[%d] = %d, want %d", i, segs[1].Buf[i], want)
				}
			}
			for i := 0; i < 5; i++ {
				if segs[2].Buf[i] != 0 {
					t.Fatalf("seg2[%d] = %d, want 0", i, segs[2].Buf[i])
				}
			}
		})
	}
}

// TestVectoredEmptyAndZeroLenSegs: empty batches and zero-length
// segments are no-ops everywhere.
func TestVectoredEmptyAndZeroLenSegs(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "e.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, b := range []Backend{NewMem(), f} {
		if err := WriteAtv(b, nil); err != nil {
			t.Fatal(err)
		}
		if err := ReadAtv(b, nil); err != nil {
			t.Fatal(err)
		}
		segs := []Segment{{Off: 5, Buf: nil}, {Off: 9, Buf: []byte{42}}}
		if err := WriteAtv(b, segs); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1)
		if err := ReadFull(b, got, 9); err != nil || got[0] != 42 {
			t.Fatalf("zero-len segment batch: got %v err %v", got, err)
		}
	}
}

// TestVectoredInstrumentedCountsOneOp: a batch of many segments is one
// counted operation — the syscall metric the alloc benchmark reports.
func TestVectoredInstrumentedCountsOneOp(t *testing.T) {
	in := NewObserved(NewMem(), nil, nil)
	var segs []Segment
	for i := 0; i < 16; i++ {
		segs = append(segs, Segment{Off: int64(i * 100), Buf: []byte{byte(i), byte(i)}})
	}
	if err := WriteAtv(in, segs); err != nil {
		t.Fatal(err)
	}
	if err := ReadAtv(in, segs); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("vectored batches counted as %d writes, %d reads; want 1, 1", st.Writes, st.Reads)
	}
	if st.BytesWritten != 32 || st.BytesRead != 32 {
		t.Fatalf("bytes: %d written, %d read; want 32, 32", st.BytesWritten, st.BytesRead)
	}
}

// TestVectoredFaultyRange: a batch overlapping an armed range fails.
func TestVectoredFaultyRange(t *testing.T) {
	fb := NewFaulty(NewMem())
	fb.FailWriteRange(150, 160)
	err := WriteAtv(fb, []Segment{
		{Off: 0, Buf: make([]byte, 10)},
		{Off: 155, Buf: make([]byte, 10)},
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	fb.Heal()
	if err := WriteAtv(fb, []Segment{{Off: 155, Buf: make([]byte, 10)}}); err != nil {
		t.Fatal(err)
	}
}

// TestVectoredChaosResilient: every transient injection on the vectored
// path is repaired by the Resilient wrapper, and the final contents
// match the fault-free oracle.
func TestVectoredChaosResilient(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		mem := NewMem()
		chaos := NewChaos(seed, mem, TransientOnly())
		chaos.sleep = func(time.Duration) {}
		res := NewResilient(chaos, ResilientConfig{Seed: seed})
		res.sleep = func(time.Duration) {}

		var segs []Segment
		for i := 0; i < 32; i++ {
			buf := bytes.Repeat([]byte{byte(i + 1)}, 33)
			segs = append(segs, Segment{Off: int64(i * 40), Buf: buf})
		}
		if err := WriteAtv(res, segs); err != nil {
			t.Fatalf("seed %d: WriteAtv: %v", seed, err)
		}
		back := make([]Segment, len(segs))
		for i, s := range segs {
			back[i] = Segment{Off: s.Off, Buf: make([]byte, len(s.Buf))}
		}
		if err := ReadAtv(res, back); err != nil {
			t.Fatalf("seed %d: ReadAtv: %v", seed, err)
		}
		for i := range segs {
			if !bytes.Equal(back[i].Buf, segs[i].Buf) {
				t.Fatalf("seed %d: segment %d corrupted", seed, i)
			}
		}
	}
}

// TestVectoredFileAdjacentBatching: adjacent segments write correctly
// through the grouped preadv/pwritev path, including spans larger than
// one syscall's iovec budget.
func TestVectoredFileAdjacentBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adj.dat")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// 2000 adjacent 3-byte segments: exceeds IOV_MAX in one contiguous
	// run, so the unix path must split it into multiple syscalls.
	var segs []Segment
	var want []byte
	for i := 0; i < 2000; i++ {
		b := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		segs = append(segs, Segment{Off: int64(i * 3), Buf: b})
		want = append(want, b...)
	}
	if err := WriteAtv(f, segs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file contents differ (len %d vs %d)", len(got), len(want))
	}
	// Read back through the same grouped path.
	rb := make([]Segment, len(segs))
	for i, s := range segs {
		rb[i] = Segment{Off: s.Off, Buf: make([]byte, len(s.Buf))}
	}
	if err := ReadAtv(f, rb); err != nil {
		t.Fatal(err)
	}
	for i := range segs {
		if !bytes.Equal(rb[i].Buf, segs[i].Buf) {
			t.Fatalf("segment %d read back wrong", i)
		}
	}
}
