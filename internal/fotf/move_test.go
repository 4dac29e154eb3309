package fotf

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datatype"
)

// Move is held against a byte-at-a-time reference built from the
// ol-list oracle (flatOffsets), independent of the programs it walks,
// and against the staged path it replaces (pack, then unpack).

// moveBuffers lays out one side of a Move of data bytes [d0, d0+n) of
// dt: the buffer offset of every data byte in the range, a bias that
// puts the lowest touched offset guard bytes into the buffer, and a
// buffer that ends guard bytes past the highest.  The guards are the
// sentinels: a byte written there, or in a hole, fails the comparison.
func moveBuffers(r *rand.Rand, dt *datatype.Type, d0, n int64) (offs []int64, bias int64, buf []byte) {
	const guard = 13
	offs = flatOffsets(dt, d0+n)[d0:]
	lo, hi := offs[0], offs[0]
	for _, o := range offs {
		lo, hi = min(lo, o), max(hi, o)
	}
	bias = lo - guard
	buf = make([]byte, hi+1-bias+guard)
	r.Read(buf)
	return offs, bias, buf
}

// checkMove moves n data bytes from data offset s0 of src to data offset
// d0 of dst and compares both buffers with the reference, which writes
// byte by byte in data order, so the last write to an overlapped byte
// wins.
func checkMove(r *rand.Rand, dst, src *datatype.Type, d0, s0, n int64) error {
	pd, ps := Compile(dst), Compile(src)
	if pd == nil || ps == nil {
		return nil
	}
	soffs, sbias, sb := moveBuffers(r, src, s0, n)
	doffs, dbias, db := moveBuffers(r, dst, d0, n)
	wantS, wantD := bytes.Clone(sb), bytes.Clone(db)
	for i := range soffs {
		wantD[doffs[i]-dbias] = wantS[soffs[i]-sbias]
	}
	Move(Typed{pd, db, dbias}, d0, Typed{ps, sb, sbias}, s0, n)
	if !bytes.Equal(sb, wantS) {
		return fmt.Errorf("source buffer changed")
	}
	if !bytes.Equal(db, wantD) {
		for i := range db {
			if db[i] != wantD[i] {
				return fmt.Errorf("destination byte %d (buffer offset %d): got %#x, want %#x",
					i, int64(i)+dbias, db[i], wantD[i])
			}
		}
	}
	return nil
}

// moveTypes are the fixed shapes of the oracle: every fixed-width run
// class and widths that take copy, runs that split each other's
// (16 vs 8, 12 vs 8), negative strides, lb < 0 structs, and memtypes
// whose runs overlap.
func moveTypes(t *testing.T) map[string]*datatype.Type {
	must := func(dt *datatype.Type, err error) *datatype.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	types := descendingTypes(t)
	for _, w := range []int64{1, 2, 4, 8, 12, 16, 480} {
		types[fmt.Sprintf("hvector-%d", w)] = must(datatype.Hvector(24, w, 2*w, datatype.Byte))
		types[fmt.Sprintf("hvector-%d-pitch", w)] = must(datatype.Hvector(17, w, 3*w+5, datatype.Byte))
	}
	types["fig6-file"] = must(datatype.Struct([]int64{1, 1, 1}, []int64{0, 16, 64 * 32},
		[]*datatype.Type{datatype.LBMarker, must(datatype.Hvector(64, 16, 32, datatype.Byte)), datatype.UBMarker}))
	types["overlap-up"] = must(datatype.Hvector(9, 1, 12, must(datatype.Contiguous(5, datatype.Int32))))
	types["overlap-same"] = must(datatype.Hvector(6, 8, 0, datatype.Byte))
	types["overlap-4"] = must(datatype.Hvector(11, 1, 2, datatype.Int32))
	types["indexed"] = must(datatype.Indexed([]int64{3, 1, 5, 2}, []int64{0, 4, 7, 15}, datatype.Int32))
	types["contig-resized"] = must(datatype.Resized(must(datatype.Contiguous(3, datatype.Double)), 0, 40))
	return types
}

func TestMoveOracle(t *testing.T) {
	types := moveTypes(t)
	names := make([]string, 0, len(types))
	for name := range types {
		names = append(names, name)
	}
	slices.Sort(names)
	r := rand.New(rand.NewSource(16))
	// Every ordered pair of fixed shapes, through windows that start and
	// end anywhere (splitting runs and elements) and span up to three
	// instances of the smaller type.
	for _, dn := range names {
		for _, sn := range names {
			dst, src := types[dn], types[sn]
			span := 3 * min(dst.Size(), src.Size())
			for trial := 0; trial < 6; trial++ {
				n := 1 + r.Int63n(span)
				if trial == 0 {
					n = span
				}
				d0, s0 := r.Int63n(2*dst.Size()), r.Int63n(2*src.Size())
				if trial < 2 {
					d0, s0 = 0, 0
				}
				if err := checkMove(r, dst, src, d0, s0, n); err != nil {
					t.Fatalf("%s <- %s, d0 %d s0 %d n %d: %v", dn, sn, d0, s0, n, err)
				}
			}
		}
	}
	// Random program pairs, with the descending wrappers of each.
	for i := 0; i < 300; i++ {
		dst := datatype.RandomFiletype(r, 2+r.Intn(3))
		src := datatype.RandomMemtype(r, 2+r.Intn(3))
		pairs := [][2]*datatype.Type{{dst, src}}
		if i%4 == 0 {
			for _, dd := range descend(r, dst) {
				pairs = append(pairs, [2]*datatype.Type{dd, src})
			}
			for _, sd := range descend(r, src) {
				pairs = append(pairs, [2]*datatype.Type{dst, sd})
			}
		}
		for _, p := range pairs {
			span := 3 * min(p[0].Size(), p[1].Size())
			n := 1 + r.Int63n(span)
			d0, s0 := r.Int63n(2*p[0].Size()), r.Int63n(2*p[1].Size())
			if err := checkMove(r, p[0], p[1], d0, s0, n); err != nil {
				t.Fatalf("case %d: %v <- %v, d0 %d s0 %d n %d: %v", i, p[0], p[1], d0, s0, n, err)
			}
		}
	}
}

// TestMoveRangeCheck: a group of runs that leaves a buffer panics
// before it moves a byte.
func TestMoveRangeCheck(t *testing.T) {
	dt, err := datatype.Hvector(8, 8, 16, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(dt)
	src := make([]byte, dt.Extent())
	dst := make([]byte, dt.Extent()-1)
	defer func() {
		if recover() == nil {
			t.Error("a destination one byte short did not panic")
		}
		if !bytes.Equal(dst, make([]byte, len(dst))) {
			t.Error("bytes moved before the range check failed")
		}
	}()
	for i := range src {
		src[i] = 0xAB
	}
	Move(Typed{P: p, B: dst}, 0, Typed{P: p, B: src}, 0, dt.Size())
}

// TestMoveZeroAlloc pins that Move allocates nothing, on group runs of
// each width class and on runs that split each other.
func TestMoveZeroAlloc(t *testing.T) {
	types := moveTypes(t)
	for _, pair := range [][2]string{
		{"hvector-8", "hvector-8-pitch"}, {"hvector-16", "fig6-file"}, {"hvector-1", "hvector-2"},
		{"hvector-12", "hvector-8"}, {"hvector-480", "indexed"}, {"hvector-48", "lb-neg-struct"},
	} {
		dst, src := types[pair[0]], types[pair[1]]
		pd, ps := Compile(dst), Compile(src)
		n := 2 * min(dst.Size(), src.Size())
		_, dbias, db := moveBuffers(rand.New(rand.NewSource(1)), dst, 3, n)
		_, sbias, sb := moveBuffers(rand.New(rand.NewSource(2)), src, 5, n)
		if a := testing.AllocsPerRun(20, func() {
			Move(Typed{pd, db, dbias}, 3, Typed{ps, sb, sbias}, 5, n)
		}); a != 0 {
			t.Errorf("%s <- %s: %v allocs per call, want 0", pair[0], pair[1], a)
		}
	}
}

// FuzzMoveVsStaged: Move must leave the destination byte-identical to
// the staged path it replaces — the source range packed into a
// contiguous buffer through its program, then unpacked into the
// destination through the other.  The fuzzed seed picks the two trees
// (and, on some inputs, a descending wrapper of either); the fuzzed
// words pick the two start offsets and the length.
func FuzzMoveVsStaged(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		f.Add(r.Int63(), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)))
	}
	f.Add(int64(0), uint16(0), uint16(0), uint16(0))
	f.Add(int64(-7), uint16(1<<15), uint16(3), uint16(1<<15))
	f.Fuzz(func(t *testing.T, seed int64, w0, w1, w2 uint16) {
		r := rand.New(rand.NewSource(seed))
		dst := datatype.RandomFiletype(r, 2+int(uint16(seed)%3))
		src := datatype.RandomMemtype(r, 2+int(uint16(seed>>8)%3))
		switch seed % 5 {
		case 1:
			if dd := descend(r, dst); len(dd) > 0 {
				dst = dd[r.Intn(len(dd))]
			}
		case 2:
			if sd := descend(r, src); len(sd) > 0 {
				src = sd[r.Intn(len(sd))]
			}
		}
		pd, ps := Compile(dst), Compile(src)
		if pd == nil || ps == nil {
			return
		}
		span := 3 * min(dst.Size(), src.Size())
		n := 1 + int64(w2)%span
		d0, s0 := int64(w0)%(2*dst.Size()), int64(w1)%(2*src.Size())
		_, sbias, sb := moveBuffers(r, src, s0, n)
		_, dbias, db := moveBuffers(r, dst, d0, n)
		staged := bytes.Clone(db)
		c := make([]byte, n)
		ps.CopyRange(c, sb, s0, s0+n, sbias, true)
		pd.CopyRange(c, staged, d0, d0+n, dbias, false)
		Move(Typed{pd, db, dbias}, d0, Typed{ps, sb, sbias}, s0, n)
		if !bytes.Equal(db, staged) {
			t.Fatalf("%v <- %v, d0 %d s0 %d n %d: Move differs from pack+unpack", dst, src, d0, s0, n)
		}
	})
}
