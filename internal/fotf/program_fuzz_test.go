package fotf

import (
	"math/rand"
	"testing"

	"repro/internal/datatype"
)

// FuzzProgramVsWalk is the differential fuzzer of the compiled-program
// layer: a fuzzed seed drives the random tree generator (which emits
// zero-length blocks, LB/UB adjustments via Resized, holes, and deep
// struct nesting), and the fuzzed window words pick a hostile (d0, d1)
// for an extra targeted window check on top of the full battery.  The
// program must pack/unpack byte-identically to the recursive walk, and
// must neither panic nor write a byte the walk would not.  Each input
// also wraps its tree into two descending shapes — a negative-stride
// vector and a struct reaching below the origin (lb < 0) — which the
// generator never emits, and holds them against the ol-list oracle
// through biased windows.
func FuzzProgramVsWalk(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		f.Add(r.Int63(), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)))
	}
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(-1), uint16(1<<15), uint16(1))
	// Small trees, so the descending wrappers stay a handful of runs.
	f.Add(int64(48), uint16(7), uint16(300))
	f.Add(int64(-48), uint16(300), uint16(7))
	f.Fuzz(func(t *testing.T, seed int64, w0, w1 uint16) {
		r := rand.New(rand.NewSource(seed))
		depth := 2 + int(uint16(seed)%3)
		dt := datatype.RandomFiletype(r, depth)
		if err := checkProgramVsWalk(dt, r); err != nil {
			t.Fatalf("type %v: %v", dt, err)
		}
		for _, dd := range descend(r, dt) {
			if err := checkBiasedVsWalk(dd, r); err != nil {
				t.Fatalf("descending type %v: %v", dd, err)
			}
		}
		p := Compile(dt)
		if p == nil {
			return
		}
		// Targeted window from the fuzzed words, spanning instances.
		total := 3 * p.Size()
		d0 := int64(w0) % total
		d1 := d0 + 1 + int64(w1)%(total-d0)
		span := walkSpan(dt, total)
		src := make([]byte, span)
		r.Read(src)
		want := make([]byte, d1-d0)
		got := make([]byte, d1-d0)
		CopyRange(want, src, dt, d0, d1, 0, true)
		p.CopyRange(got, src, d0, d1, 0, true)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("type %v window [%d,%d): byte %d differs: walk %#x, program %#x",
					dt, d0, d1, d0+int64(i), want[i], got[i])
			}
		}
	})
}

// descend wraps dt into the two descending shapes: a vector of 2..5
// copies at a negative stride (just past the extent, or overlapping it),
// and a two-member struct whose first copy sits below the origin.
func descend(r *rand.Rand, dt *datatype.Type) []*datatype.Type {
	ext := max(dt.Extent(), 1)
	var out []*datatype.Type
	if v, err := datatype.Hvector(int64(2+r.Intn(4)), 1, -(ext + r.Int63n(9) - 4), dt); err == nil {
		out = append(out, v)
	}
	if s, err := datatype.Struct([]int64{1, 1}, []int64{-(ext + r.Int63n(16)), 0},
		[]*datatype.Type{dt, dt}); err == nil {
		out = append(out, s)
	}
	return out
}
