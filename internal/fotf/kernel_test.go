package fotf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datatype"
)

// The kernel oracle: copyGroup is the one copy routine behind both the
// walk and the compiled program, so the program-vs-walk differential
// cannot see a bug in it.  These tests hold it against a byte-at-a-time
// reference instead, over every width class, ascending, descending,
// overlapping and zero strides, with sentinel bytes around both buffers.

// refCopyGroup is the reference semantics of copyGroup: runs in order,
// bytes in order, one at a time.
func refCopyGroup(c, b []byte, off, bl, stride, n int64, pack bool) {
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < bl; j++ {
			if pack {
				c[i*bl+j] = b[off+i*stride+j]
			} else {
				b[off+i*stride+j] = c[i*bl+j]
			}
		}
	}
}

// kernelCase builds the buffers of one copyGroup call: a typed buffer
// holding the group's span between guard bytes on both sides, and a
// contiguous buffer of n*bl bytes followed by guard bytes.  It returns
// the typed buffer, the contiguous buffer and the offset of run 0.
func kernelCase(r *rand.Rand, bl, stride, n int64) (b, c []byte, off int64) {
	const guard = 19
	lo, hi := int64(0), (n-1)*stride+bl
	if stride < 0 {
		lo, hi = (n-1)*stride, bl
	}
	b = make([]byte, guard+hi-lo+guard)
	c = make([]byte, n*bl+guard)
	r.Read(b)
	r.Read(c)
	return b, c, guard - lo
}

func TestCopyGroupOracle(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for w := int64(1); w <= 80; w++ {
		for _, stride := range []int64{-3 * w, -w, w / 2, w, w + 1, 2 * w, 3*w + 5} {
			for n := int64(1); n <= 9; n++ {
				for _, pack := range []bool{true, false} {
					b, c, off := kernelCase(r, w, stride, n)
					wantB, wantC := bytes.Clone(b), bytes.Clone(c)
					refCopyGroup(wantC, wantB, off, w, stride, n, pack)
					copyGroup(c, b, off, w, stride, n, pack)
					if !bytes.Equal(b, wantB) || !bytes.Equal(c, wantC) {
						t.Fatalf("width %d stride %d n %d pack %v: typed equal %v, contiguous equal %v",
							w, stride, n, pack, bytes.Equal(b, wantB), bytes.Equal(c, wantC))
					}
				}
			}
		}
	}
}

// TestCopyGroupRangeCheck pins the up-front range check: a group whose
// span leaves the typed buffer panics before it moves a byte.
func TestCopyGroupRangeCheck(t *testing.T) {
	for _, stride := range []int64{32, -32} {
		b := make([]byte, 100)
		c := bytes.Repeat([]byte{0xAB}, 64)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stride %d: group past the buffer end did not panic", stride)
				}
			}()
			// Four 16-byte runs span 3*32+16 = 112 bytes > 100.
			off := int64(0)
			if stride < 0 {
				off = 96
			}
			copyGroup(c, b, off, 16, stride, 4, false)
		}()
		if !bytes.Equal(b, make([]byte, 100)) {
			t.Errorf("stride %d: bytes moved before the range check failed", stride)
		}
	}
}

// TestCopyGroupZeroAlloc pins that every width class of the kernel runs
// without allocating.
func TestCopyGroupZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, w := range []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 480} {
		for _, stride := range []int64{2 * w, -2 * w} {
			b, c, off := kernelCase(r, w, stride, 64)
			for _, pack := range []bool{true, false} {
				if a := testing.AllocsPerRun(20, func() { copyGroup(c, b, off, w, stride, 64, pack) }); a != 0 {
					t.Errorf("width %d stride %d pack %v: %v allocs per call, want 0", w, stride, pack, a)
				}
			}
		}
	}
}

// descendingTypes are filetypes whose runs go down in the buffer: a
// negative-stride vector compiles to one group with a negative stride,
// and a struct with a negative displacement puts data below the origin
// (lb < 0), so it can only be addressed with a bias.
func descendingTypes(t testing.TB) map[string]*datatype.Type {
	must := func(dt *datatype.Type, err error) *datatype.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	pair := must(datatype.Vector(2, 1, 3, datatype.Int32))
	return map[string]*datatype.Type{
		"hvector-48":      must(datatype.Hvector(64, 1, -48, datatype.Double)),
		"hvector-16x2":    must(datatype.Hvector(33, 2, -40, datatype.Int32)),
		"hvector-overlap": must(datatype.Hvector(9, 1, -12, must(datatype.Contiguous(5, datatype.Int32)))),
		"hvector-pair":    must(datatype.Hvector(17, 1, -29, pair)),
		"lb-neg-struct": must(datatype.Struct([]int64{2, 1, 3}, []int64{-40, 8, -17},
			[]*datatype.Type{datatype.Double, datatype.Int32, datatype.Byte})),
		"lb-neg-nested": must(datatype.Hvector(5, 1, 64, must(datatype.Struct([]int64{1, 1}, []int64{-24, 0},
			[]*datatype.Type{must(datatype.Hvector(3, 1, -8, datatype.Int32)), datatype.Double})))),
	}
}

// checkBiasedVsWalk is the differential battery for types that place
// data below the instance origin: the typed buffer is addressed with a
// bias equal to the lowest offset any tiled instance touches, and both
// the walk and the program are held against the ol-list oracle byte by
// byte, for windowed pack through a cursor and windowed unpack.
func checkBiasedVsWalk(dt *datatype.Type, r *rand.Rand) error {
	p := Compile(dt)
	if p == nil {
		if dt.Blocks() > maxProgramBlocks {
			return nil
		}
		return fmt.Errorf("Compile declined a compilable type (blocks %d)", dt.Blocks())
	}
	total := int64(1+r.Intn(3)) * dt.Size()
	flat := flatOffsets(dt, total)
	lo, hi := flat[0], flat[0]
	for _, o := range flat {
		lo, hi = min(lo, o), max(hi, o)
	}
	bias := lo - r.Int63n(8)
	span := hi + 1 - bias + r.Int63n(8)
	src := make([]byte, span)
	r.Read(src)
	want := make([]byte, total)
	for d, o := range flat {
		want[d] = src[o-bias]
	}
	walk := bytes.Repeat([]byte{0xDD}, int(total))
	prog := bytes.Repeat([]byte{0xDD}, int(total))
	var cur Cursor
	cur.Reset(p)
	for d := int64(0); d < total; {
		w := min(1+r.Int63n(1+total/4), total-d)
		CopyRange(walk[d:d+w], src, dt, d, d+w, bias, true)
		cur.CopyRange(prog[d:d+w], src, d, d+w, bias, true)
		d += w
	}
	if !bytes.Equal(walk, want) {
		return fmt.Errorf("walk pack differs from the oracle (bias %d)", bias)
	}
	if !bytes.Equal(prog, want) {
		return fmt.Errorf("program pack differs from the oracle (bias %d)", bias)
	}

	// Unpack into sentinel buffers: holes must stay untouched.
	data := make([]byte, total)
	r.Read(data)
	wantB := bytes.Repeat([]byte{0x11}, int(span))
	for d, o := range flat {
		wantB[o-bias] = data[d]
	}
	bW := bytes.Repeat([]byte{0x11}, int(span))
	bP := bytes.Repeat([]byte{0x11}, int(span))
	cur.Reset(p)
	for d := int64(0); d < total; {
		w := min(1+r.Int63n(1+total/3), total-d)
		CopyRange(data[d:d+w], bW, dt, d, d+w, bias, false)
		cur.CopyRange(data[d:d+w], bP, d, d+w, bias, false)
		d += w
	}
	if !bytes.Equal(bW, wantB) {
		return fmt.Errorf("walk unpack differs from the oracle (bias %d)", bias)
	}
	if !bytes.Equal(bP, wantB) {
		return fmt.Errorf("program unpack differs from the oracle (bias %d)", bias)
	}
	return nil
}

// TestProgramDescendingShapes runs the biased battery over the
// descending shapes, and pins that a negative-stride vector stays one
// compiled group.
func TestProgramDescendingShapes(t *testing.T) {
	for name, dt := range descendingTypes(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				if err := checkBiasedVsWalk(dt, rand.New(rand.NewSource(seed))); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
	if p := Compile(descendingTypes(t)["hvector-48"]); p == nil || p.Groups() != 1 || p.groups[0].stride != -48 {
		t.Error("Hvector(64, 1, -48, Double) must compile to one group of stride -48")
	}
}
