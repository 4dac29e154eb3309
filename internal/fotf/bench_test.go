package fotf

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datatype"
	"repro/internal/flatten"
)

// Micro-benchmarks for the flattening-on-the-fly primitives, paired with
// their list-based counterparts where one exists.

func benchType(b *testing.B, blocklen int64) *datatype.Type {
	b.Helper()
	count := int64(1<<20) / blocklen
	dt, err := datatype.Hvector(count, blocklen, 2*blocklen, datatype.Byte)
	if err != nil {
		b.Fatal(err)
	}
	return dt
}

func BenchmarkPack(b *testing.B) {
	for _, blocklen := range []int64{8, 64, 4096} {
		dt := benchType(b, blocklen)
		src := make([]byte, dt.Extent())
		dst := make([]byte, dt.Size())
		b.Run(fmt.Sprintf("Sblock=%d", blocklen), func(b *testing.B) {
			b.SetBytes(dt.Size())
			for i := 0; i < b.N; i++ {
				PackCount(dst, src, 1, dt, 0)
			}
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	for _, blocklen := range []int64{8, 64, 4096} {
		dt := benchType(b, blocklen)
		src := make([]byte, dt.Size())
		dst := make([]byte, dt.Extent())
		b.Run(fmt.Sprintf("Sblock=%d", blocklen), func(b *testing.B) {
			b.SetBytes(dt.Size())
			for i := 0; i < b.N; i++ {
				UnpackCount(dst, src, 1, dt, 0)
			}
		})
	}
}

func BenchmarkPackWithSkip(b *testing.B) {
	// Skip cost must be independent of the skip magnitude.
	dt := benchType(b, 8)
	src := make([]byte, dt.Extent())
	dst := make([]byte, 4096)
	for _, skip := range []int64{0, dt.Size() / 2, dt.Size() - 8192} {
		b.Run(fmt.Sprintf("skip=%d", skip), func(b *testing.B) {
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				PackCount(dst, src, 1, dt, skip)
			}
		})
	}
}

func BenchmarkStartPos(b *testing.B) {
	dt := benchType(b, 8)
	offs := make([]int64, 1024)
	r := rand.New(rand.NewSource(7))
	for i := range offs {
		offs[i] = r.Int63n(dt.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StartPos(dt, offs[i%len(offs)])
	}
}

func BenchmarkBufToData(b *testing.B) {
	dt := benchType(b, 8)
	offs := make([]int64, 1024)
	r := rand.New(rand.NewSource(9))
	for i := range offs {
		offs[i] = r.Int63n(dt.Extent())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BufToData(dt, offs[i%len(offs)])
	}
}

func BenchmarkTypeSizeExtentPair(b *testing.B) {
	dt := benchType(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext := TypeExtent(dt, int64(i%4096), 8192)
		TypeSize(dt, int64(i%4096), ext)
	}
}

// BenchmarkPackProgram pairs the recursive walk against the compiled
// copy program on the windowed pack pattern of the collective hot path,
// over a shape whose blocks the walk cannot collapse (two-run blocks at
// a seamless pitch) — benchstat compares the program/walk sub-benchmarks
// in CI.
func BenchmarkPackProgram(b *testing.B) {
	twoRun, err := datatype.Vector(2, 1, 2, datatype.Double)
	if err != nil {
		b.Fatal(err)
	}
	dt, err := datatype.Hvector((1<<20)/twoRun.Size(), 1, 32, twoRun)
	if err != nil {
		b.Fatal(err)
	}
	prog := Compile(dt)
	if prog == nil {
		b.Fatal("Compile declined")
	}
	total := dt.Size()
	src := make([]byte, dt.TrueUB())
	dst := make([]byte, total)
	const win = 64 << 10
	b.Run("walk", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for d0 := int64(0); d0 < total; d0 += win {
				d1 := min(d0+win, total)
				CopyRange(dst[d0:d1], src, dt, d0, d1, 0, true)
			}
		}
	})
	b.Run("program", func(b *testing.B) {
		b.SetBytes(total)
		var cur Cursor
		for i := 0; i < b.N; i++ {
			cur.Reset(prog)
			for d0 := int64(0); d0 < total; d0 += win {
				d1 := min(d0+win, total)
				cur.CopyRange(dst[d0:d1], src, d0, d1, 0, true)
			}
		}
	})
}

// BenchmarkCopyGroup times the shared copy kernel on one group of
// evenly spaced runs per call, for each width class at a stride of twice
// the width over 1 MiB of data, and for the Fig. 6 shape (16384 runs of
// 16 B at stride 32).  The copy sub-benchmarks move the same bytes with
// one memmove: the floor the pack and unpack kernels are measured
// against.
func BenchmarkCopyGroup(b *testing.B) {
	type shape struct {
		name          string
		bl, stride, n int64
	}
	var shapes []shape
	for _, w := range []int64{1, 2, 4, 8, 12, 16, 24, 32, 64, 480} {
		shapes = append(shapes, shape{fmt.Sprintf("w=%d", w), w, 2 * w, (1 << 20) / w})
	}
	shapes = append(shapes, shape{"fig6", 16, 32, 16384})
	for _, sh := range shapes {
		typed := make([]byte, (sh.n-1)*sh.stride+sh.bl)
		packed := make([]byte, sh.n*sh.bl)
		b.Run(sh.name+"/pack", func(b *testing.B) {
			b.SetBytes(int64(len(packed)))
			for i := 0; i < b.N; i++ {
				copyGroup(packed, typed, 0, sh.bl, sh.stride, sh.n, true)
			}
		})
		b.Run(sh.name+"/unpack", func(b *testing.B) {
			b.SetBytes(int64(len(packed)))
			for i := 0; i < b.N; i++ {
				copyGroup(packed, typed, 0, sh.bl, sh.stride, sh.n, false)
			}
		})
		b.Run(sh.name+"/copy", func(b *testing.B) {
			b.SetBytes(int64(len(packed)))
			for i := 0; i < b.N; i++ {
				copy(packed, typed)
			}
		})
	}
}

// BenchmarkDeepTree checks that navigation stays fast on deep trees.
func BenchmarkDeepTree(b *testing.B) {
	dt := datatype.Double
	var err error
	for d := 0; d < 8; d++ {
		if dt, err = datatype.Vector(4, 2, 3, dt); err != nil {
			b.Fatal(err)
		}
	}
	size := dt.Size()
	b.Run("StartPos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			StartPos(dt, int64(i)%size)
		}
	})
	b.Run("list-based-reference", func(b *testing.B) {
		v := flatten.NewView(0, dt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.DataToFile(int64(i) % size)
		}
	})
}

// BenchmarkMove times the one-pass typed-to-typed move against the
// staged path it replaces — the source packed into a contiguous buffer
// through its program, then unpacked into the destination — and against
// one memmove of the same bytes.  The source is the paper's nc memtype
// (runs at twice their width), the destination the vector fileview of
// rank 1 of two; widths 8, 16 and 480 B over 1 MiB of data, plus the
// fig5 (16384 runs of 8 B) and fig6 (16384 runs of 16 B) shapes.
func BenchmarkMove(b *testing.B) {
	type shape struct {
		name  string
		bl, n int64
	}
	var shapes []shape
	for _, w := range []int64{8, 16, 480} {
		shapes = append(shapes, shape{fmt.Sprintf("w=%d", w), w, (1 << 20) / w})
	}
	shapes = append(shapes, shape{"fig5", 8, 16384}, shape{"fig6", 16, 16384})
	for _, sh := range shapes {
		mem, err := datatype.Hvector(sh.n, sh.bl, 2*sh.bl, datatype.Byte)
		if err != nil {
			b.Fatal(err)
		}
		vec, err := datatype.Hvector(sh.n, sh.bl, 2*sh.bl, datatype.Byte)
		if err != nil {
			b.Fatal(err)
		}
		file, err := datatype.Struct([]int64{1, 1, 1}, []int64{0, sh.bl, 2 * sh.n * sh.bl},
			[]*datatype.Type{datatype.LBMarker, vec, datatype.UBMarker})
		if err != nil {
			b.Fatal(err)
		}
		pm, pf := Compile(mem), Compile(file)
		if pm == nil || pf == nil {
			b.Fatal("Compile declined")
		}
		total := mem.Size()
		user := make([]byte, mem.Extent())
		win := make([]byte, file.Extent())
		packed := make([]byte, total)
		b.Run(sh.name+"/move", func(b *testing.B) {
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				Move(Typed{P: pf, B: win}, 0, Typed{P: pm, B: user}, 0, total)
			}
		})
		b.Run(sh.name+"/staged", func(b *testing.B) {
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				pm.CopyRange(packed, user, 0, total, 0, true)
				pf.CopyRange(packed, win, 0, total, 0, false)
			}
		})
		b.Run(sh.name+"/copy", func(b *testing.B) {
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				copy(packed, user)
			}
		})
	}
}
