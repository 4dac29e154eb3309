package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datatype"
)

// refNonOverlapping is the sort-based form of nonOverlapping: every
// segment of one instance, sorted by offset, then the same checks.
func refNonOverlapping(t *datatype.Type) bool {
	var segs []seg
	t.Walk(func(off, length int64) { segs = append(segs, seg{off, off + length}) })
	sort.Slice(segs, func(i, j int) bool { return segs[i].off < segs[j].off })
	var prevEnd int64 = -1 << 62
	for _, s := range segs {
		if s.off < prevEnd {
			return false
		}
		prevEnd = s.end
	}
	return prevEnd <= t.Extent() && (len(segs) == 0 || segs[0].off >= 0)
}

// mergetypeOf builds the mergetype of the given filetypes the way
// buildMergeview does: one struct member per rank at displacement 0,
// resized to ext when the struct's own extent differs.
func mergetypeOf(t *testing.T, ext int64, fts ...*datatype.Type) *datatype.Type {
	t.Helper()
	ones, zeros := make([]int64, len(fts)), make([]int64, len(fts))
	for i := range ones {
		ones[i] = 1
	}
	m, err := datatype.Struct(ones, zeros, fts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Extent() != ext {
		if m, err = datatype.Resized(m, 0, ext); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestNonOverlapping(t *testing.T) {
	must := func(dt *datatype.Type, err error) *datatype.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	// stripe is rank r's filetype of a P-way partition into bl-byte
	// blocks: n blocks at stride P*bl, starting at r*bl.
	stripe := func(r, p, n, bl int64) *datatype.Type {
		v := must(datatype.Hvector(n, bl, p*bl, datatype.Byte))
		return must(datatype.Resized(must(datatype.Struct([]int64{1}, []int64{r * bl}, []*datatype.Type{v})), 0, n*p*bl))
	}
	type tc struct {
		name string
		m    *datatype.Type
		want bool
	}
	var cases []tc
	for p := int64(1); p <= 4; p++ {
		var fts []*datatype.Type
		for r := int64(0); r < p; r++ {
			fts = append(fts, stripe(r, p, 64, 16))
		}
		cases = append(cases, tc{"partition-P" + string(rune('0'+p)), mergetypeOf(t, 64*p*16, fts...), true})
		if p > 1 {
			// Rank p-1 takes rank 0's blocks as well: every view overlaps.
			fts[p-1] = fts[0]
			cases = append(cases, tc{"duplicate-P" + string(rune('0'+p)), mergetypeOf(t, 64*p*16, fts...), false})
			// Rank 1's blocks shifted by one byte overlap rank 0's and 2's.
			fts[p-1] = stripe(p-1, p, 64, 16)
			fts[1] = must(datatype.Resized(must(datatype.Struct([]int64{1}, []int64{1},
				[]*datatype.Type{stripe(1, p, 64, 16)})), 0, 64*p*16))
			cases = append(cases, tc{"shifted-P" + string(rune('0'+p)), mergetypeOf(t, 64*p*16, fts...), false})
		}
	}
	// Each view fits the extent, but the merged data reaches past it:
	// instance k+1 overlaps the tail of instance k.
	a := stripe(0, 2, 4, 16)
	b := stripe(1, 2, 4, 16)
	cases = append(cases, tc{"tiling-overlap", mergetypeOf(t, 4*2*16-8, a, b), false})
	cases = append(cases, tc{"tiling-exact", mergetypeOf(t, 4*2*16, a, b), true})
	// A view reaching below the origin overlaps the previous instance.
	neg := must(datatype.Struct([]int64{1}, []int64{-8}, []*datatype.Type{datatype.Double}))
	cases = append(cases, tc{"below-origin", mergetypeOf(t, 128, a, neg), false})
	cases = append(cases, tc{"empty", mergetypeOf(t, 64, must(datatype.Contiguous(0, datatype.Byte))), true})

	for _, c := range cases {
		if got := nonOverlapping(c.m); got != c.want {
			t.Errorf("%s: nonOverlapping = %v, want %v", c.name, got, c.want)
		}
		if ref := refNonOverlapping(c.m); ref != c.want {
			t.Errorf("%s: sort-based reference = %v, want %v", c.name, ref, c.want)
		}
	}

	// Random views of P = 1..4 ranks against the sort-based reference.
	// Rank j's filetype sits in slot perm[j] of p slots of width w, so
	// the walk's runs arrive out of order; a repeated slot or a slot
	// narrower than a filetype's extent makes views overlap.
	r := rand.New(rand.NewSource(5))
	var disjoint int
	for i := 0; i < 400; i++ {
		p := 1 + r.Intn(4)
		fts := make([]*datatype.Type, p)
		w := int64(0)
		for j := range fts {
			fts[j] = datatype.RandomFiletype(r, 2)
			w = max(w, fts[j].Extent())
		}
		w -= r.Int63n(3)
		perm := r.Perm(p)
		if p > 1 && r.Intn(4) == 0 {
			perm[0] = perm[1]
		}
		for j, ft := range fts {
			fts[j] = must(datatype.Struct([]int64{1}, []int64{int64(perm[j]) * w}, []*datatype.Type{ft}))
		}
		m := mergetypeOf(t, int64(p)*w, fts...)
		got, want := nonOverlapping(m), refNonOverlapping(m)
		if got != want {
			t.Fatalf("random view %d (P=%d): nonOverlapping = %v, reference %v", i, p, got, want)
		}
		if got {
			disjoint++
		}
	}
	if disjoint < 100 || disjoint > 300 {
		t.Errorf("random views: %d of 400 disjoint; the generator should mix both outcomes", disjoint)
	}
}
