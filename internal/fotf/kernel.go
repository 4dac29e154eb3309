package fotf

// The copy kernel shared by the recursive walk (Runs callbacks), by
// compiled programs (execGroup) and by Move.  It plays the role of the
// SX gather/scatter operations: one call moves a whole group of evenly
// spaced runs, and the width of the moves is picked from the run length
// on each call, so nothing about it is fixed at compile time.

// copyGroup moves n runs of bl bytes between the contiguous buffer c
// (run i at c[i*bl]) and the typed buffer b (run i at b[off+i*stride]),
// in run order, so overlapping runs (0 < stride < bl) unpack exactly as
// a run-at-a-time copy would.  pack=true copies b→c.  The contiguous
// side is a group whose stride is its run length.
func copyGroup(c, b []byte, off, bl, stride, n int64, pack bool) {
	if pack {
		moveRuns(c, 0, bl, b, off, stride, bl, n)
	} else {
		moveRuns(b, off, stride, c, 0, bl, bl, n)
	}
}

// moveRuns moves n runs of bl bytes from s (run i at s[so+i*ss]) to d
// (run i at d[do+i*ds]), in run order, so where runs of d overlap the
// last run's bytes stay.
//
// One range check per buffer covers the whole group: each buffer is
// re-sliced to the span its runs touch — rebased at the lowest run when
// the stride is negative — so bad input panics before any byte moves.
// Runs of 1, 2, 4, 8 and 16 bytes move as one fixed-width array copy
// each, runs of any other width through copy.
func moveRuns(d []byte, do, ds int64, s []byte, so, ss, bl, n int64) {
	if n == 1 || (ds == bl && ss == bl) {
		// One run, or runs that abut on both sides: one copy.
		t := bl * n
		copy(d[do:do+t], s[so:so+t])
		return
	}
	d, do = groupSpan(d, do, ds, bl, n)
	s, so = groupSpan(s, so, ss, bl, n)
	switch bl {
	case 1:
		for ; n > 0; n, do, so = n-1, do+ds, so+ss {
			d[do] = s[so]
		}
	case 2:
		for ; n > 0; n, do, so = n-1, do+ds, so+ss {
			*at2(d, do) = *at2(s, so)
		}
	case 4:
		for ; n > 0; n, do, so = n-1, do+ds, so+ss {
			*at4(d, do) = *at4(s, so)
		}
	case 8:
		for ; n > 0; n, do, so = n-1, do+ds, so+ss {
			*at8(d, do) = *at8(s, so)
		}
	case 16:
		for ; n > 0; n, do, so = n-1, do+ds, so+ss {
			*at16(d, do) = *at16(s, so)
		}
	default:
		for ; n > 0; n, do, so = n-1, do+ds, so+ss {
			copy(d[do:do+bl], s[so:so+bl])
		}
	}
}

// groupSpan re-slices b to the bytes that n runs of bl bytes, run i at
// b[off+i*stride], touch, and returns the offset of run 0 in the result.
func groupSpan(b []byte, off, stride, bl, n int64) ([]byte, int64) {
	if stride < 0 {
		lo := off + (n-1)*stride
		return b[lo : off+bl], off - lo
	}
	return b[off : off+(n-1)*stride+bl], 0
}

// The fixed-width views of b at offset o.  The full slice expression
// gives the result a constant length and capacity, so the conversion
// needs no length check of its own.
func at2(b []byte, o int64) *[2]byte   { return (*[2]byte)(b[o : o+2 : o+2]) }
func at4(b []byte, o int64) *[4]byte   { return (*[4]byte)(b[o : o+4 : o+4]) }
func at8(b []byte, o int64) *[8]byte   { return (*[8]byte)(b[o : o+8 : o+8]) }
func at16(b []byte, o int64) *[16]byte { return (*[16]byte)(b[o : o+16 : o+16]) }
