package fotf

// The copy kernel shared by the recursive walk (Runs callbacks) and by
// compiled programs (execGroup).  It plays the role of the SX
// gather/scatter operations: one call moves a whole group of evenly
// spaced runs, and the width of the moves is picked from the run length
// on each call, so nothing about it is fixed at compile time.

// copyGroup moves n runs of bl bytes between the contiguous buffer c
// (run i at c[i*bl]) and the typed buffer b (run i at b[off+i*stride]),
// in run order, so overlapping runs (0 < stride < bl) unpack exactly as
// a run-at-a-time copy would.  pack=true copies b→c.
//
// One range check covers the whole group: c is re-sliced to the n*bl
// packed bytes and b to the span the runs touch — rebased at the lowest
// run when the stride is negative — so bad input panics before any byte
// moves.  Runs of 1, 2, 4, 8 and 16 bytes move as one fixed-width array
// copy each, runs of any other width through copy.
func copyGroup(c, b []byte, off, bl, stride, n int64, pack bool) {
	if n == 1 || stride == bl {
		// One run, or runs that abut: one copy.
		total := bl * n
		if pack {
			copy(c[:total], b[off:off+total])
		} else {
			copy(b[off:off+total], c[:total])
		}
		return
	}
	c = c[:n*bl]
	if stride < 0 {
		lo := off + (n-1)*stride
		b, off = b[lo:off+bl], off-lo
	} else {
		b, off = b[off:off+(n-1)*stride+bl], 0
	}
	if pack {
		gather(c, b, off, bl, stride)
	} else {
		scatter(c, b, off, bl, stride)
	}
}

// gather packs the runs of a range-checked group (see copyGroup) from b,
// run i at o+i*stride, into c.  Each width class has its own loop, so
// the move width is a constant inside it.
func gather(c, b []byte, o, bl, stride int64) {
	switch bl {
	case 1:
		for i := range c {
			c[i] = b[o]
			o += stride
		}
	case 2:
		for ; len(c) >= 2; c, o = c[2:], o+stride {
			*(*[2]byte)(c) = *at2(b, o)
		}
	case 4:
		for ; len(c) >= 4; c, o = c[4:], o+stride {
			*(*[4]byte)(c) = *at4(b, o)
		}
	case 8:
		for ; len(c) >= 8; c, o = c[8:], o+stride {
			*(*[8]byte)(c) = *at8(b, o)
		}
	case 16:
		for ; len(c) >= 16; c, o = c[16:], o+stride {
			*(*[16]byte)(c) = *at16(b, o)
		}
	default:
		for ; len(c) > 0; c, o = c[bl:], o+stride {
			copy(c[:bl], b[o:])
		}
	}
}

// scatter is the unpack twin of gather.
func scatter(c, b []byte, o, bl, stride int64) {
	switch bl {
	case 1:
		for i := range c {
			b[o] = c[i]
			o += stride
		}
	case 2:
		for ; len(c) >= 2; c, o = c[2:], o+stride {
			*at2(b, o) = *(*[2]byte)(c)
		}
	case 4:
		for ; len(c) >= 4; c, o = c[4:], o+stride {
			*at4(b, o) = *(*[4]byte)(c)
		}
	case 8:
		for ; len(c) >= 8; c, o = c[8:], o+stride {
			*at8(b, o) = *(*[8]byte)(c)
		}
	case 16:
		for ; len(c) >= 16; c, o = c[16:], o+stride {
			*at16(b, o) = *(*[16]byte)(c)
		}
	default:
		for ; len(c) > 0; c, o = c[bl:], o+stride {
			copy(b[o:o+bl], c)
		}
	}
}

// The fixed-width views of b at offset o.  The full slice expression
// gives the result a constant length and capacity, so the conversion
// needs no length check of its own.
func at2(b []byte, o int64) *[2]byte   { return (*[2]byte)(b[o : o+2 : o+2]) }
func at4(b []byte, o int64) *[4]byte   { return (*[4]byte)(b[o : o+4 : o+4]) }
func at8(b []byte, o int64) *[8]byte   { return (*[8]byte)(b[o : o+8 : o+8]) }
func at16(b []byte, o int64) *[16]byte { return (*[16]byte)(b[o : o+16 : o+16]) }
