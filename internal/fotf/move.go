package fotf

// Typed is a buffer laid out by a compiled program: the run at buffer
// offset o of the program's tiled type lies at B[o-Bias], as in
// Program.CopyRange.
type Typed struct {
	P    *Program
	B    []byte
	Bias int64
}

// Move copies n data bytes from src to dst in one pass: data bytes
// [s0, s0+n) of src's tiled type land on data bytes [d0, d0+n) of
// dst's.  The result is byte for byte that of packing the range of src
// into a contiguous buffer and unpacking it into dst (two CopyRange
// calls), without the buffer or the second pass over the data.
//
// Both programs are walked together.  Where the two current pieces are
// whole runs of equal length, the runs that both groups still hold move
// as one two-stride group (moveRuns: one range check per group,
// fixed-width moves for 1/2/4/8/16 B runs); a run that spans several
// runs of the other side moves as that many abutting runs.  Pieces
// whose phases do not line up move the shorter of the two with copy.
// Runs move in data order, so where runs of dst overlap, the last data
// byte written wins, as in the staged unpack.
func Move(dst Typed, d0 int64, src Typed, s0, n int64) {
	if n <= 0 {
		return
	}
	var d, s moveSide
	d.seek(dst, d0)
	s.seek(src, s0)
	for n > 0 {
		w := min(s.g.blocklen-s.r, d.g.blocklen-d.r, n)
		ks, ss := s.runsOf(w)
		kd, ds := d.runsOf(w)
		k := min(ks, kd, n/w)
		moveRuns(d.b, d.pos(), ds, s.b, s.pos(), ss, w, k)
		s.advance(w, k)
		d.advance(w, k)
		n -= k * w
	}
}

// moveSide is Move's position in the runs of one tiled program: r bytes
// into run i of group g (index gi) of the instance whose origin lies at
// b[org].
type moveSide struct {
	p    *Program
	b    []byte
	org  int64
	gi   int
	g    *progGroup
	i, r int64
}

// seek positions the side at data byte d of t.
func (m *moveSide) seek(t Typed, d int64) {
	p := t.P
	k := d / p.size
	lo := d - k*p.size
	m.p, m.b, m.org = p, t.B, k*p.ext-t.Bias
	m.gi = p.findGroup(lo)
	m.g = &p.groups[m.gi]
	off := lo - p.cum[m.gi]
	m.i = off / m.g.blocklen
	m.r = off - m.i*m.g.blocklen
}

// pos is the buffer index of the side's next byte.
func (m *moveSide) pos() int64 { return m.org + m.g.base + m.i*m.g.stride + m.r }

// runsOf reports how many runs of w bytes the side can move as one group
// from its position, and their stride: the rest of its group when it
// stands at the start of a run of exactly w bytes, otherwise the abutting
// w-byte pieces of its current run.  w never exceeds the rest of the
// current run, so the count is at least 1.
func (m *moveSide) runsOf(w int64) (k, stride int64) {
	if m.r == 0 && m.g.blocklen == w {
		return m.g.count - m.i, m.g.stride
	}
	return (m.g.blocklen - m.r) / w, w
}

// advance moves the side past the k runs of w bytes that runsOf offered,
// stepping to the next group, and past the last group to the next
// instance.
func (m *moveSide) advance(w, k int64) {
	if m.r == 0 && m.g.blocklen == w {
		m.i += k
	} else if m.r += k * w; m.r == m.g.blocklen {
		m.r = 0
		m.i++
	}
	if m.i < m.g.count {
		return
	}
	m.i = 0
	if m.gi++; m.gi == len(m.p.groups) {
		m.gi = 0
		m.org += m.p.ext
	}
	m.g = &m.p.groups[m.gi]
}
