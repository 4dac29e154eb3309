package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		buf = appendFrame(buf, i, 100+i, p)
	}
	rest := buf
	for i, p := range payloads {
		src, tag, payload, r, err := DecodeFrame(rest, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if src != i || tag != 100+i || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: got (src=%d tag=%d len=%d)", i, src, tag, len(payload))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	full := appendFrame(nil, 1, 2, []byte("payload"))
	cases := []struct {
		name string
		b    []byte
		max  int
	}{
		{"empty", nil, 0},
		{"truncated header", full[:FrameHeaderSize-1], 0},
		{"truncated payload", full[:len(full)-3], 0},
		{"oversized", appendFrame(nil, 0, 0, make([]byte, 64)), 16},
		{"garbage length", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, 1 << 20},
	}
	for _, tc := range cases {
		if _, _, _, _, err := DecodeFrame(tc.b, tc.max); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", tc.name, err)
		}
	}
}

func TestReadFrame(t *testing.T) {
	full := appendFrame(nil, 3, 7, []byte("wire payload"))
	src, tag, payload, err := readFrame(bytes.NewReader(full), 0)
	if err != nil || src != 3 || tag != 7 || string(payload) != "wire payload" {
		t.Fatalf("got (%d, %d, %q, %v)", src, tag, payload, err)
	}

	// EOF at a frame boundary is a link event, not a frame error.
	if _, _, _, err := readFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	// A payload cut short is a frame error.
	if _, _, _, err := readFrame(bytes.NewReader(full[:len(full)-1]), 0); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated stream: err = %v, want ErrFrame", err)
	}
	// An oversized length errors before allocating.
	huge := appendFrame(nil, 0, 0, nil)
	huge[3] = 0x7f // claim ~2 GiB payload
	if _, _, _, err := readFrame(bytes.NewReader(huge), 1<<20); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized claim: err = %v, want ErrFrame", err)
	}
}

func TestFrameHeaderHalves(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	putFrameHeader(hdr[:], 5, 1<<20+2, 999)
	src, tag, n, err := parseFrameHeader(hdr[:], DefaultMaxFrame)
	if err != nil || src != 5 || tag != 1<<20+2 || n != 999 {
		t.Fatalf("got (%d, %d, %d, %v)", src, tag, n, err)
	}
	if _, _, _, err := parseFrameHeader(hdr[:], 100); !errors.Is(err, ErrFrame) {
		t.Fatalf("limit: err = %v, want ErrFrame", err)
	}
}

func TestBookRoundTrip(t *testing.T) {
	addrs := []string{"127.0.0.1:9000", "127.0.0.1:9001", "", "[::1]:80"}
	got, err := decodeBook(encodeBook(addrs), len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("entry %d: %q != %q", i, got[i], addrs[i])
		}
	}
	if _, err := decodeBook(encodeBook(addrs), 2); !errors.Is(err, ErrFrame) {
		t.Fatalf("size mismatch: err = %v, want ErrFrame", err)
	}
	if _, err := decodeBook([]byte{4, 0xff}, 4); !errors.Is(err, ErrFrame) {
		t.Fatalf("garbage: err = %v, want ErrFrame", err)
	}
}

// FuzzFrameDecode drives the two frame decoders with arbitrary bytes:
// truncated, oversized, or garbage input must error (wrapping ErrFrame
// where a frame exists) — never panic and never allocate beyond the
// frame limit.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, 0, 0, nil))
	f.Add(appendFrame(nil, 3, 1<<20+1, []byte("seed payload")))
	f.Add(appendFrame(nil, -1, -1, bytes.Repeat([]byte{7}, 100)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(encodeBook([]string{"127.0.0.1:1", "127.0.0.1:2"}))
	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, b []byte) {
		src, tag, payload, rest, err := DecodeFrame(b, maxFrame)
		if err == nil {
			if len(payload) > maxFrame {
				t.Fatalf("payload %d exceeds limit", len(payload))
			}
			if len(payload)+len(rest)+FrameHeaderSize != len(b) {
				t.Fatalf("frame accounting: %d + %d + %d != %d", len(payload), len(rest), FrameHeaderSize, len(b))
			}
			// The streaming decoder must agree with the in-place one.
			s2, t2, p2, err2 := readFrame(bytes.NewReader(b), maxFrame)
			if err2 != nil || s2 != src || t2 != tag || !bytes.Equal(p2, payload) {
				t.Fatalf("readFrame disagrees: (%d %d %d %v) vs (%d %d %d)", s2, t2, len(p2), err2, src, tag, len(payload))
			}
		} else if !errors.Is(err, ErrFrame) {
			t.Fatalf("DecodeFrame error does not wrap ErrFrame: %v", err)
		}
		if _, err := decodeBook(b, 4); err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("decodeBook error does not wrap ErrFrame: %v", err)
		}
	})
}

// streamConn is a net.Conn over in-memory bytes: reads drain r, writes
// append to w.  Nothing else of net.Conn is used by FrameConn's read
// and write paths.
type streamConn struct {
	net.Conn
	r      io.Reader
	w      bytes.Buffer
	writes int
}

func (c *streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// rpcFrames encodes frames with FrameConn.WriteFrame; frame i has seq
// i and tag -16-i.
func rpcFrames(payloads ...[]byte) []byte {
	sc := &streamConn{}
	fc := NewFrameConn(sc, 0)
	for i, p := range payloads {
		if err := fc.WriteFrame(i, -16-i, p); err != nil {
			panic(err)
		}
	}
	return sc.w.Bytes()
}

// readWhole reads one frame's header and then its whole payload.
func readWhole(fc *FrameConn) (seq, tag int, payload []byte, err error) {
	seq, tag, n, err := fc.ReadHeader()
	if err != nil {
		return 0, 0, nil, err
	}
	payload = make([]byte, n)
	return seq, tag, payload, fc.ReadPayload(payload)
}

// TestFrameConnChaosWritePerFrame: a ChaosConn draws its faults per
// Write, so FrameConn must hand it each frame as one Write — the same
// bytes the vectored path sends.
func TestFrameConnChaosWritePerFrame(t *testing.T) {
	sc := &streamConn{}
	fc := NewFrameConn(NewChaosConn(sc, &WireChaosConfig{}, "test"), 0)
	payloads := [][]byte{[]byte("one"), nil, bytes.Repeat([]byte{9}, 5000)}
	for i, p := range payloads {
		if err := fc.WriteFrame(i, -16-i, p); err != nil {
			t.Fatal(err)
		}
	}
	if sc.writes != len(payloads) {
		t.Fatalf("%d frames reached the chaos connection as %d writes", len(payloads), sc.writes)
	}
	if !bytes.Equal(sc.w.Bytes(), rpcFrames(payloads...)) {
		t.Fatal("joined frames differ from the vectored encoding")
	}
}

// TestFrameConnScatterRead: a payload read in pieces equals the one
// read whole, an unread payload is skipped by the next
// ReadHeader, and asking for more than the frame holds is a frame error.
func TestFrameConnScatterRead(t *testing.T) {
	stream := rpcFrames([]byte("first payload"), []byte("skipped"), nil, []byte("last"))
	fc := NewFrameConn(&streamConn{r: bytes.NewReader(stream)}, 0)

	seq, tag, n, err := fc.ReadHeader()
	if err != nil || seq != 0 || tag != -16 || n != 13 {
		t.Fatalf("header 0: (%d, %d, %d, %v)", seq, tag, n, err)
	}
	a, b := make([]byte, 5), make([]byte, 8)
	if err := fc.ReadPayload(a); err != nil {
		t.Fatal(err)
	}
	if err := fc.ReadPayload(b); err != nil {
		t.Fatal(err)
	}
	if got := string(a) + string(b); got != "first payload" {
		t.Fatalf("scattered payload %q", got)
	}
	if err := fc.ReadPayload(make([]byte, 1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("read past the frame: err = %v, want ErrFrame", err)
	}
	if _, _, n, err := fc.ReadHeader(); err != nil || n != 7 {
		t.Fatalf("header 1: n=%d err=%v", n, err)
	}
	// Frame 1's payload is left unread: the next ReadHeader skips it.
	for want := 2; want < 4; want++ {
		seq, _, p, err := readWhole(fc)
		if err != nil || seq != want {
			t.Fatalf("frame %d: seq %d err %v", want, seq, err)
		}
		if want == 3 && string(p) != "last" {
			t.Fatalf("frame 3 payload %q", p)
		}
	}
	if _, _, _, err := fc.ReadHeader(); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}
}

// FuzzFrameConnRead drives FrameConn's streaming reader with arbitrary
// bytes.  ReadHeader validates the checksum and the length before
// anything is read or allocated, so garbage must end in ErrFrame (or
// io.EOF at a frame boundary) — never a panic, never a length over the
// limit (the only allocation here is that length), and never a
// ReadPayload that runs past its frame.  Pieces read with ReadPayload
// must equal the payload read in one piece from the same stream.
func FuzzFrameConnRead(f *testing.F) {
	const maxFrame = 1 << 12
	f.Add(rpcFrames([]byte("seed payload")), uint8(3))
	f.Add(rpcFrames(nil, []byte("x"), bytes.Repeat([]byte{7}, 300)), uint8(0))
	bad := rpcFrames([]byte("crc"))
	bad[9] ^= 0x40 // tag bit flip: checksum mismatch
	f.Add(bad, uint8(1))
	var huge [rpcHeaderSize]byte // valid checksum, length over the limit
	binary.LittleEndian.PutUint32(huge[0:4], maxFrame+1)
	binary.LittleEndian.PutUint32(huge[12:16], crc32.Checksum(huge[:FrameHeaderSize], rpcCRCTable))
	f.Add(huge[:], uint8(2))
	full := rpcFrames([]byte("truncated payload"))
	f.Add(full[:len(full)-4], uint8(5))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, stream []byte, piece uint8) {
		scatter := NewFrameConn(&streamConn{r: bytes.NewReader(stream)}, maxFrame)
		whole := NewFrameConn(&streamConn{r: bytes.NewReader(stream)}, maxFrame)
		for frame := 0; ; frame++ {
			seq, tag, n, err := scatter.ReadHeader()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrFrame) {
					t.Fatalf("frame %d: header error %v does not wrap ErrFrame", frame, err)
				}
				return
			}
			if n < 0 || n > maxFrame {
				t.Fatalf("frame %d: header accepted length %d over the %d limit", frame, n, maxFrame)
			}
			wseq, wtag, want, werr := readWhole(whole)
			buf := make([]byte, n)
			step := int(piece)%8 + 1
			for off := 0; off < n && err == nil; off += step {
				err = scatter.ReadPayload(buf[off:min(off+step, n)])
			}
			if err != nil || werr != nil {
				if (err == nil) != (werr == nil) || !errors.Is(err, ErrFrame) {
					t.Fatalf("frame %d: scatter error %v, whole-frame error %v", frame, err, werr)
				}
				return
			}
			if seq != wseq || tag != wtag || !bytes.Equal(buf, want) {
				t.Fatalf("frame %d: scatter read (%d, %d, %q) differs from whole read (%d, %d, %q)",
					frame, seq, tag, buf, wseq, wtag, want)
			}
			if err := scatter.ReadPayload(buf[:min(1, n)]); n > 0 && !errors.Is(err, ErrFrame) {
				t.Fatalf("frame %d: reading past the payload: err = %v, want ErrFrame", frame, err)
			}
		}
	})
}
