package ioserver

import (
	"encoding/binary"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/storage"
	"repro/internal/transport"
)

// FuzzServerRequest throws hostile byte streams at a live server — both
// correctly framed requests with fuzzed payloads (truncated varint
// fields, oversized lists, unknown ops, stale handles, garbage datatype
// trees) and raw unframed garbage.  The server must never panic, never
// allocate beyond its MaxFrame bound (enforced structurally: the run
// uses a 4 KiB frame limit, so an over-allocation shows up as an
// obvious hang/OOM under the fuzzer), never grow its stripe past
// StripeCapacity, answer every well-framed bad request with a typed
// opErr frame, and stay serviceable afterwards.

const fuzzMaxFrame = 4096

// fuzzOps is the tag alphabet the structured phase draws from: the two
// retired scalar op values, every stateless op, the staged list write,
// the low end of the reserved range, and tags outside it.
var fuzzOps = []int{
	transport.TagServerFirst, transport.TagServerFirst - 1, opReadv, opWritev, opSize, opTruncate, opSync,
	opRegister, opViewRead, opViewWrite, opStats, opErr,
	opStageWritev, transport.TagServerLast, 0, 1, -1, -1000,
}

var fuzzSrv struct {
	once sync.Once
	addr string
}

// fuzzServer starts the shared fuzz target once per process: stripe 0
// of a 2-way layout over a pre-seeded file, tiny frame limit, tiny view
// cache (so eviction/stale paths are reachable with few requests).  The
// file grows sparsely, so a fuzzed truncate or write up to
// StripeCapacity costs no memory and little disk.
func fuzzServer(f *testing.F) string {
	f.Helper()
	fuzzSrv.once.Do(func() {
		be, err := storage.OpenFile(filepath.Join(f.TempDir(), "stripe"))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := be.WriteAt(make([]byte, 1<<16), 0); err != nil {
			f.Fatal(err)
		}
		srv, err := New(Config{
			Backend:   be,
			Geom:      storage.StripeGeom{Unit: 64, Count: 2},
			Index:     0,
			MaxFrame:  fuzzMaxFrame,
			ViewCache: 2,
		})
		if err != nil {
			f.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv.addr = ln.Addr().String()
		go srv.Serve(ln)
		// The server lives for the whole fuzz process; worker processes
		// each start their own.
	})
	return fuzzSrv.addr
}

// seedReq encodes one op for the structured phase: op selector byte,
// payload length byte, payload.
func seedReq(opIdx byte, payload []byte) []byte {
	return append([]byte{opIdx, byte(len(payload))}, payload...)
}

// readReply reads one whole response frame.
func readReply(fc *transport.FrameConn) (seq, tag int, payload []byte, err error) {
	seq, tag, n, err := fc.ReadHeader()
	if err != nil {
		return 0, 0, nil, err
	}
	payload = make([]byte, n)
	return seq, tag, payload, fc.ReadPayload(payload)
}

func vs(vals ...int64) []byte {
	var b []byte
	for _, v := range vals {
		b = putV(b, v)
	}
	return b
}

func FuzzServerRequest(f *testing.F) {
	ft, err := datatype.Vector(4, 2, 8, datatype.Byte)
	if err != nil {
		f.Fatal(err)
	}
	reg := append(putV(nil, 0), datatype.Encode(ft)...)

	// One seed per interesting shape; indexes into fuzzOps.
	f.Add(seedReq(0, vs(0, 16)))                                // retired scalar read op
	f.Add(seedReq(2, vs(1, 0, 16)))                             // valid one-entry readv
	f.Add(seedReq(2, vs(1, -5, 16)))                            // negative offset
	f.Add(seedReq(2, vs(1, 0)))                                 // truncated: missing length field
	f.Add(seedReq(2, vs(1, 0, fuzzMaxFrame)))                   // reply + size trailer would exceed frame
	f.Add(seedReq(3, append(vs(1, 8, 5), []byte("hello")...)))  // valid one-entry writev
	f.Add(seedReq(12, append(vs(1, 1, 8, 2), 'h', 'i')))        // valid staged writev
	f.Add(seedReq(2, vs(2, 0, 8, 64, 8)))                       // valid 2-run readv
	f.Add(seedReq(2, vs(300, 0, 8)))                            // list over MaxListRuns
	f.Add(seedReq(2, vs(1, 0)))                                 // truncated list entry
	f.Add(seedReq(3, append(vs(1, 0, 4), 'a', 'b')))            // writev length mismatch
	f.Add(seedReq(4, nil))                                      // size
	f.Add(seedReq(5, vs(-1)))                                   // negative truncate
	f.Add(seedReq(7, reg))                                      // valid view registration
	f.Add(seedReq(7, append(vs(3), 0xff, 0xfe, 0x17)))          // garbage datatype tree
	f.Add(seedReq(8, vs(99, 0, 64)))                            // stale handle
	f.Add(seedReq(9, vs(99, 0, 64)))                            // stale handle, write
	f.Add(seedReq(8, vs(1, -4, 64)))                            // negative view range
	f.Add(seedReq(8, vs(1, 0, int64(fuzzMaxFrame)*4)))          // oversized view range
	f.Add(seedReq(14, vs(0)))                                   // unknown op (tag 0)
	f.Add(append(seedReq(7, reg), seedReq(8, vs(1, 0, 16))...)) // register then use
	// Raw-phase shapes: a hostile length header (payload length field
	// far beyond MaxFrame) and assorted garbage.
	hostile := make([]byte, 12)
	binary.LittleEndian.PutUint32(hostile[0:4], 0xfffffff0)
	f.Add(hostile)
	f.Add([]byte("\x00\x01\x02\x03garbage that is not a frame at all"))

	addr := fuzzServer(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		deadline := time.Now().Add(5 * time.Second)

		// Phase 1: well-framed requests with fuzzed payloads.  Every
		// request must draw exactly one response frame, tagged either
		// with the echoed op or opErr — and opErr payloads must carry a
		// known class.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial:", err)
		}
		conn.SetDeadline(deadline)
		fc := transport.NewFrameConn(conn, fuzzMaxFrame)
		rest := data
		for seq := 0; len(rest) > 0 && seq < 8; seq++ {
			op := fuzzOps[int(rest[0])%len(fuzzOps)]
			rest = rest[1:]
			n := 0
			if len(rest) > 0 {
				n = int(rest[0])
				rest = rest[1:]
			}
			if n > len(rest) {
				n = len(rest)
			}
			payload := rest[:n]
			rest = rest[n:]
			if err := fc.WriteFrame(seq, op, payload); err != nil {
				break
			}
			rseq, rtag, rpayload, err := readReply(fc)
			if err != nil {
				// The server only drops the connection on framing
				// failures, which phase 1 never produces.
				t.Fatalf("no response to framed op %d: %v", op, err)
			}
			if rseq != seq {
				t.Fatalf("response seq %d for request %d", rseq, seq)
			}
			if rtag != op && rtag != opErr {
				t.Fatalf("response tag %d to op %d", rtag, op)
			}
			if rtag == opErr {
				class, _, err := getV(rpayload)
				if err != nil {
					t.Fatalf("opErr payload undecodable: %v", err)
				}
				switch class {
				case classTransient, classPermanent, classStale, classBad:
				default:
					t.Fatalf("opErr carries unknown class %d", class)
				}
			}
		}
		fc.Close()

		// Phase 2: the same bytes as a raw unframed stream.  The server
		// may answer or hang up, but must not crash; drain until EOF or
		// deadline.
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial:", err)
		}
		raw.SetDeadline(deadline)
		raw.Write(data)
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		drain := make([]byte, 4096)
		for {
			if _, err := raw.Read(drain); err != nil {
				break
			}
		}
		raw.Close()

		// Phase 3: the server must still answer a valid request.
		hc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal("server unreachable after fuzz input:", err)
		}
		hc.SetDeadline(deadline)
		hfc := transport.NewFrameConn(hc, fuzzMaxFrame)
		if err := hfc.WriteFrame(7, opSize, nil); err != nil {
			t.Fatal("health-check write:", err)
		}
		rseq, rtag, rpayload, err := readReply(hfc)
		if err != nil || rseq != 7 || rtag != opSize {
			t.Fatalf("health check failed: seq=%d tag=%d err=%v", rseq, rtag, err)
		}
		// (A fuzzed opTruncate may legitimately have shrunk the backing
		// store, so only decodability and non-negativity are asserted.)
		if size, _, err := getV(rpayload); err != nil || size < 0 || size > StripeCapacity {
			t.Fatalf("health-check size %d (capacity %d) err=%v", size, int64(StripeCapacity), err)
		}
		hfc.Close()
	})
}

// TestServerCapacity: every request that would extend the stripe past
// StripeCapacity — a raw or staged list write, a view write, a
// truncate, an offset at the edge of int64 — is refused with a
// bad-request opErr and leaves the stripe as it was; requests up to the
// capacity are served (on a sparse file, so they cost no memory).
func TestServerCapacity(t *testing.T) {
	const capacity = StripeCapacity
	be, err := storage.OpenFile(filepath.Join(t.TempDir(), "stripe"))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := New(Config{Backend: be, Geom: storage.StripeGeom{Unit: 64, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := transport.NewFrameConn(conn, transport.DefaultMaxFrame)
	defer fc.Close()

	data := make([]byte, 16)
	contig, err := datatype.Contiguous(16, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	const maxInt64 = 1<<63 - 1
	for i, c := range []struct {
		op      int
		payload []byte
		refused bool
	}{
		{opWritev, append(vs(1, capacity-16, 16), data...), false},
		{opWritev, append(vs(1, capacity-8, 16), data...), true},
		{opWritev, append(vs(1, maxInt64-8, 16), data...), true},
		{opStageWritev, append(vs(1, 1, capacity-8, 16), data...), true},
		{opTruncate, vs(capacity), false},
		{opTruncate, vs(capacity + 1), true},
		{opTruncate, vs(1 << 62), true},
		{opRegister, append(putV(nil, capacity-8), datatype.Encode(contig)...), false},
		{opViewRead, vs(1, 0, 16), false},
		{opViewWrite, append(vs(1, 0, 16), data...), true},
		{opStageViewWrite, append(vs(1, 1, 0, 16), data...), true},
	} {
		if err := fc.WriteFrame(i, c.op, c.payload); err != nil {
			t.Fatal(err)
		}
		_, tag, reply, err := readReply(fc)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if refused := tag == opErr; refused != c.refused {
			t.Fatalf("request %d (op %d): refused %v, want %v (reply %q)", i, c.op, refused, c.refused, reply)
		}
		if class, _, _ := getV(reply); c.refused && class != classBad {
			t.Errorf("request %d: error class %d, want %d", i, class, classBad)
		}
	}
	if got := be.Size(); got != capacity {
		t.Errorf("stripe size %d, want %d", got, capacity)
	}
}
