package ioserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Wire-chaos soak: the full collective stack — both engines, epochs on —
// over in-process servers whose client connections suffer seeded frame
// drops, duplicates, header corruption, resets, partitions, and latency
// spikes.  Every fault must surface as a transient (deadline, framing
// error, desync, or seal mismatch), heal through reconnect + stage-log
// replay, and leave the file byte-identical to a fault-free local run.
// WIRE_CHAOS_SOAK extends the default round budget for a longer soak in
// the chaos CI job.

// soakWireChaos returns the seeded injection profile of the soak.  The
// client Timeout below is short so that a dropped request frame costs
// one deadline expiry, not the default 30s.
func soakWireChaos(seed int64) *transport.WireChaosConfig {
	return &transport.WireChaosConfig{
		Seed:         seed,
		PSpike:       0.02,
		SpikeMin:     50 * time.Microsecond,
		SpikeMax:     500 * time.Microsecond,
		PDrop:        0.01,
		PDup:         0.01,
		PCorrupt:     0.01,
		PReset:       0.005,
		PPartition:   0.002,
		PartitionFor: 30 * time.Millisecond,
	}
}

func TestWireChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection soak")
	}
	rounds := 20
	if os.Getenv("WIRE_CHAOS_SOAK") != "" {
		rounds = 200
	}

	const (
		P          = 4
		unit       = 256
		nSrv       = 3
		blockcount = 16
		blocklen   = 8
	)
	d := int64(blockcount * blocklen)

	storm := func(t *testing.T, eng core.Engine, be storage.Backend, rounds int) {
		t.Helper()
		sh := core.NewShared(be)
		_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: 120 * time.Second}, func(p *mpi.Proc) {
			f, err := core.Open(p, sh, core.Options{Engine: eng, CollBufSize: 128})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			ft, err := interleavedFiletype(p.Rank(), P, blockcount, blocklen)
			if err != nil {
				panic(err)
			}
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			for r := 0; r < rounds; r++ {
				data := roundPattern(p.Rank(), r, d)
				if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
					panic(fmt.Sprintf("rank %d round %d: %v", p.Rank(), r, err))
				}
				got := make([]byte, d)
				if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
					panic(fmt.Sprintf("rank %d round %d read-back: %v", p.Rank(), r, err))
				}
				if !bytes.Equal(got, data) {
					panic(fmt.Sprintf("rank %d round %d: read-back mismatch", p.Rank(), r))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, eng := range []core.Engine{core.ListBased, core.Listless} {
		t.Run(eng.String(), func(t *testing.T) {
			// Servers over Mem stripes, in-process; chaos lives on the
			// client side of every connection.
			geom := storage.StripeGeom{Unit: unit, Count: nSrv}
			addrs := make([]string, nSrv)
			servers := make([]*Server, nSrv)
			for i := range servers {
				srv, err := New(Config{Backend: storage.NewMem(), Geom: geom, Index: i})
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addrs[i] = ln.Addr().String()
				servers[i] = srv
				go srv.Serve(ln)
			}
			defer func() {
				for _, srv := range servers {
					srv.Close()
				}
			}()

			stats := &transport.WireChaosStats{}
			cfg := soakWireChaos(int64(31 + len(addrs)))
			cfg.Stats = stats
			agg, err := NewStriped(unit, addrs, ClientOptions{
				Timeout:   150 * time.Millisecond,
				WireChaos: cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			be := storage.NewResilient(agg, storage.ResilientConfig{
				MaxRetries:  30,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
			})

			storm(t, eng, be, rounds)

			// The same storm against a fault-free local backend is the
			// byte oracle.
			oracle := storage.NewMem()
			storm(t, eng, oracle, rounds)

			got := make([]byte, be.Size())
			if err := storage.ReadAtv(be, []storage.Segment{{Off: 0, Buf: got}}); err != nil {
				t.Fatal(err)
			}
			if want := oracle.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("chaos run differs from oracle (%d vs %d bytes)", len(got), len(want))
			}
			t.Logf("wire faults injected: %d spikes, %d drops, %d dups, %d corrupts, %d resets, %d partitions",
				stats.Spikes.Load(), stats.Drops.Load(), stats.Dups.Load(),
				stats.Corrupts.Load(), stats.Resets.Load(), stats.Partitions.Load())
			if stats.Total() == 0 {
				t.Error("soak injected no destructive wire faults; raise rounds or probabilities")
			}
		})
	}
}

// headerFlipProxy forwards TCP connections to a server and flips one
// length bit in the header of the server's nth response frame, counted
// across connections: header corruption on the reply side, which the
// client-side ChaosConn cannot produce.
type headerFlipProxy struct {
	ln      net.Listener
	target  string
	nth     int64
	frames  atomic.Int64
	flipped atomic.Int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   []net.Conn
}

func startHeaderFlipProxy(t *testing.T, target string, nth int64) *headerFlipProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &headerFlipProxy{ln: ln, target: target, nth: nth}
	p.wg.Add(1)
	go p.serve()
	return p
}

func (p *headerFlipProxy) serve() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		p.wg.Add(2)
		go func() { // requests pass verbatim
			defer p.wg.Done()
			io.Copy(s, c)
			s.Close()
		}()
		go func() {
			defer p.wg.Done()
			p.replies(c, s)
			c.Close()
		}()
	}
}

// replies copies response frames from s to c, header by header.
func (p *headerFlipProxy) replies(c, s net.Conn) {
	var hdr [transport.FrameHeaderSize + 4]byte // FrameConn header: frame header + CRC
	for {
		if _, err := io.ReadFull(s, hdr[:]); err != nil {
			return
		}
		if p.frames.Add(1) == p.nth {
			hdr[1] ^= 0x01 // the length is off by 256
			p.flipped.Add(1)
		}
		if _, err := c.Write(hdr[:]); err != nil {
			return
		}
		if _, err := io.CopyN(c, s, int64(binary.LittleEndian.Uint32(hdr[0:4]))); err != nil {
			return
		}
	}
}

func (p *headerFlipProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// TestWireChaosScatterReadHeaderFlip: a reply header corrupted in the
// middle of a scatter read — the read needs three list requests on the
// proxied server, and the first reply has already landed in the
// caller's buffer when the second arrives damaged — is a framing error
// the client reports as transient, and a storage.Resilient retry
// leaves the read byte-exact.
func TestWireChaosScatterReadHeaderFlip(t *testing.T) {
	const unit, units = 16, 3 * MaxListRuns // units per server
	direct, _ := startServers(t, unit, 2, nil)
	file := make([]byte, 2*unit*units)
	rand.New(rand.NewSource(5)).Read(file)
	if _, err := direct.WriteAt(file, 0); err != nil {
		t.Fatal(err)
	}

	proxy := startHeaderFlipProxy(t, direct.Clients()[0].Addr(), 2)
	agg, err := NewStriped(unit, []string{proxy.ln.Addr().String(), direct.Clients()[1].Addr()}, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agg.Close()
		proxy.close()
	})
	res := storage.NewResilient(agg, storage.ResilientConfig{BaseBackoff: time.Millisecond})
	got := make([]byte, len(file))
	if n, err := res.ReadAt(got, 0); n != len(file) || err != nil {
		t.Fatalf("ReadAt = (%d, %v), want (%d, nil)", n, err, len(file))
	}
	if !bytes.Equal(got, file) {
		t.Fatal("read after the corrupted reply differs from the file")
	}
	if proxy.flipped.Load() != 1 {
		t.Fatalf("proxy saw %d reply frames, none corrupted", proxy.frames.Load())
	}
	if retries, _ := res.RetryStats(); retries == 0 {
		t.Fatal("the corrupted reply did not cost a retry")
	}
}
