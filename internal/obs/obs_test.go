package obs

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestNilRegistryIsNoOp: the nil-receiver convention — a nil registry
// hands out nil handles and every handle method no-ops.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.GaugeFunc("y", "", func() int64 { return 7 })
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Hist("z", "")
	h.Observe(9)
	if h.Data().Count != 0 {
		t.Fatal("nil hist observed")
	}
	if n := len(r.Snapshot("p").Metrics); n != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", n)
	}
}

// TestRegistryIdentity: registering the same name+labels twice returns
// the same handle; different labels are distinct series.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops", "help", Label{"op", "read"})
	b := r.Counter("ops", "help", Label{"op", "read"})
	c := r.Counter("ops", "help", Label{"op", "write"})
	if a != b {
		t.Fatal("same identity returned distinct handles")
	}
	if a == c {
		t.Fatal("distinct labels returned the same handle")
	}
	a.Add(2)
	c.Add(3)
	s := r.Snapshot("p")
	if len(s.Metrics) != 2 || s.Metrics[0].Value != 2 || s.Metrics[1].Value != 3 {
		t.Fatalf("snapshot = %+v", s.Metrics)
	}
}

// TestHistMergeProperty: the cross-process merge property — for random
// observation streams a and b, merge(hist(a), hist(b)) has bucket
// counts (and count/sum/min/max) equal to observing a then b
// sequentially into one histogram.  This is what makes launcher-side
// aggregation exact rather than approximate.
func TestHistMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		var ha, hb, hseq trace.Histogram
		na, nb := rng.Intn(50), rng.Intn(50)
		obs := func(h *trace.Histogram, n int) []int64 {
			vals := make([]int64, n)
			for i := range vals {
				// Mix magnitudes so many distinct buckets are hit,
				// including 0 and negative (clamped) values.
				v := rng.Int63n(1 << uint(rng.Intn(40)))
				if rng.Intn(10) == 0 {
					v = -v
				}
				vals[i] = v
				h.Add(v)
			}
			return vals
		}
		va, vb := obs(&ha, na), obs(&hb, nb)
		for _, v := range va {
			hseq.Add(v)
		}
		for _, v := range vb {
			hseq.Add(v)
		}
		merged := ha.Data()
		merged.Merge(hb.Data())
		if !reflect.DeepEqual(merged, hseq.Data()) {
			t.Fatalf("round %d: merge(a,b) = %+v, sequential = %+v", round, merged, hseq.Data())
		}
	}
}

// TestSnapshotRoundTrip: encode/decode is lossless for all three kinds,
// labels included.
func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", Label{"op", "read"}).Add(41)
	r.Gauge("depth", "queue depth").Set(-7)
	h := r.Hist("lat_ns", "latency")
	for _, v := range []int64{1, 3, 3, 900, 1 << 40} {
		h.Observe(v)
	}
	s := r.Snapshot("rank3")
	got, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip:\n  in  %+v\n  out %+v", s, got)
	}
	if _, err := DecodeSnapshot([]byte("garbage....")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeSnapshot(s.Encode()[:10]); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
}

// TestSnapshotMerge: counters/gauges sum and histograms bucket-add
// across processes; identity is name+labels.
func TestSnapshotMerge(t *testing.T) {
	mk := func(proc string, c int64, hv []int64) *Snapshot {
		r := NewRegistry()
		r.Counter("ops", "").Add(c)
		h := r.Hist("lat", "")
		for _, v := range hv {
			h.Observe(v)
		}
		return r.Snapshot(proc)
	}
	m := Merge(mk("rank0", 5, []int64{10, 20}), nil, mk("srv0", 7, []int64{30}))
	if m.Proc != "rank0+srv0" || m.Procs != 2 {
		t.Fatalf("merged proc = %q procs = %d", m.Proc, m.Procs)
	}
	if m.Metrics[0].Value != 12 {
		t.Fatalf("merged counter = %d", m.Metrics[0].Value)
	}
	if d := m.Metrics[1].Hist; d.Count != 3 || d.Sum != 60 || d.Min != 10 || d.Max != 30 {
		t.Fatalf("merged hist = %+v", d)
	}
	if !strings.Contains(m.Table(), "ops") {
		t.Fatalf("table missing metric:\n%s", m.Table())
	}
}

// TestRecorderDump: the flight recorder writes a dump containing the
// reason, the metrics, and the ring's recent spans — including a span
// still in flight at dump time.
func TestRecorderDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.txt")
	reg := NewRegistry()
	reg.Counter("crashes_total", "observed crashes").Add(3)
	rec := NewRecorder(path, "srv1", reg, nil)
	tr := rec.Collector().Tracer(0)
	sp := tr.Begin(trace.PhaseCollWrite, 0, 128)
	sp.End()
	tr.Begin(trace.PhaseStorageRead, 4096, 64) // left in flight
	if err := rec.Dump("test-fault"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"srv1", "test-fault", "crashes_total", string(trace.PhaseCollWrite), string(trace.PhaseStorageRead)} {
		if !strings.Contains(string(b), want) {
			t.Errorf("dump missing %q:\n%s", want, b)
		}
	}
	// A disabled recorder (empty path) is nil and fully no-op.
	var off *Recorder = NewRecorder("", "x", nil, nil)
	off.Start(0)
	off.Stop()
	if err := off.Dump("x"); err != nil {
		t.Fatal(err)
	}
}

// TestScrapeRacesFirstRegistration: scrapes run while other goroutines
// register metrics for the first time.  Under -race this catches a
// scrape that reads the registry's maps outside its lock; in any mode,
// the final scrape must see every metric in registration order.
func TestScrapeRacesFirstRegistration(t *testing.T) {
	r := NewRegistry()
	const n = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			r.Counter(fmt.Sprintf("c%d_total", i), "counter").Inc()
			r.GaugeFunc(fmt.Sprintf("g%d", i), "gauge", func() int64 { return 1 })
			r.Hist(fmt.Sprintf("h%d_ns", i), "hist").Observe(int64(i))
		}
	}()
	for i := 0; i < n; i++ {
		r.Snapshot("p")
		if err := r.WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	snap := r.Snapshot("p")
	if len(snap.Metrics) != 3*n {
		t.Fatalf("final scrape saw %d metrics, want %d", len(snap.Metrics), 3*n)
	}
	for i, m := range snap.Metrics {
		if want := []string{"c%d_total", "g%d", "h%d_ns"}[i%3]; m.Name != fmt.Sprintf(want, i/3) {
			t.Fatalf("metric %d is %q, want %q", i, m.Name, fmt.Sprintf(want, i/3))
		}
	}
}
