package trace

import (
	"strings"
	"sync"
	"testing"
)

// fakeClock returns a deterministic clock advancing step ns per call.
func fakeClock(step int64) func() int64 {
	var t int64
	return func() int64 { t += step; return t }
}

// testCollector builds a collector with a deterministic clock.
func testCollector(bufSize int, step int64) *Collector {
	c := NewCollector(bufSize)
	c.clock = fakeClock(step)
	return c
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin(PhaseExchange, 0, 10)
	sp.End()
	tr.BeginIO(PhasePreRead, 0, 0).EndBytes(5)
	tr.Instant(PhaseFault, NoWindow, 0, "x")
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer recorded %v", evs)
	}
	if _, ok := tr.Current(); ok {
		t.Fatal("nil tracer has a current span")
	}
	if tr.Dropped() != 0 || tr.Metrics() != nil {
		t.Fatal("nil tracer has state")
	}

	var c *Collector
	if c.Tracer(3) != nil || c.Storage() != nil {
		t.Fatal("nil collector hands out tracers")
	}
	if c.Events() != nil || c.Summary() != "" || c.Forensics(4) != "" {
		t.Fatal("nil collector produces output")
	}
}

func TestSpanRecordingAndOrder(t *testing.T) {
	c := testCollector(16, 100)
	tr := c.Tracer(0)

	sp := tr.Begin(PhaseExchange, 4096, 64)
	sp.End()
	tr.Instant(PhaseMPISend, NoWindow, 32, "")
	sp = tr.BeginIO(PhasePreRead, 8192, 128)
	sp.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	e0 := evs[0]
	if e0.Phase != PhaseExchange || e0.Kind != KindSpan || e0.Window != 4096 ||
		e0.Bytes != 64 || e0.Dur != 100 || e0.Track != TrackMain || e0.Rank != 0 {
		t.Errorf("event 0 = %+v", e0)
	}
	if evs[1].Kind != KindInstant || evs[1].Phase != PhaseMPISend || evs[1].Dur != 0 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[2].Track != TrackIO {
		t.Errorf("event 2 track = %d, want TrackIO", evs[2].Track)
	}
	if evs[0].Start >= evs[1].Start || evs[1].Start >= evs[2].Start {
		t.Errorf("events out of order: %+v", evs)
	}
}

func TestEndBytesOverridesBytes(t *testing.T) {
	c := testCollector(4, 1)
	tr := c.Tracer(1)
	tr.Begin(PhaseMPIRecv, NoWindow, 0).EndBytes(777)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Bytes != 777 {
		t.Fatalf("events = %+v, want one with Bytes=777", evs)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	c := testCollector(4, 1)
	tr := c.Tracer(0)
	for i := 0; i < 10; i++ {
		tr.Begin(PhaseCopy, int64(i), 0).End()
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Window != want {
			t.Errorf("event %d window = %d, want %d", i, ev.Window, want)
		}
	}
	// Recent returns a suffix, oldest first.
	last2 := tr.Recent(2)
	if len(last2) != 2 || last2[0].Window != 8 || last2[1].Window != 9 {
		t.Fatalf("Recent(2) = %+v", last2)
	}
	// Totals survive the wrap.
	h := tr.Metrics().Hist(PhaseCopy)
	if h.Count() != 10 || h.Sum() != 10 {
		t.Fatalf("total = %d count = %d, want 10 and 10", h.Sum(), h.Count())
	}
}

// TestSummaryTotalsSurviveRingWrap wraps an 8-slot ring and checks the
// summary still reports every span recorded, not just the buffered ones.
func TestSummaryTotalsSurviveRingWrap(t *testing.T) {
	var now int64
	c := testCollector(8, 0)
	c.clock = func() int64 { return now }
	var want int64
	for i := int64(1); i <= 20; i++ {
		tm := c.Tracer(0).Start(PhaseCopy, i, 0)
		now += i * 1000
		if got := tm.Stop(); got != i*1000 {
			t.Fatalf("span %d: Stop = %d, want %d", i, got, i*1000)
		}
		want += i * 1000
	}
	if d := c.Dropped(); d != 12 {
		t.Fatalf("dropped = %d, want 12", d)
	}
	got := c.Summary()
	// 20 spans of 1..20 µs: 210µs over 20 spans.
	if want != 210000 || !strings.Contains(got, "210µs") || !strings.Contains(got, "       20 ") {
		t.Fatalf("summary does not report all 20 spans (210µs):\n%s", got)
	}
}

// TestTimerFeedsSpanAndCaller: a timer's Stop returns exactly the
// duration its span records, and a nil tracer's timer still measures.
func TestTimerFeedsSpanAndCaller(t *testing.T) {
	c := testCollector(4, 250)
	tr := c.Tracer(0)
	if ns := tr.StartIO(PhasePreRead, 0, 8).StopBytes(16); ns != 250 {
		t.Fatalf("Stop = %d, want 250", ns)
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Dur != 250 || evs[0].Bytes != 16 || evs[0].Track != TrackIO {
		t.Fatalf("events = %+v", evs)
	}
	var off *Tracer
	tm := off.Start(PhaseCopy, 0, 0)
	if ns := tm.Stop(); ns < 0 {
		t.Fatalf("nil-tracer timer returned %d", ns)
	}
}

func TestCurrentTracksInFlightSpan(t *testing.T) {
	c := testCollector(8, 1)
	tr := c.Tracer(2)
	if _, ok := tr.Current(); ok {
		t.Fatal("fresh tracer has a current span")
	}
	sp := tr.Begin(PhaseMPIRecv, NoWindow, 0)
	cur, ok := tr.Current()
	if !ok || cur.Phase != PhaseMPIRecv || cur.Dur >= 0 {
		t.Fatalf("in-flight current = %+v ok=%v", cur, ok)
	}
	sp.End()
	cur, ok = tr.Current()
	if !ok || cur.Dur < 0 {
		t.Fatalf("finished current = %+v ok=%v", cur, ok)
	}
}

// TestConcurrentRecording exercises the tracer from several goroutines
// (the pipelined window loop records background I/O spans concurrently
// with main-goroutine exchange spans); run under -race.
func TestConcurrentRecording(t *testing.T) {
	c := NewCollector(64)
	tr := c.Tracer(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					tr.BeginIO(PhasePreRead, int64(i), 1).End()
				} else {
					tr.Begin(PhaseExchange, int64(i), 1).End()
					tr.Instant(PhaseMPISend, NoWindow, 1, "")
				}
			}
		}(g)
	}
	wg.Wait()
	m := tr.Metrics()
	pre, exch := m.Hist(PhasePreRead).Count(), m.Hist(PhaseExchange).Count()
	// Every event recorded, spans and instants: 400 of each phase.
	events := int64(len(tr.Events())) + tr.Dropped()
	if pre != 400 || exch != 400 || events != 1200 {
		t.Fatalf("pre-read spans = %d, exchange spans = %d, events = %d", pre, exch, events)
	}
}

func TestForensicsFormat(t *testing.T) {
	c := testCollector(8, 1000)
	c.Tracer(0).Begin(PhaseWindow, 65536, 128).End()
	c.Tracer(1).Begin(PhaseMPIRecv, NoWindow, 0) // left in flight
	c.Storage().Instant(PhaseChaosTransient, 512, 0, "read fault")

	got := c.Forensics(4)
	for _, want := range []string{
		"rank 0:", "coll.window @65536 128B",
		"rank 1:", "in-flight: mpi.recv",
		"storage backend:", "chaos.transient", "(read fault)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("forensics missing %q:\n%s", want, got)
		}
	}
}

func TestSummaryImbalance(t *testing.T) {
	c := testCollector(8, 0) // manual durations via clock steps? use explicit spans
	// Use a controllable clock: rank 0 spends 3x rank 1's time in the
	// exchange phase.
	var now int64
	c.clock = func() int64 { return now }
	sp := c.Tracer(0).Begin(PhaseExchange, NoWindow, 0)
	now = 3000
	sp.End()
	sp = c.Tracer(1).Begin(PhaseExchange, NoWindow, 0)
	now = 4000
	sp.End()

	got := c.Summary()
	if !strings.Contains(got, "coll.exchange") {
		t.Fatalf("summary missing phase:\n%s", got)
	}
	if !strings.Contains(got, "rank 0 (75%)") {
		t.Errorf("summary missing imbalance share (want rank 0 at 75%%):\n%s", got)
	}
	if !strings.Contains(got, "2 ranks") {
		t.Errorf("summary missing rank count:\n%s", got)
	}
}
