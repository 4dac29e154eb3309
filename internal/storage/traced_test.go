package storage

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestTracedBackendSpans: every observed Backend, vectored, view and
// epoch call records a span with its window (file offset, view-data
// offset, truncate length or epoch id) and the bytes actually moved;
// registration, abort, begin and end record nothing.
func TestTracedBackendSpans(t *testing.T) {
	c := trace.NewCollector(64)
	b := NewObserved(&memView{Mem: NewMem()}, c.Storage(), nil)

	if _, err := b.WriteAt([]byte("hello"), 100); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	if _, err := b.ReadAt(p, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Truncate(50); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := b.ReadAt(p, 48); n != 2 || err != io.EOF {
		t.Fatalf("read across EOF: %d, %v", n, err)
	}
	segs := []Segment{{Off: 200, Buf: []byte("ab")}, {Off: 210, Buf: []byte("cde")}}
	if err := b.WriteAtv(segs); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAtv(segs); err != nil {
		t.Fatal(err)
	}
	h, err := b.RegisterView(0, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ViewWrite(h, []byte("xyz"), 300); err != nil {
		t.Fatal(err)
	}
	if err := b.ViewRead(h, p[:3], 300); err != nil {
		t.Fatal(err)
	}
	b.EpochBegin(7)
	if err := b.EpochSeal(7); err != nil {
		t.Fatal(err)
	}
	if err := b.EpochCommit(7); err != nil {
		t.Fatal(err)
	}
	if err := b.EpochAbort(8); err != nil {
		t.Fatal(err)
	}
	b.EpochEnd(8)

	want := []struct {
		ph     trace.Phase
		window int64
		bytes  int64
	}{
		{trace.PhaseStorageWrite, 100, 5},
		{trace.PhaseStorageRead, 100, 5},
		{trace.PhaseStorageTruncate, 50, 0},
		{trace.PhaseStorageSync, trace.NoWindow, 0},
		{trace.PhaseStorageRead, 48, 2},
		{trace.PhaseStorageWrite, 200, 5},
		{trace.PhaseStorageRead, 200, 5},
		{trace.PhaseStorageViewWrite, 300, 3},
		{trace.PhaseStorageViewRead, 300, 3},
		{trace.PhaseEpochSeal, 7, 0},
		{trace.PhaseEpochCommit, 7, 0},
	}
	evs := c.Events()
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, w := range want {
		ev := evs[i]
		if ev.Phase != w.ph || ev.Window != w.window || ev.Bytes != w.bytes ||
			ev.Rank != trace.RankStorage || ev.Kind != trace.KindSpan {
			t.Errorf("event %d = %+v, want phase=%s window=%d bytes=%d", i, ev, w.ph, w.window, w.bytes)
		}
	}
}

// TestObservedMetrics: the observer feeds the storage_* metrics of a
// registry, counting a vectored batch as one call.
func TestObservedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewObserved(NewMem(), nil, reg)
	if _, err := b.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	segs := []Segment{{Off: 0, Buf: make([]byte, 2)}, {Off: 3, Buf: make([]byte, 2)}}
	if err := b.ReadAtv(segs); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := reg.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"storage_reads_total 1", "storage_writes_total 1",
		"storage_read_bytes_total 4", "storage_written_bytes_total 5",
		"storage_vectored_reads_total 1", "storage_vectored_writes_total 0",
		"storage_sync_ns_count 1", "storage_vectored_batch_segs_sum 2",
	} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, out.String())
		}
	}
}

// TestTracedNilTracerTransparent: an observer over a nil tracer
// must behave exactly like the bare backend.
func TestTracedNilTracerTransparent(t *testing.T) {
	b := NewObserved(NewMem(), nil, nil)
	if _, err := b.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 1)
	if _, err := b.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if p[0] != 'x' {
		t.Fatalf("read %q", p)
	}
}

// TestChaosEmitsFaultInstants: with probability-1 transient faults,
// every injection must land on the trace as an instant naming the fault
// class and offset.
func TestChaosEmitsFaultInstants(t *testing.T) {
	c := trace.NewCollector(64)
	ch := NewChaos(1, NewMem(), ChaosConfig{TransientRead: 1, TransientWrite: 1})
	ch.SetTracer(c.Storage())

	if _, err := ch.WriteAt([]byte("x"), 64); err == nil {
		t.Fatal("expected injected write fault")
	}
	if _, err := ch.ReadAt(make([]byte, 1), 128); err == nil {
		t.Fatal("expected injected read fault")
	}

	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	if evs[0].Phase != trace.PhaseChaosTransient || evs[0].Window != 64 ||
		evs[0].Kind != trace.KindInstant || evs[0].Detail != "write fault" {
		t.Errorf("write fault instant = %+v", evs[0])
	}
	if evs[1].Phase != trace.PhaseChaosTransient || evs[1].Window != 128 ||
		evs[1].Detail != "read fault" {
		t.Errorf("read fault instant = %+v", evs[1])
	}
}

// TestResilientEmitsRetryInstants: a backend that fails transiently a
// fixed number of times must leave one retry instant per reissue, and
// an exhausted instant when the budget runs out.
func TestResilientEmitsRetryInstants(t *testing.T) {
	c := trace.NewCollector(64)
	base := NewMem()
	if _, err := base.WriteAt([]byte("z"), 32); err != nil {
		t.Fatal(err)
	}
	fl := &flaky{Mem: base, failLeft: 2, err: fmt.Errorf("blip: %w", ErrTransient)}
	r := NewResilient(fl, ResilientConfig{MaxRetries: 8, BaseBackoff: time.Microsecond})
	noSleep(r)
	r.SetTracer(c.Storage())

	if _, err := r.ReadAt(make([]byte, 1), 32); err != nil {
		t.Fatal(err)
	}

	var retries int
	for _, ev := range c.Events() {
		if ev.Phase == trace.PhaseRetry {
			retries++
			if ev.Window != 32 {
				t.Errorf("retry instant window = %d, want 32", ev.Window)
			}
			if ev.Detail == "" {
				t.Error("retry instant has no detail")
			}
		}
	}
	if retries != 2 {
		t.Fatalf("retry instants = %d, want 2", retries)
	}

	// Exhaust the budget: more failures than retries allowed.
	c2 := trace.NewCollector(64)
	fl2 := &flaky{Mem: NewMem(), failLeft: 1 << 30, err: fmt.Errorf("flap: %w", ErrTransient)}
	r2 := NewResilient(fl2, ResilientConfig{MaxRetries: 2, BaseBackoff: time.Microsecond})
	noSleep(r2)
	r2.SetTracer(c2.Storage())
	if _, err := r2.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("expected exhausted retries to fail")
	}
	var exhausted bool
	for _, ev := range c2.Events() {
		if ev.Phase == trace.PhaseRetryExhausted {
			exhausted = true
		}
	}
	if !exhausted {
		t.Fatal("no retry-exhausted instant recorded")
	}
}
