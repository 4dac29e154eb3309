package storage

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/testutil"
)

// policies are the wrappers that ride the spine, configured so none
// changes a result: no faults armed or drawn, nothing charged.
var policies = []struct {
	name string
	wrap func(Backend) Backend
}{
	{"resilient", func(b Backend) Backend { return NewResilient(b, ResilientConfig{}) }},
	{"throttled", func(b Backend) Backend { return NewThrottled(b, 0, 0, 0) }},
	{"chaos", func(b Backend) Backend { return NewChaos(1, b, ChaosConfig{}) }},
	{"faulty", func(b Backend) Backend { return NewFaulty(b) }},
	{"observed", func(b Backend) Backend { return NewObserved(b, nil, nil) }},
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestStackKeepsCapabilities: every ordering of the five policies over
// each inner backend exposes exactly the innermost backend's views and
// epochs, delivers a vectored batch to it as one call, and routes view
// and epoch calls to it unchanged.  Region hides the views and epochs
// of what it slices on purpose: a session's region must not drive the
// shared tier's one-epoch protocol.
func TestStackKeepsCapabilities(t *testing.T) {
	inners := []struct {
		name          string
		mk            func() (Backend, *memView)
		views, epochs bool
	}{
		{"view+epoch", func() (Backend, *memView) {
			m := &memView{Mem: NewMem()}
			return m, m
		}, true, true},
		{"mem", func() (Backend, *memView) { return NewMem(), nil }, false, false},
		{"region", func() (Backend, *memView) {
			m := &memView{Mem: NewMem()}
			r, err := NewRegion(m, 64, 4096)
			if err != nil {
				t.Fatal(err)
			}
			return r, m
		}, false, false},
	}
	perms := permutations(len(policies))
	if len(perms) != 120 {
		t.Fatalf("%d orderings, want 120", len(perms))
	}
	for _, in := range inners {
		for _, perm := range perms {
			b, fake := in.mk()
			names := []string{in.name}
			for _, i := range perm {
				b = policies[i].wrap(b)
				names = append(names, policies[i].name)
			}
			name := strings.Join(names, "<")
			vb, views := AsViewBackend(b)
			eb, epochs := AsEpochBackend(b)
			if views != in.views || epochs != in.epochs {
				t.Fatalf("%s: views=%v epochs=%v, want %v %v", name, views, epochs, in.views, in.epochs)
			}

			// Vectored: one batch in, one batch at the bottom, bytes
			// back as written (with zero fill past the end).
			segs := []Segment{{Off: 3, Buf: []byte("abc")}, {Off: 40, Buf: []byte("defg")}}
			if err := WriteAtv(b, segs); err != nil {
				t.Fatalf("%s: WriteAtv: %v", name, err)
			}
			got := []Segment{{Off: 3, Buf: make([]byte, 3)}, {Off: 40, Buf: make([]byte, 6)}}
			if err := ReadAtv(b, got); err != nil {
				t.Fatalf("%s: ReadAtv: %v", name, err)
			}
			if string(got[0].Buf) != "abc" || string(got[1].Buf) != "defg\x00\x00" {
				t.Fatalf("%s: vectored round trip got %q %q", name, got[0].Buf, got[1].Buf)
			}
			if fake != nil && fake.vec != 2 {
				t.Fatalf("%s: inner saw %d vectored batches, want 2", name, fake.vec)
			}

			if views {
				h, err := vb.RegisterView(0, datatype.Byte)
				if err != nil {
					t.Fatalf("%s: RegisterView: %v", name, err)
				}
				if err := vb.ViewWrite(h, []byte("xy"), 100); err != nil {
					t.Fatalf("%s: ViewWrite: %v", name, err)
				}
				p := make([]byte, 2)
				if err := vb.ViewRead(h, p, 100); err != nil || string(p) != "xy" {
					t.Fatalf("%s: ViewRead got %q, %v", name, p, err)
				}
			} else if err := b.(ViewBackend).ViewRead(0, make([]byte, 1), 0); !errors.Is(err, ErrNoViews) {
				t.Fatalf("%s: ViewRead without views: %v, want ErrNoViews", name, err)
			}

			if epochs {
				eb.EpochBegin(5)
				if err := eb.EpochSeal(5); err != nil {
					t.Fatal(err)
				}
				if err := eb.EpochCommit(5); err != nil {
					t.Fatal(err)
				}
				if err := eb.EpochAbort(6); err != nil {
					t.Fatal(err)
				}
				eb.EpochEnd(6)
				want := []string{"begin 5", "seal 5", "commit 5", "abort 6", "end 6"}
				if !reflect.DeepEqual(fake.epochs, want) {
					t.Fatalf("%s: inner epoch log %q, want %q", name, fake.epochs, want)
				}
			} else if err := b.(EpochBackend).EpochSeal(1); !errors.Is(err, ErrNoEpochs) {
				t.Fatalf("%s: EpochSeal without epochs: %v, want ErrNoEpochs", name, err)
			}
		}
	}
}

// TestStackZeroAlloc: the spine hands each call to a policy by value,
// so a data call through a five-policy stack allocates nothing.
func TestStackZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var b Backend = &memView{Mem: NewMem()}
	for _, p := range policies {
		b = p.wrap(b)
	}
	vb, ok := AsViewBackend(b)
	if !ok {
		t.Fatal("stack lost views")
	}
	h, err := vb.RegisterView(0, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{7}, 256)
	segs := []Segment{{Off: 0, Buf: buf[:64]}, {Off: 128, Buf: buf[64:]}}
	v := b.(Vectored)
	ops := []struct {
		name string
		fn   func() error
	}{
		{"WriteAt", func() error { _, err := b.WriteAt(buf, 0); return err }},
		{"ReadAt", func() error { _, err := b.ReadAt(buf, 0); return err }},
		{"WriteAtv", func() error { return v.WriteAtv(segs) }},
		{"ReadAtv", func() error { return v.ReadAtv(segs) }},
		{"ViewWrite", func() error { return vb.ViewWrite(h, buf, 0) }},
		{"ViewRead", func() error { return vb.ViewRead(h, buf, 0) }},
	}
	for _, op := range ops {
		allocs := testing.AllocsPerRun(100, func() {
			if err := op.fn(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per op through five policies, want 0", op.name, allocs)
		}
	}
}

// flakyPolicy fails every other attempt of any call with err: a policy
// on the spine, so it reaches every call kind without a passthrough.
type flakyPolicy struct {
	spine
	err  error
	fail bool
}

func newFlakyPolicy(b Backend, err error) *flakyPolicy {
	f := &flakyPolicy{err: err}
	f.spine = spine{in: b, pol: f}
	return f
}

func (f *flakyPolicy) around(c call) (int64, error) {
	if f.fail = !f.fail; f.fail {
		return 0, f.err
	}
	return c.run()
}

// TestResilientRetriesEveryCall: every call kind is one retry unit —
// data, vectored, view, registration, truncate, sync, seal, commit and
// abort — while EpochBegin/EpochEnd pass straight through and
// ErrEpochRetry is never retried.
func TestResilientRetriesEveryCall(t *testing.T) {
	r := NewResilient(newFlakyPolicy(&memView{Mem: NewMem()}, fmt.Errorf("blip: %w", ErrTransient)), ResilientConfig{})
	noSleep(r)
	p := make([]byte, 4)
	segs := []Segment{{Off: 0, Buf: p[:2]}, {Off: 8, Buf: p[2:]}}
	calls := []func() error{
		func() error { _, err := r.WriteAt(p, 0); return err },
		func() error { _, err := r.ReadAt(p, 0); return err },
		func() error { return r.WriteAtv(segs) },
		func() error { return r.ReadAtv(segs) },
		func() error { _, err := r.RegisterView(0, datatype.Byte); return err },
		func() error { return r.ViewWrite(1, p, 0) },
		func() error { return r.ViewRead(1, p, 0) },
		func() error { return r.Truncate(16) },
		func() error { return r.Sync() },
		func() error { return r.EpochSeal(3) },
		func() error { return r.EpochCommit(3) },
		func() error { return r.EpochAbort(4) },
	}
	for i, call := range calls {
		if err := call(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	r.EpochBegin(5)
	r.EpochEnd(5)
	if retries, exhausted := r.RetryStats(); retries != int64(len(calls)) || exhausted != 0 {
		t.Fatalf("retries=%d exhausted=%d, want %d and 0", retries, exhausted, len(calls))
	}

	lost := NewResilient(newFlakyPolicy(&memView{Mem: NewMem()}, ErrEpochRetry), ResilientConfig{})
	noSleep(lost)
	if err := lost.EpochCommit(1); !IsEpochRetry(err) {
		t.Fatalf("commit: %v, want ErrEpochRetry", err)
	}
	if retries, _ := lost.RetryStats(); retries != 0 {
		t.Fatalf("ErrEpochRetry retried %d times", retries)
	}
}

// TestThrottledChargesByKind: data calls pay Latency plus their bytes,
// registration and epoch control pay only Latency, and sync, truncate,
// begin and end are free.
func TestThrottledChargesByKind(t *testing.T) {
	const lat = int64(time.Microsecond)
	th := NewThrottled(&memView{Mem: NewMem()}, 1e9, 1e9, time.Duration(lat)) // 1 ns per byte
	p := make([]byte, 10)
	segs := []Segment{{Off: 0, Buf: p[:4]}, {Off: 20, Buf: p[4:]}}
	for _, c := range []struct {
		name string
		fn   func()
		want int64
	}{
		{"WriteAt", func() { th.WriteAt(p, 0) }, lat + 10},
		{"ReadAt", func() { th.ReadAt(p, 0) }, lat + 10},
		{"WriteAtv", func() { th.WriteAtv(segs) }, lat + 10},
		{"ReadAtv", func() { th.ReadAtv(segs) }, lat + 10},
		{"ViewWrite", func() { th.ViewWrite(1, p, 0) }, lat + 10},
		{"ViewRead", func() { th.ViewRead(1, p, 0) }, lat + 10},
		{"RegisterView", func() { th.RegisterView(0, datatype.Byte) }, lat},
		{"EpochSeal", func() { th.EpochSeal(1) }, lat},
		{"EpochCommit", func() { th.EpochCommit(1) }, lat},
		{"EpochAbort", func() { th.EpochAbort(2) }, lat},
		{"Sync", func() { th.Sync() }, 0},
		{"Truncate", func() { th.Truncate(64) }, 0},
		{"EpochBegin", func() { th.EpochBegin(3) }, 0},
		{"EpochEnd", func() { th.EpochEnd(3) }, 0},
	} {
		before := th.debt.Load()
		c.fn()
		if got := th.debt.Load() - before; got != c.want {
			t.Errorf("%s charged %d ns, want %d", c.name, got, c.want)
		}
	}
}
