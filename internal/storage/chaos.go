package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ChaosConfig sets the per-operation injection probabilities of a Chaos
// backend.  All probabilities are independent and evaluated in the order
// latency spike → permanent → transient → short read / torn write; a
// probability ≤ 0 disables that fault class.
type ChaosConfig struct {
	// TransientRead / TransientWrite inject a recoverable failure: the
	// operation does nothing and returns an error wrapping ErrTransient.
	TransientRead, TransientWrite float64
	// PermanentRead / PermanentWrite inject a non-recoverable failure
	// wrapping ErrPermanent.
	PermanentRead, PermanentWrite float64
	// ShortRead delivers only a prefix of the requested bytes, with a
	// transient error reporting the truncation.
	ShortRead float64
	// TornWrite persists only a prefix of the buffer, with a transient
	// error — the classic partially-applied write of a crashed server.
	TornWrite float64
	// LatencySpike stalls the operation for a random duration up to
	// MaxLatency (default 1ms) before it proceeds.
	LatencySpike float64
	MaxLatency   time.Duration
}

// TransientOnly returns a configuration injecting only recoverable
// faults — transient errors, short reads, torn writes, latency spikes —
// so that a Resilient wrapper rides out every injection.
func TransientOnly() ChaosConfig {
	return ChaosConfig{
		TransientRead:  0.08,
		TransientWrite: 0.08,
		ShortRead:      0.04,
		TornWrite:      0.04,
		LatencySpike:   0.02,
		MaxLatency:     200 * time.Microsecond,
	}
}

// ChaosStats counts the faults a Chaos backend injected.
type ChaosStats struct {
	Transients, Permanents int64
	ShortReads, TornWrites int64
	LatencySpikes          int64
}

// Total is the number of error-producing injections (spikes excluded).
func (s ChaosStats) Total() int64 {
	return s.Transients + s.Permanents + s.ShortReads + s.TornWrites
}

// Chaos wraps a Backend with seeded probabilistic fault injection,
// generalizing the count-based Faulty: every failure sequence is fully
// reproducible from the seed, which is what lets the chaos harness and
// CI replay an exact fault schedule.  Safe for concurrent use; the
// draw order (and therefore the schedule) depends on operation
// interleaving, so reproducibility is per-(seed, interleaving).
//
// Each data call — contiguous, vectored (one draw per batch) or view
// transfer — is one injection point.  View transfers are all-or-nothing
// on the wire, so they get spikes and transient/permanent failures but
// no short reads or torn writes.  Registration, epoch control, truncate
// and sync are control traffic and pass through uninjected.
type Chaos struct {
	spine
	cfg ChaosConfig
	tr  *trace.Tracer // optional fault-instant recording (see SetTracer)

	mu  sync.Mutex
	rng *rand.Rand

	sleep func(time.Duration) // test seam

	transients, permanents atomic.Int64
	shortReads, tornWrites atomic.Int64
	latencySpikes          atomic.Int64
}

// NewChaos wraps b with fault injection drawn from a PRNG seeded with
// seed.
func NewChaos(seed int64, b Backend, cfg ChaosConfig) *Chaos {
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = time.Millisecond
	}
	c := &Chaos{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		sleep: time.Sleep,
	}
	c.spine = spine{in: b, pol: c}
	return c
}

// Stats returns a snapshot of the injection counters.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Transients:    c.transients.Load(),
		Permanents:    c.permanents.Load(),
		ShortReads:    c.shortReads.Load(),
		TornWrites:    c.tornWrites.Load(),
		LatencySpikes: c.latencySpikes.Load(),
	}
}

// hit draws one Bernoulli trial with probability p.
func (c *Chaos) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	v := c.rng.Float64()
	c.mu.Unlock()
	return v < p
}

// cut draws a strict prefix length in [1, n).
func (c *Chaos) cut(n int) int {
	c.mu.Lock()
	v := 1 + c.rng.Intn(n-1)
	c.mu.Unlock()
	return v
}

func (c *Chaos) maybeSpike(off int64) {
	if !c.hit(c.cfg.LatencySpike) {
		return
	}
	c.latencySpikes.Add(1)
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(c.cfg.MaxLatency)))
	c.mu.Unlock()
	c.instant(trace.PhaseChaosSpike, off, 0, "stalled %v", d)
	c.sleep(d)
}

// SetTracer arms a Chaos backend to emit an instant event for every
// injected fault, tagging the trace timeline with the exact offset and
// fault class.  Must be called before the backend is shared across
// goroutines.
func (c *Chaos) SetTracer(tr *trace.Tracer) { c.tr = tr }

// instant records a fault injection on the trace, skipping the detail
// formatting entirely when tracing is off.
func (c *Chaos) instant(ph trace.Phase, off, n int64, format string, args ...any) {
	if !c.tr.Enabled() {
		return
	}
	c.tr.Instant(ph, off, n, fmt.Sprintf(format, args...))
}

// around injects faults in the order spike → permanent → transient →
// short read / torn write.  A short read delivers, and a torn write
// persists, a strict prefix of the call and reports a transient error.
func (c *Chaos) around(cl call) (int64, error) {
	dir, pPerm, pTrans, pCut := "read", c.cfg.PermanentRead, c.cfg.TransientRead, c.cfg.ShortRead
	cut, cuts, cutPh := "short read", &c.shortReads, trace.PhaseChaosShortRead
	switch {
	case cl.kind.writes():
		dir, pPerm, pTrans, pCut = "write", c.cfg.PermanentWrite, c.cfg.TransientWrite, c.cfg.TornWrite
		cut, cuts, cutPh = "torn write", &c.tornWrites, trace.PhaseChaosTornWrite
	case !cl.kind.reads():
		return cl.run()
	}
	c.maybeSpike(cl.off)
	if c.hit(pPerm) {
		c.permanents.Add(1)
		return 0, c.fault(cl, dir, "permanent", trace.PhaseChaosPermanent, ErrPermanent)
	}
	if c.hit(pTrans) {
		c.transients.Add(1)
		return 0, c.fault(cl, dir, "transient", trace.PhaseChaosTransient, ErrTransient)
	}
	if cl.kind.view() || cl.n <= 1 || !c.hit(pCut) {
		return cl.run()
	}
	cuts.Add(1)
	n, err := cl.clip(int64(c.cut(int(cl.n)))).run()
	if err != nil {
		return n, err
	}
	c.instant(cutPh, cl.off, n, "%d of %d bytes", n, cl.n)
	return n, fmt.Errorf("storage: chaos %s (%d of %d bytes) at offset %d: %w", cut, n, cl.n, cl.off, ErrTransient)
}

// fault records and builds one injected failure of the given class.
func (c *Chaos) fault(cl call, dir, class string, ph trace.Phase, cause error) error {
	if cl.kind.view() {
		c.instant(trace.PhaseChaosViewOp, cl.off, cl.n, "view %s fault (%s)", dir, class)
		return fmt.Errorf("storage: chaos view %s fault at data offset %d: %w", dir, cl.off, cause)
	}
	if cl.kind.vectored() {
		c.instant(ph, cl.off, cl.n, "vectored %s fault", dir)
	} else {
		c.instant(ph, cl.off, cl.n, "%s fault", dir)
	}
	return fmt.Errorf("storage: chaos %s fault at offset %d: %w", dir, cl.off, cause)
}

// clipSegs returns a batch covering exactly the first n bytes of segs
// (n < total), splitting the boundary segment.
func clipSegs(segs []Segment, n int64) []Segment {
	out := make([]Segment, 0, len(segs))
	for _, s := range segs {
		l := int64(len(s.Buf))
		if n <= 0 {
			break
		}
		if l > n {
			out = append(out, Segment{Off: s.Off, Buf: s.Buf[:n]})
			break
		}
		out = append(out, s)
		n -= l
	}
	return out
}
