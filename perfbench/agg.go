package main

import (
	"math"
	"math/bits"
	"sync"
)

// The measured phase is summarized as it runs, in memory that does not
// grow with the number of ops: rss_peak_mb must describe the program,
// and a faster program runs more ops.  Only traced runs, which report no
// memory metric, keep every op.

// latHist is a log-linear histogram of nanosecond values with 1024
// sub-buckets per power of two: a quantile read from it is within 0.1%
// of the exact order statistic.
type latHist struct {
	counts []uint32
	n      int64
}

const (
	subBits    = 10
	histMaxExp = 31 // values up to 2^41 ns
)

func newLatHist() *latHist {
	return &latHist{counts: make([]uint32, (histMaxExp+2)<<subBits)}
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	e := min(bits.Len64(uint64(v))-subBits-1, histMaxExp)
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange returns the lowest value of bucket b and its width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := b>>subBits - 1
	m := b&(1<<subBits-1) + 1<<subBits
	return float64(int64(m) << e), float64(int64(1) << e)
}

func (h *latHist) add(v int64) {
	h.counts[min(bucketOf(v), len(h.counts)-1)]++
	h.n++
}

// quantile interpolates the q-quantile at rank q·(n-1), as quantile does
// on raw values, spreading each bucket's values evenly across it.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := q * float64(h.n-1)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > r {
			lo, w := bucketRange(b)
			return lo + (r-cum+0.5)/float64(c)*w
		}
		cum += float64(c)
	}
	return 0
}

// kindAgg summarizes the measured, successful ops of one kind.
type kindAgg struct {
	lat    *latHist // op latency, ns
	latSum float64  // ns
	n      int64
	msgs   int64
	bytes  int64
	recvNs int64
	cnt    coreCounts
}

// runAgg summarizes a run.
type runAgg struct {
	kinds       [2]kindAgg
	ops, failed int64 // every op, warm-up included
	measured    int64 // measured ops, failed included
	userBytes   int64 // measured ops
	first, last int64 // start of the first and end of the last measured op
}

// collector feeds ops into a runAgg, keeping each op too when asked.
type collector struct {
	mu   sync.Mutex
	agg  runAgg
	keep bool
	ops  []op
}

func newCollector(keep bool) *collector {
	c := &collector{keep: keep}
	c.agg.first = math.MaxInt64
	for k := range c.agg.kinds {
		c.agg.kinds[k].lat = newLatHist()
	}
	return c
}

func (c *collector) add(o op) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := &c.agg
	a.ops++
	if o.failed {
		a.failed++
	}
	if c.keep {
		c.ops = append(c.ops, o)
	}
	if o.warm {
		return
	}
	a.measured++
	a.userBytes += o.userBytes
	a.first, a.last = min(a.first, o.start), max(a.last, o.end)
	if o.failed {
		return
	}
	k := &a.kinds[o.kind]
	k.lat.add(o.lat)
	k.latSum += float64(o.lat)
	k.n++
	k.msgs += o.msgs
	k.bytes += o.bytes
	k.recvNs += o.recvWait
	k.cnt.add(o.cnt)
}
