package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/pool"
	"repro/internal/storage"
)

// runConfig is what one run of a workload takes.
type runConfig struct {
	Seed    int64
	Seconds float64 // measured phase, after the warm-up
	Dir     string  // scratch directory for file-backed storage
	// Scale divides the per-call data volume (N_block); 1 in real runs,
	// larger in the self-test.
	Scale int
	// MinPerKind is the least number of measured calls of each kind
	// (write, read) a run makes, so that p90 has ten samples beyond it.
	MinPerKind int
	// SetupReps is how many times set-up is timed for setup_s.
	SetupReps int
	// Inject, when set, wraps the mounted backend (the self-test injects
	// a storage.Faulty here).
	Inject func(storage.Backend) storage.Backend
}

func (c runConfig) minPerKind() int {
	if c.MinPerKind > 0 {
		return c.MinPerKind
	}
	return 100
}

func (c runConfig) setupReps() int {
	if c.SetupReps > 0 {
		return c.SetupReps
	}
	return 31
}

func (c runConfig) scale() int64 {
	if c.Scale > 1 {
		return int64(c.Scale)
	}
	return 1
}

// warmup is the part of a run before the measured phase: caches, pools
// and lazily built state settle, and no op of it enters a metric.
func (c runConfig) warmup() time.Duration {
	return time.Duration(min(1.0, c.Seconds/10) * float64(time.Second))
}

// workload is one benchmark workload.
type workload struct {
	name string
	// why is the one-line reason the workload is in the benchmark.
	why   string
	ranks int // ranks per world
	// bytesPerCall and fileBytes describe the inputs at a given scale:
	// user bytes each process moves per call, and the file size.
	bytesPerCall func(scale int64) int64
	fileBytes    func(scale int64) int64
	// types returns rank 0's memtype and filetype, which the fotf and
	// datatype replays run on.
	types func(scale int64) (mt, ft *datatype.Type, err error)
	run   func(cfg runConfig, traced bool) (*runData, error)
}

var workloads []*workload

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

type opKind uint8

const (
	opWrite opKind = iota
	opRead
)

func (k opKind) String() string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

// coreCounts are the per-op work counters core.Stats reports: how the
// engine reached storage.  They must read the same in traced and
// untraced runs.
type coreCounts struct {
	PreReadsSkipped, SieveReads, SieveWrites        int64
	VectoredReads, VectoredWrites                   int64
	ViewReads, ViewWrites, EpochsCommitted, Retries int64
}

func coreDelta(now, before core.Stats) coreCounts {
	d := now.Sub(before)
	return coreCounts{
		PreReadsSkipped: d.PreReadsSkipped, SieveReads: d.SieveReads, SieveWrites: d.SieveWrites,
		VectoredReads: d.VectoredReads, VectoredWrites: d.VectoredWrites,
		ViewReads: d.ViewReads, ViewWrites: d.ViewWrites,
		EpochsCommitted: d.EpochsCommitted, Retries: d.EpochRetries,
	}
}

func (c *coreCounts) add(o coreCounts) {
	c.PreReadsSkipped += o.PreReadsSkipped
	c.SieveReads += o.SieveReads
	c.SieveWrites += o.SieveWrites
	c.VectoredReads += o.VectoredReads
	c.VectoredWrites += o.VectoredWrites
	c.ViewReads += o.ViewReads
	c.ViewWrites += o.ViewWrites
	c.EpochsCommitted += o.EpochsCommitted
	c.Retries += o.Retries
}

// rankOp is one rank's view of one op.
type rankOp struct {
	t0, t1      int64 // call entry and return, ns since the run base
	failed      bool  // error or mis-verified read
	msgs, bytes int64 // messages and payload bytes this rank sent during the call
	recvWait    int64 // ns this rank spent blocked in Recv during the call
	cnt         coreCounts
}

// op is one closed-loop operation: a collective (or, in fig5, a round of
// independent calls started at one barrier), or a session job.
type op struct {
	kind       opKind
	group      int   // session index; 0 outside sessions-cached
	start, end int64 // the op span: first entry to last return
	lat        int64 // the op's latency: the slowest rank's call (job: Submit..Wait)
	skew       int64 // last minus first rank return
	call       int64 // sessions: slowest rank's collective inside the job
	startWait  int64 // sessions: Submit to JobFunc entry on rank 0
	failed     bool
	warm       bool // before the measured phase
	userBytes  int64
	msgs       int64
	bytes      int64
	recvWait   int64 // summed over ranks
	cnt        coreCounts
}

// combine merges the ranks' records of one op.
func combine(rs []rankOp, kind opKind, warm bool, bytesPerCall int64) op {
	o := op{kind: kind, warm: warm, userBytes: int64(len(rs)) * bytesPerCall}
	firstRet := int64(math.MaxInt64)
	for r, ro := range rs {
		if r == 0 || ro.t0 < o.start {
			o.start = ro.t0
		}
		o.end = max(o.end, ro.t1)
		o.lat = max(o.lat, ro.t1-ro.t0)
		firstRet = min(firstRet, ro.t1)
		o.failed = o.failed || ro.failed
		o.msgs += ro.msgs
		o.bytes += ro.bytes
		o.recvWait += ro.recvWait
		o.cnt.add(ro.cnt)
	}
	o.skew = o.end - firstRet
	return o
}

// clock decides, at cycle boundaries, when the warm-up ends and when
// the run stops.  Only the deciding goroutine (rank 0, or a session's
// client loop) calls decide; every rank reads the decision after the
// barrier that follows it, so all ranks agree on both op indices.
type clock struct {
	cycle         []opKind
	minPerKind    int
	warmFor       time.Duration
	runFor        time.Duration
	start         time.Time
	warmStart     time.Time
	warmAt        atomic.Int64
	stopAt        atomic.Int64
	writesPerLoop int
}

func newClock(cfg runConfig, cycle []opKind) *clock {
	c := &clock{cycle: cycle, minPerKind: cfg.minPerKind(), warmFor: cfg.warmup(),
		runFor: time.Duration(cfg.Seconds * float64(time.Second)), start: time.Now()}
	for _, k := range cycle {
		if k == opWrite {
			c.writesPerLoop++
		}
	}
	c.warmAt.Store(-1)
	c.stopAt.Store(-1)
	return c
}

func (c *clock) kindAt(i int) opKind { return c.cycle[i%len(c.cycle)] }

// decide is called before op i starts.  It ends the warm-up after
// warmFor (and at least two cycles), and stops the run once runFor has
// passed in the measured phase and every kind has minPerKind measured
// calls — or, whatever the counts, after twice runFor.
func (c *clock) decide(i int) {
	n := len(c.cycle)
	if i%n != 0 {
		return
	}
	now := time.Now()
	warm := int(c.warmAt.Load())
	if warm < 0 {
		if i >= 2*n && now.Sub(c.start) >= c.warmFor {
			c.warmAt.Store(int64(i))
			c.warmStart = now
		}
		return
	}
	if c.stopAt.Load() >= 0 {
		return
	}
	el := now.Sub(c.warmStart)
	loops := (i - warm) / n
	w, r := loops*c.writesPerLoop, loops*(n-c.writesPerLoop)
	if (el >= c.runFor && w >= c.minPerKind && r >= c.minPerKind) || el >= 2*c.runFor {
		c.stopAt.Store(int64(i))
	}
}

func (c *clock) stopped(i int) bool {
	s := c.stopAt.Load()
	return s >= 0 && int64(i) >= s
}

// snap is a snapshot of process-wide counters at a measured-phase edge.
type snap struct {
	rounds, retries int64
	server          ioserver.ServerStats
	pool            pool.Stats
	mallocs, alloc  uint64
	pauseNs         uint64
	at              time.Time
	// steal and cpuTotal are the machine's CPU ticks stolen by the
	// hypervisor and spent in all states (/proc/stat).  Steal slows
	// every metric and is outside the program, so each run reports it.
	steal, cpuTotal int64
}

func takeSnap(m *mount) snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{pool: pool.Global.Stats(), mallocs: ms.Mallocs, alloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, at: time.Now()}
	s.steal, s.cpuTotal = cpuTicks()
	if m != nil {
		if m.rounds != nil {
			s.rounds = m.rounds()
		}
		if m.retries != nil {
			s.retries = m.retries()
		}
		if m.server != nil {
			s.server = m.server()
		}
	}
	return s
}

// cpuTicks reads the steal and total ticks of the "cpu" line of
// /proc/stat; both read 0 where it is missing.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// runData is everything one run measured, untraced or traced.
type runData struct {
	traced       bool
	ranks        int // ranks per world
	bytesPerCall int64
	col          *collector
	setup        []float64 // seconds, one per timed set-up
	openUs       []float64 // slowest rank's core.Open, per set-up
	setviewUs    []float64 // slowest rank's first SetView, per set-up
	rssPeakMB    float64
	begin, end   snap
	spans        [][]span // per group, traced runs only
	imageErr     error
	opErrs       []string
	sess         *sessionData
}

func (d *runData) noteErr(err error) {
	if len(d.opErrs) < 5 {
		d.opErrs = append(d.opErrs, err.Error())
	}
}

// resetPeakRSS restarts the kernel's peak-RSS tracking for this process,
// so rss_peak_mb covers the workload alone and not the set-up timings
// before it.  Kernels without clear_refs keep the whole-process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the peak resident set, in MB (1e6 B).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// assignOps maps each span to the op whose interval contains its start
// (-1 when it started outside every op: set-up, teardown, the gaps at
// barriers).  ops are one group's, in the order they ran, and spans are
// sorted by start.
func assignOps(ops []op, spans []span) []int {
	out := make([]int, len(spans))
	j := 0
	for i, s := range spans {
		for j < len(ops) && ops[j].end < s.start {
			j++
		}
		out[i] = -1
		if j < len(ops) && ops[j].start <= s.start {
			out[i] = j
		}
	}
	return out
}
