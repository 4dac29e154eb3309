package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// endToEnd lists the end-to-end metrics a --trace 0 run reports, in
// print order; BENCHMARK.json names the same set.
var endToEnd = []struct{ name, unit string }{
	{"write_p50_us", "us"},
	{"write_p90_us", "us"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"write_mbps_pp", "MB/s"},
	{"read_mbps_pp", "MB/s"},
	{"agg_mbps", "MB/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// benchmark runs a workload and builds its report: the untraced run
// alone for --trace 0; the untraced run, then the traced run, for
// --trace 1.  traceDir, when set, receives the traced run's spans.
func benchmark(w *workload, cfg runConfig, traced bool, traceDir string) report {
	rep := report{Result: result{Metrics: map[string]metric{}}}
	if traced {
		cfg.Seconds /= 2
	}
	a, err := w.run(cfg, false)
	if err != nil {
		rep.printf("%s: untraced run failed: %v", w.name, err)
		rep.Result.Attempted, rep.Result.Failed = 1, 1
		return rep
	}
	failed, attempted := outcome(&rep, w, a)
	if !traced {
		e2e(&rep, a)
	} else {
		b, err := w.run(cfg, true)
		if err != nil {
			rep.printf("%s: traced run failed: %v", w.name, err)
			failed++
		} else {
			bf, ba := outcome(&rep, w, b)
			failed, attempted = failed+bf, attempted+ba
			if !countsAgree(&rep, a, b) {
				failed++
			}
			layers(&rep, w, cfg, a, b)
			if traceDir != "" {
				if err := writeTraces(traceDir, w.name, b); err != nil {
					rep.printf("writing the trace: %v", err)
				}
			}
		}
	}
	rep.Result.Attempted, rep.Result.Failed = attempted, failed
	rep.Result.Correct = failed == 0
	return rep
}

// outcome counts a run's ops and failures, the final image check
// counting as one more verified op, and prints what failed.
func outcome(rep *report, w *workload, d *runData) (failed, attempted int64) {
	attempted, failed = d.col.agg.ops+1, d.col.agg.failed
	kind := "untraced"
	if d.traced {
		kind = "traced"
	}
	for _, e := range d.opErrs {
		rep.printf("%s %s: %s", w.name, kind, e)
	}
	if d.imageErr != nil {
		failed++
		rep.printf("%s %s: final file image: %v", w.name, kind, d.imageErr)
	} else {
		rep.printf("%s %s: %d ops, every read verified: %v; file image matches the oracle", w.name, kind, d.col.agg.ops, failed == 0)
	}
	rep.printf("%s %s: ops_failed_frac %.6g (%d of %d)", w.name, kind, float64(failed)/float64(attempted), failed, attempted)
	return failed, attempted
}

// e2e sets the end-to-end metrics of an untraced run.
func e2e(rep *report, d *runData) {
	a := &d.col.agg
	wk, rk := &a.kinds[opWrite], &a.kinds[opRead]
	vals := map[string]float64{
		"write_p50_us": wk.lat.quantile(0.5) / 1e3,
		"write_p90_us": wk.lat.quantile(0.9) / 1e3,
		"read_p50_us":  rk.lat.quantile(0.5) / 1e3,
		"read_p90_us":  rk.lat.quantile(0.9) / 1e3,
		// Bpp: user bytes per process over the summed call time (B/ns
		// times 1e3 is MB/s with 1 MB = 1e6 B).
		"write_mbps_pp": ratio(float64(d.bytesPerCall)*float64(wk.n), wk.latSum) * 1e3,
		"read_mbps_pp":  ratio(float64(d.bytesPerCall)*float64(rk.n), rk.latSum) * 1e3,
		"agg_mbps":      ratio(float64(a.userBytes), float64(a.last-a.first)) * 1e3,
		"setup_s":       median(d.setup),
		"rss_peak_mb":   d.rssPeakMB,
	}
	counts := map[string]int64{"write_p50_us": wk.n, "write_p90_us": wk.n, "read_p50_us": rk.n,
		"read_p90_us": rk.n, "write_mbps_pp": wk.n, "read_mbps_pp": rk.n, "agg_mbps": a.measured,
		"setup_s": int64(len(d.setup)), "rss_peak_mb": 1}
	for _, m := range endToEnd {
		rep.set(m.name, m.unit, vals[m.name])
		rep.printf("%-14s %12.4f %-5s (n=%d)", m.name, vals[m.name], m.unit, counts[m.name])
	}
	rep.printf("setup_s samples: %.4g", d.setup)
	rep.printf("host steal during the measured phase: %.1f%% of CPU time", 100*stealShare(d))
}

// stealShare is the share of the machine's CPU time the hypervisor
// stole during the measured phase.
func stealShare(d *runData) float64 {
	return ratio(float64(d.end.steal-d.begin.steal), float64(d.end.cpuTotal-d.begin.cpuTotal))
}

// countsAgree checks that the traced run did the same work per op as
// the untraced one: messages and payload bytes sent, the core counters
// of how each op reached storage, and tier round trips.  A wrapper
// that dropped a capability (views, epochs) would change them.
func countsAgree(rep *report, a, b *runData) bool {
	ok := true
	for _, kind := range []opKind{opWrite, opRead} {
		ca, cb := perOpCounts(a, kind), perOpCounts(b, kind)
		if ca != cb {
			ok = false
			rep.printf("count check FAILED for %s ops: untraced %+v, traced %+v", kind, ca, cb)
		}
	}
	ra, rb := perOp(float64(a.end.rounds-a.begin.rounds), a), perOp(float64(b.end.rounds-b.begin.rounds), b)
	if math.Abs(ra-rb) > 1e-9*math.Max(1, ra) {
		ok = false
		rep.printf("count check FAILED: round trips per op untraced %.6g, traced %.6g", ra, rb)
	}
	if ok {
		rep.printf("count check: traced and untraced runs agree per op on messages, payload bytes, core storage counters and round trips (%.6g/op)", ra)
	}
	return ok
}

// opCounts is the per-op work of one kind, averaged over measured ops.
type opCounts struct {
	Msgs, Bytes, PreReadsSkipped, SieveReads, SieveWrites float64
	VectoredReads, VectoredWrites, ViewReads, ViewWrites  float64
	EpochsCommitted, EpochRetries                         float64
}

func perOpCounts(d *runData, kind opKind) opCounts {
	k := &d.col.agg.kinds[kind]
	if k.n == 0 {
		return opCounts{}
	}
	// Round so that averages of identical integer counts compare equal.
	r := func(x int64) float64 { return math.Round(float64(x)/float64(k.n)*1e6) / 1e6 }
	c := k.cnt
	return opCounts{r(k.msgs), r(k.bytes), r(c.PreReadsSkipped), r(c.SieveReads), r(c.SieveWrites),
		r(c.VectoredReads), r(c.VectoredWrites), r(c.ViewReads), r(c.ViewWrites),
		r(c.EpochsCommitted), r(c.Retries)}
}

// perOp divides a measured-phase total by the measured ops.
func perOp(total float64, d *runData) float64 {
	return ratio(total, float64(d.col.agg.measured))
}

// writeTraces writes one Chrome trace per group (world or session) of
// the traced run, replacing the workload's previous traces.
func writeTraces(dir, name string, d *runData) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for g, spans := range d.spans {
		ops, _ := groupOps(d, g)
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, g))
		if err := writeChrome(path, ops, spans, assignOps(ops, spans)); err != nil {
			return err
		}
	}
	return nil
}

// groupOps returns the ops of one group (a session, or the only world)
// in start order, with their indices in the run's kept ops.
func groupOps(d *runData, g int) ([]op, []int) {
	var ops []op
	var idx []int
	for i, o := range d.col.ops {
		if o.group == g {
			ops = append(ops, o)
			idx = append(idx, i)
		}
	}
	return ops, idx
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
