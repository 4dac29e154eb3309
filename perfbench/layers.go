package main

import (
	"sort"
	"time"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/trace"
)

// perLayer lists the per-layer metrics a --trace 1 run reports, in print
// order; BENCHMARK.json names the same set.  A metric that does not
// apply to a workload (a session counter on fig6-pack) reads 0.
var perLayer = []struct{ name, unit string }{
	{"fotf.program_pack_us", "us"},
	{"fotf.walk_pack_us", "us"},
	{"fotf.memcpy_us", "us"},
	{"fotf.program_vs_memcpy", "ratio"},
	{"fotf.program_groups", "count"},
	{"fotf.compile_us", "us"},
	{"datatype.encode_bytes", "B"},
	{"datatype.encode_us", "us"},
	{"core.open_us", "us"},
	{"core.setview_us", "us"},
	{"core.rank_skew_us", "us"},
	{"core.prereads_skipped_per_write", "count/op"},
	{"core.unexplained_share", "ratio"},
	{"mpi.msgs_per_op", "count/op"},
	{"mpi.payload_bytes_per_op", "B/op"},
	{"mpi.recv_wait_us_per_op", "us/op"},
	{"storage.calls_per_op", "count/op"},
	{"storage.vec_calls_per_op", "count/op"},
	{"storage.view_calls_per_op", "count/op"},
	{"storage.busy_us_per_write", "us/op"},
	{"storage.busy_us_per_read", "us/op"},
	{"storage.bytes_per_user_byte", "ratio"},
	{"storage.epoch_seal_us", "us"},
	{"storage.epoch_commit_us", "us"},
	{"storage.retries_per_op", "count/op"},
	{"storage.failed_calls", "count"},
	{"ioserver.round_trips_per_op", "count/op"},
	{"ioserver.server_backend_us_per_op", "us/op"},
	{"ioserver.journal_us_per_write", "us/op"},
	{"ioserver.journal_syncs_per_write", "count/op"},
	{"ioserver.net_us_per_op", "us/op"},
	{"ioserver.view_cache_hit_ratio", "ratio"},
	{"session.job_start_wait_us", "us"},
	{"session.call_p50_us", "us"},
	{"session.call_p90_us", "us"},
	{"session.queue_wait_p90_us", "us"},
	{"session.cache_absorb_share", "ratio"},
	{"session.cache_overlay_share", "ratio"},
	{"session.prefetch_hit_ratio", "ratio"},
	{"session.flushes_per_write", "count/op"},
	{"session.rejected", "count"},
	{"pool.hit_ratio", "ratio"},
	{"pool.bytes_alloc_per_op", "B/op"},
	{"go.allocs_per_op", "count/op"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_pause_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"self.session_us_per_op", "us/op"},
	{"self.core_us_per_op", "us/op"},
	{"self.storage_us_per_op", "us/op"},
	{"self.ioserver_us_per_op", "us/op"},
	{"ops_failed_frac", "ratio"},
}

// predictions is the written prediction table: which end-to-end metric
// each layer metric should move, on which workload.  A later change that
// claims a saving in a layer checks it against this table.
var predictions = []struct{ layer, e2e, workload string }{
	{"fotf.program_pack_us, fotf.walk_pack_us, fotf.memcpy_us, fotf.program_vs_memcpy, fotf.program_groups",
		"write_p50_us, read_p50_us", "fig6-pack; no change on tier-btio"},
	{"fotf.compile_us, datatype.encode_bytes, datatype.encode_us", "setup_s", "all"},
	{"core.open_us, core.setview_us", "setup_s", "all"},
	{"core.rank_skew_us", "write_p90_us", "fig6-pack, tier-btio, sessions-cached (collective)"},
	{"core.prereads_skipped_per_write", "write_p50_us", "tier-btio"},
	{"mpi.msgs_per_op, mpi.payload_bytes_per_op, mpi.recv_wait_us_per_op", "write_p50_us, read_p50_us (recv wait falls with pack time)", "fig6-pack"},
	{"storage.calls_per_op, storage.vec_calls_per_op, storage.view_calls_per_op, storage.busy_us_per_write, storage.busy_us_per_read, storage.bytes_per_user_byte",
		"write_p50_us", "fig5-indep-file"},
	{"storage.epoch_seal_us, storage.epoch_commit_us", "write_p50_us; read_p50_us unchanged", "tier-btio"},
	{"storage.retries_per_op, storage.failed_calls", "ops_failed_frac", "all"},
	{"ioserver.round_trips_per_op, ioserver.server_backend_us_per_op, ioserver.journal_us_per_write, ioserver.journal_syncs_per_write, ioserver.net_us_per_op, ioserver.view_cache_hit_ratio",
		"write_p50_us, read_p50_us", "tier-btio"},
	{"session.job_start_wait_us, session.call_p50_us, session.call_p90_us, session.queue_wait_p90_us, session.cache_absorb_share, session.cache_overlay_share, session.prefetch_hit_ratio, session.flushes_per_write",
		"write_p50_us, write_p90_us, agg_mbps", "sessions-cached"},
	{"session.rejected", "ops_failed_frac", "sessions-cached"},
	{"pool.hit_ratio, pool.bytes_alloc_per_op, go.allocs_per_op, go.alloc_bytes_per_op, go.gc_pause_share",
		"write_p90_us, rss_peak_mb", "fig6-pack"},
}

// opLayers is the traced breakdown of one op.
type opLayers struct {
	calls, vecCalls, viewCalls, failedCalls int64
	storageBusy, storageBytes               int64 // ns, B
	serverBusy, journalBusy, journalSyncs   int64
	storageU, serverU, callU                int64 // union lengths, ns
	seal, commit                            []int64
}

// breakdown attributes a traced run's spans to its measured ops.
func breakdown(d *runData) []opLayers {
	out := make([]opLayers, len(d.col.ops))
	for g, spans := range d.spans {
		ops, idx := groupOps(d, g)
		opOf := assignOps(ops, spans)
		byOp := map[int][]span{}
		for i, s := range spans {
			if opOf[i] >= 0 {
				byOp[opOf[i]] = append(byOp[opOf[i]], s)
			}
		}
		for k, ss := range byOp {
			o := ops[k]
			l := &out[idx[k]]
			var st, srv, calls []interval
			for _, s := range ss {
				iv := interval{s.start, s.end}
				dur := s.end - s.start
				switch s.layer {
				case layerStorage:
					l.calls++
					if s.call.vectored() {
						l.vecCalls++
					}
					if s.call.view() {
						l.viewCalls++
					}
					if s.failed {
						l.failedCalls++
					}
					l.storageBusy += dur
					l.storageBytes += s.bytes
					st = append(st, iv)
					switch s.call {
					case callEpochSeal:
						l.seal = append(l.seal, dur)
					case callEpochCommit:
						l.commit = append(l.commit, dur)
					}
				case layerServer:
					l.serverBusy += dur
					srv = append(srv, iv)
				case layerJournal:
					l.journalBusy += dur
					if s.call == callSync {
						l.journalSyncs++
					}
					srv = append(srv, iv)
				case layerCall:
					calls = append(calls, iv)
				}
			}
			l.storageU = unionLen(st, o.start, o.end)
			l.serverU = unionLen(srv, o.start, o.end)
			l.callU = unionLen(calls, o.start, o.end)
		}
	}
	return out
}

// replayStats is one call's bytes replayed through fotf and datatype on
// the workload's own rank-0 types: pack the memtype's data, then
// scatter it into a file window through the filetype, as one IOP window
// of the collective does.
type replayStats struct {
	programUs, walkUs, memcpyUs, compileUs, encodeUs float64
	groups, encodeBytes                              int64
}

func replay(mt, ft *datatype.Type) replayStats {
	const reps = 21
	n := ft.Size()
	src := make([]byte, mt.Extent())
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	packed := make([]byte, n)
	win := make([]byte, ft.Extent())
	var compile, prog, walk, mem, enc []float64
	var pm, pf *fotf.Program
	var encoded []byte
	for i := 0; i < reps; i++ {
		t := time.Now()
		pm, pf = fotf.Compile(mt), fotf.Compile(ft)
		compile = append(compile, usSince(t))

		t = time.Now()
		if pm != nil {
			pm.PackCount(packed, src, 1, 0)
		} else {
			fotf.PackCount(packed, src, 1, mt, 0)
		}
		if pf != nil {
			pf.CopyRange(packed, win, 0, n, 0, false)
		} else {
			fotf.CopyRange(packed, win, ft, 0, n, 0, false)
		}
		prog = append(prog, usSince(t))

		t = time.Now()
		fotf.PackCount(packed, src, 1, mt, 0)
		fotf.CopyRange(packed, win, ft, 0, n, 0, false)
		walk = append(walk, usSince(t))

		t = time.Now()
		copy(packed, src[:n])
		copy(win[:n], packed)
		mem = append(mem, usSince(t))

		t = time.Now()
		encoded = datatype.Encode(ft)
		enc = append(enc, usSince(t))
	}
	rs := replayStats{programUs: median(prog), walkUs: median(walk), memcpyUs: median(mem),
		compileUs: median(compile), encodeUs: median(enc), encodeBytes: int64(len(encoded))}
	if pm != nil {
		rs.groups += int64(pm.Groups())
	}
	if pf != nil {
		rs.groups += int64(pf.Groups())
	}
	return rs
}

// layers sets the per-layer metrics from the untraced run a (program
// counters: mpi, pool, Go runtime) and the traced run b (everything
// timed from outside), and prints the layer report.
func layers(rep *report, w *workload, cfg runConfig, a, b *runData) {
	vals := map[string]float64{}
	if mt, ft, err := w.types(cfg.scale()); err == nil {
		rs := replay(mt, ft)
		vals["fotf.program_pack_us"] = rs.programUs
		vals["fotf.walk_pack_us"] = rs.walkUs
		vals["fotf.memcpy_us"] = rs.memcpyUs
		vals["fotf.program_vs_memcpy"] = ratio(rs.programUs, rs.memcpyUs)
		vals["fotf.program_groups"] = float64(rs.groups)
		vals["fotf.compile_us"] = rs.compileUs
		vals["datatype.encode_bytes"] = float64(rs.encodeBytes)
		vals["datatype.encode_us"] = rs.encodeUs
	}
	vals["core.open_us"] = median(b.openUs)
	vals["core.setview_us"] = median(b.setviewUs)

	// Untraced program counters.
	var msgs, bytes, recvWait float64
	for _, k := range a.col.agg.kinds {
		msgs += float64(k.msgs)
		bytes += float64(k.bytes)
		recvWait += float64(k.recvNs)
	}
	vals["mpi.msgs_per_op"] = perOp(msgs, a)
	vals["mpi.payload_bytes_per_op"] = perOp(bytes, a)
	vals["mpi.recv_wait_us_per_op"] = perOp(recvWait/1e3, a)
	gets := float64(a.end.pool.Gets - a.begin.pool.Gets)
	vals["pool.hit_ratio"] = ratio(float64(a.end.pool.Hits-a.begin.pool.Hits), gets)
	vals["pool.bytes_alloc_per_op"] = perOp(float64(a.end.pool.BytesAlloc-a.begin.pool.BytesAlloc), a)
	vals["go.allocs_per_op"] = perOp(float64(a.end.mallocs-a.begin.mallocs), a)
	vals["go.alloc_bytes_per_op"] = perOp(float64(a.end.alloc-a.begin.alloc), a)
	vals["go.gc_pause_share"] = ratio(float64(a.end.pauseNs-a.begin.pauseNs), float64(a.end.at.Sub(a.begin.at).Nanoseconds()))

	// Traced breakdown.
	bl := breakdown(b)
	var (
		nOps, nW                                    float64
		calls, vec, view, failedCalls               float64
		busyW, busyR, sBytes, userBytes             float64
		srvBusy, jBusy, jBusyW, jSyncsW             float64
		skews, seals, commits                       []float64
		prereadsW, latSum, explained                float64
		selfSession, selfCore, selfStorage, selfSrv float64
		startWait, callLat                          []float64
	)
	packUs := vals["fotf.program_pack_us"]
	var qwMeanUs float64
	if b.sess != nil {
		var sum, cnt float64
		for g := range b.sess.end {
			dq := queueWaitDelta(b.sess.begin[g].QueueWait, b.sess.end[g].QueueWait)
			sum += float64(dq.Sum)
			cnt += float64(dq.Count)
		}
		qwMeanUs = ratio(sum, cnt) / 1e3
	}
	for i, o := range b.col.ops {
		if o.warm {
			continue
		}
		l := bl[i]
		nOps++
		calls += float64(l.calls)
		vec += float64(l.vecCalls)
		view += float64(l.viewCalls)
		failedCalls += float64(l.failedCalls)
		sBytes += float64(l.storageBytes)
		userBytes += float64(o.userBytes)
		srvBusy += float64(l.serverBusy)
		jBusy += float64(l.journalBusy)
		if o.kind == opWrite {
			nW++
			busyW += float64(l.storageBusy)
			jBusyW += float64(l.journalBusy)
			jSyncsW += float64(l.journalSyncs)
			prereadsW += float64(o.cnt.PreReadsSkipped)
		} else {
			busyR += float64(l.storageBusy)
		}
		skews = append(skews, float64(o.skew)/1e3)
		for _, s := range l.seal {
			seals = append(seals, float64(s)/1e3)
		}
		for _, c := range l.commit {
			commits = append(commits, float64(c)/1e3)
		}
		span := float64(o.end - o.start)
		latSum += float64(o.lat)
		// Outside-timed self time: storage under the op, one rank's
		// replayed pack, and in a session the start and queue waits.
		// Receive wait is left out: ranks mostly wait on each other's
		// storage and pack time, which is already counted.
		ex := float64(l.storageU) + packUs*1e3
		if b.sess != nil {
			startWait = append(startWait, float64(o.startWait)/1e3)
			callLat = append(callLat, float64(o.call)/1e3)
			ex += float64(o.startWait) + qwMeanUs*1e3
			selfSession += span - float64(l.callU)
			selfCore += float64(l.callU - l.storageU)
		} else {
			selfCore += span - float64(l.storageU)
		}
		explained += ex
		selfStorage += float64(l.storageU - l.serverU)
		selfSrv += float64(l.serverU)
	}
	nR := nOps - nW
	vals["core.rank_skew_us"] = median(skews)
	vals["core.prereads_skipped_per_write"] = ratio(prereadsW, nW)
	vals["core.unexplained_share"] = 1 - ratio(explained, latSum)
	vals["storage.calls_per_op"] = ratio(calls, nOps)
	vals["storage.vec_calls_per_op"] = ratio(vec, nOps)
	vals["storage.view_calls_per_op"] = ratio(view, nOps)
	vals["storage.busy_us_per_write"] = ratio(busyW/1e3, nW)
	vals["storage.busy_us_per_read"] = ratio(busyR/1e3, nR)
	vals["storage.bytes_per_user_byte"] = ratio(sBytes, userBytes)
	vals["storage.epoch_seal_us"] = median(seals)
	vals["storage.epoch_commit_us"] = median(commits)
	vals["storage.retries_per_op"] = ratio(float64(b.end.retries-b.begin.retries), nOps)
	vals["storage.failed_calls"] = failedCalls
	vals["ioserver.round_trips_per_op"] = ratio(float64(b.end.rounds-b.begin.rounds), nOps)
	vals["ioserver.server_backend_us_per_op"] = ratio(srvBusy/1e3, nOps)
	vals["ioserver.journal_us_per_write"] = ratio(jBusyW/1e3, nW)
	vals["ioserver.journal_syncs_per_write"] = ratio(jSyncsW, nW)
	if b.end.rounds > 0 {
		vals["ioserver.net_us_per_op"] = ratio((busyW+busyR-srvBusy-jBusy)/1e3, nOps)
	}
	hits, regs := float64(b.end.server.ViewCacheHits), float64(b.end.server.ViewRegistrations)
	vals["ioserver.view_cache_hit_ratio"] = ratio(hits, hits+regs)
	if b.sess != nil {
		vals["session.job_start_wait_us"] = median(startWait)
		vals["session.call_p50_us"] = quantile(callLat, 0.5)
		vals["session.call_p90_us"] = quantile(callLat, 0.9)
		var qw trace.Histogram
		var absorbed, overlay, hitsC, missC, flushes, rejected float64
		for g := range b.sess.end {
			e, s := b.sess.end[g], b.sess.begin[g]
			qw.MergeData(queueWaitDelta(s.QueueWait, e.QueueWait))
			absorbed += float64(e.Cache.AbsorbedBytes - s.Cache.AbsorbedBytes)
			overlay += float64(e.Cache.OverlayBytes - s.Cache.OverlayBytes)
			hitsC += float64(e.Cache.Hits - s.Cache.Hits)
			missC += float64(e.Cache.Misses - s.Cache.Misses)
			flushes += float64(e.Cache.Flushes - s.Cache.Flushes)
			rejected += float64(e.Rejected - s.Rejected)
		}
		written, read := float64(b.bytesPerCall*int64(b.ranks))*nW, float64(b.bytesPerCall*int64(b.ranks))*nR
		vals["session.queue_wait_p90_us"] = float64(qw.Quantile(0.9)) / 1e3
		vals["session.cache_absorb_share"] = ratio(absorbed, written)
		vals["session.cache_overlay_share"] = ratio(overlay, read)
		vals["session.prefetch_hit_ratio"] = ratio(hitsC, hitsC+missC)
		vals["session.flushes_per_write"] = ratio(flushes, nW)
		vals["session.rejected"] = rejected
	}

	// Tracing overhead: traced p50 over untraced p50, per kind; the
	// larger of the two is reported.
	var over []float64
	for _, kind := range []opKind{opWrite, opRead} {
		pa, pb := a.col.agg.kinds[kind].lat.quantile(0.5)/1e3, b.col.agg.kinds[kind].lat.quantile(0.5)/1e3
		o := ratio(pb, pa) - 1
		over = append(over, o)
		rep.printf("trace overhead, %s p50: untraced %.2f us, traced %.2f us (%+.1f%%)", kind, pa, pb, 100*o)
	}
	sort.Float64s(over)
	vals["trace.overhead_share"] = over[len(over)-1]
	vals["self.session_us_per_op"] = ratio(selfSession/1e3, nOps)
	vals["self.core_us_per_op"] = ratio(selfCore/1e3, nOps)
	vals["self.storage_us_per_op"] = ratio(selfStorage/1e3, nOps)
	vals["self.ioserver_us_per_op"] = ratio(selfSrv/1e3, nOps)
	failedA := a.col.agg.failed
	if a.imageErr != nil {
		failedA++
	}
	vals["ops_failed_frac"] = float64(failedA) / float64(a.col.agg.ops+1)

	for _, m := range perLayer {
		rep.set(m.name, m.unit, vals[m.name])
	}
	layerReport(rep, w, vals, nOps, stealShare(a), stealShare(b))
}

// layerReport prints the per-layer self times, the metrics, and the
// prediction table.
func layerReport(rep *report, w *workload, vals map[string]float64, nOps, stealA, stealB float64) {
	rep.printf("layer report for %s (%.0f measured ops in the traced run)", w.name, nOps)
	rep.printf("  self time per op: session %.2f us, core %.2f us, storage %.2f us, ioserver stripe+journal %.2f us",
		vals["self.session_us_per_op"], vals["self.core_us_per_op"], vals["self.storage_us_per_op"], vals["self.ioserver_us_per_op"])
	rep.printf("  core.unexplained_share %.3f  (1 - outside-timed self time / op latency)", vals["core.unexplained_share"])
	rep.printf("  trace.overhead_share %.3f", vals["trace.overhead_share"])
	rep.printf("  host steal during the measured phase: untraced %.1f%%, traced %.1f%% of CPU time", 100*stealA, 100*stealB)
	for _, m := range perLayer {
		rep.printf("  %-36s %14.4f %s", m.name, vals[m.name], m.unit)
	}
	rep.printf("prediction table (layer metric -> end-to-end metric -> workload):")
	for _, p := range predictions {
		rep.printf("  %s -> %s -> %s", p.layer, p.e2e, p.workload)
	}
}
