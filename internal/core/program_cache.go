package core

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/obs"
)

// The compiled-program memo cache.  A fileview's copy program depends
// only on the filetype tree, so programs are memoized process-wide and
// keyed by the same compact tree encoding that SetView registers with a
// view-capable backend (the server-side view registration payload minus
// its displacement prefix).  Handles never invalidate entries directly:
// SetView replaces the handle's program pointers, and the cache itself
// ages stale encodings out through its LRU cap — a re-register of a
// recent view (the common BTIO pattern of alternating views) is a hit,
// while a churn of distinct views evicts and recompiles.
const programCacheCap = 64

// progEntry is one memoized compile result.  prog may be nil: a type
// that declines compilation (no data, or beyond the compile limits) is
// cached too, so the decline is not re-derived on every SetView.
type progEntry struct {
	key  string
	prog *fotf.Program
}

// programCache is an LRU map from encoded datatype trees to compiled
// programs, with counters for the obs plane.
type programCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used; values are *progEntry

	hits      atomic.Int64
	compiles  atomic.Int64
	evictions atomic.Int64
	compileNs atomic.Int64
}

func newProgramCache(capacity int) *programCache {
	return &programCache{cap: capacity, m: make(map[string]*list.Element), lru: list.New()}
}

// programs is the process-wide cache; every File handle shares it, so
// the P ranks of an in-process world compile each exchanged fileview
// once, not P times.
var programs = newProgramCache(programCacheCap)

// lookup returns the memoized program for t (which may be nil when t
// declines compilation), compiling on miss.  enc is the compact tree
// encoding used as the key; pass nil to derive it from t.
func (pc *programCache) lookup(enc []byte, t *datatype.Type) (prog *fotf.Program, hit bool) {
	if enc == nil {
		enc = datatype.Encode(t)
	}
	key := string(enc)
	pc.mu.Lock()
	if el, ok := pc.m[key]; ok {
		pc.lru.MoveToFront(el)
		p := el.Value.(*progEntry).prog
		pc.mu.Unlock()
		pc.hits.Add(1)
		return p, true
	}
	pc.mu.Unlock()

	// Compile outside the lock: concurrent ranks of one world may race
	// to compile the same view, and the first result in wins.
	t0 := time.Now()
	p := fotf.Compile(t)
	pc.compileNs.Add(time.Since(t0).Nanoseconds())
	pc.compiles.Add(1)

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.m[key]; ok {
		pc.lru.MoveToFront(el)
		return el.Value.(*progEntry).prog, false
	}
	pc.m[key] = pc.lru.PushFront(&progEntry{key: key, prog: p})
	for pc.lru.Len() > pc.cap {
		old := pc.lru.Back()
		pc.lru.Remove(old)
		delete(pc.m, old.Value.(*progEntry).key)
		pc.evictions.Add(1)
	}
	return p, false
}

// size reports the resident entry count (for the obs gauge).
func (pc *programCache) size() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return int64(pc.lru.Len())
}

// registerProgramCacheMetrics exposes the process-wide program cache on
// a registry as gauges reading the cache's own atomics — zero cost on
// the compile/lookup path.  Registration is idempotent per registry
// (obs dedupes by name), so every Open may call it.
func registerProgramCacheMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("core_program_cache_size", "Compiled datatype programs resident in the memo cache.",
		programs.size)
	r.GaugeFunc("core_program_cache_evictions_total", "Programs evicted from the memo cache LRU.",
		programs.evictions.Load)
	r.GaugeFunc("core_program_compile_ns_total", "Nanoseconds spent compiling datatype programs.",
		programs.compileNs.Load)
}

// lookupProgram is the handle-side entry point: it memoizes the
// compiled program for t, accounting the hit or compile on this
// handle's Stats and metrics.  It returns nil — and the caller falls
// back to the recursive walk — when programs are disabled by the
// ablation, when t is contiguous-tiled (a single memmove needs no
// program), or when t declines compilation.
func (f *File) lookupProgram(enc []byte, t *datatype.Type) *fotf.Program {
	if f.opts.DisableProgram || t == nil || t.ContiguousTiled() {
		return nil
	}
	p, hit := programs.lookup(enc, t)
	if hit {
		f.add(stProgramCacheHits, 1)
	} else {
		f.add(stProgramCompiles, 1)
	}
	return p
}
