// Command perfbench is the repository benchmark: four seeded,
// closed-loop workloads on the listless engine with default options,
// run from one process with goroutine ranks.
//
//	perfbench --workload fig6-pack --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (per-call latency
// quantiles, the paper's per-process bandwidth Bpp, aggregate bandwidth,
// set-up time, peak RSS) measured without any wrapper around the
// program.  With --trace 1 it runs the workload twice, untraced and then
// traced with timing wrappers at the layer boundaries, and prints the
// per-layer metrics and the layer report.  Every read is verified and
// the final file image is compared with a flat oracle built from the
// seed.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The command exits non-zero when any op fails or mis-verifies, when the
// file image differs from the oracle, or when the traced run's counts
// differ from the untraced run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// outDir, relative to the directory the benchmark runs in (the root of
// the checkout), holds scratch files, results and traces; run.sh builds
// into it too.
const outDir = ".bench_build"

// hardLimit bounds one invocation: a hung program must never hang the
// benchmark, so past this the process reports on stderr and exits
// without a result line.
const hardLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the payloads are generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase, in seconds")
		traced  = flag.Int("trace", 0, "1 runs the untraced and traced phases and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fail("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *seconds > 60 {
		fail("--seconds must be in (0, 60]")
	}
	if *traced != 0 && *traced != 1 {
		fail("--trace must be 0 or 1")
	}
	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *name, hardLimit)
		os.Exit(2)
	})

	scratch, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err != nil {
		fail("%v", err)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fail("%v", err)
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		fail("%v", err)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Dir: dir, Scale: 1}
	rep := benchmark(w, cfg, *traced == 1, filepath.Join(outDir, "traces"))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}

	rep.Stamp = stamp(w, cfg)
	for _, l := range rep.Lines {
		fmt.Println(l)
	}
	if b, err := json.Marshal(rep.Stamp); err == nil {
		fmt.Println("stamp:", string(b))
	}
	saveReport(outDir, w.name, *seed, *traced, rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one invocation produced: the result line, the
// human-readable lines printed before it, and the stamp of machine and
// inputs.  The whole report is also saved as JSON under the out dir.
type report struct {
	Result result            `json:"result"`
	Lines  []string          `json:"lines"`
	Stamp  map[string]string `json:"stamp"`
}

func (r *report) printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// set records one metric; a non-finite value (a ratio with an empty
// base) is reported as 0 so the line always parses.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Result.Metrics[name] = metric{Value: v, Unit: unit}
}

func saveReport(dir, name string, seed int64, traced int, rep report) {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
