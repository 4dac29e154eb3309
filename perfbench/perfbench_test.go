package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/storage"
)

// The self-test runs every workload at a tiny size: a sixteenth of the
// per-call data, a fraction of a second, few set-ups.
func tinyConfig(t *testing.T) runConfig {
	return runConfig{Seed: 7, Seconds: 0.3, Dir: t.TempDir(), Scale: 16, MinPerKind: 5, SetupReps: 2}
}

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }  `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runWithin fails the test instead of hanging when a run does not end.
func runWithin(t *testing.T, d time.Duration, f func() report) report {
	t.Helper()
	done := make(chan report, 1)
	go func() { done <- f() }()
	select {
	case rep := <-done:
		return rep
	case <-time.After(d):
		t.Fatalf("run did not finish within %v", d)
		return report{}
	}
}

func checkMetrics(t *testing.T, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Result.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(rep.Result.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Result.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v, not finite", m.Name, got.Value)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w := workloads[i]
		if sw.Name != w.name || sw.Why != w.why {
			t.Fatalf("workload %d is %q (%s) in BENCHMARK.json, %q (%s) in the benchmark", i, sw.Name, sw.Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			rep := runWithin(t, time.Minute, func() report { return benchmark(w, tinyConfig(t), false, "") })
			if !rep.Result.Correct || rep.Result.Failed != 0 {
				t.Fatalf("untraced run not correct: %v", rep.Lines)
			}
			checkMetrics(t, rep, spec.EndToEnd)
			if rep.Result.Metrics["setup_s"].Value <= 0 || rep.Result.Metrics["write_p50_us"].Value <= 0 {
				t.Errorf("set-up or latency reads 0: %v", rep.Result.Metrics)
			}

			rep = runWithin(t, time.Minute, func() report { return benchmark(w, tinyConfig(t), true, "") })
			if !rep.Result.Correct || rep.Result.Failed != 0 {
				t.Fatalf("traced run not correct: %v", rep.Lines)
			}
			checkMetrics(t, rep, spec.PerLayer)
		})
	}
}

// A backend that starts failing writes must show up in ops_failed_frac,
// and the run must end and report.
func TestFaultyBackendIsReported(t *testing.T) {
	w, _ := workloadByName("fig6-pack")
	cfg := tinyConfig(t)
	cfg.Inject = func(b storage.Backend) storage.Backend {
		f := storage.NewFaulty(b)
		f.FailWrites(3)
		return f
	}
	rep := runWithin(t, time.Minute, func() report { return benchmark(w, cfg, false, "") })
	if rep.Result.Correct || rep.Result.Failed == 0 || rep.Result.Attempted == 0 {
		t.Fatalf("failing writes not reported: correct=%v failed=%d attempted=%d", rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted)
	}
	if frac := float64(rep.Result.Failed) / float64(rep.Result.Attempted); frac <= 0 {
		t.Fatalf("ops_failed_frac = %v", frac)
	}
	rep = runWithin(t, time.Minute, func() report { return benchmark(w, cfg, true, "") })
	if rep.Result.Metrics["ops_failed_frac"].Value <= 0 {
		t.Fatalf("traced ops_failed_frac = %v", rep.Result.Metrics["ops_failed_frac"])
	}
}

func TestLatHistQuantile(t *testing.T) {
	h := newLatHist()
	var xs []float64
	for v := int64(1); v <= 100000; v += 37 {
		h.add(v * 1000)
		xs = append(xs, float64(v*1000))
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got, want := h.quantile(q), quantile(xs, q)
		if math.Abs(got-want) > want/500 {
			t.Errorf("q%.1f = %.0f, exact %.0f", q, got, want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := unionLen(ivs, 0, 100); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
	if got := unionLen(ivs, 8, 22); got != 9 {
		t.Errorf("clipped union = %d, want 9", got)
	}
}
