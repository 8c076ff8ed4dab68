package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnapshot(t *testing.T, dir, name string, results []benchResult) string {
	t.Helper()
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fptr(v float64) *float64 { return &v }

func gate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code, err := run(args, &out, &errb)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return code, out.String()
}

// TestCommittedTrajectoryPassesAgainstItself is the acceptance criterion:
// the checked-in BENCH_render.json gated against itself must pass.
func TestCommittedTrajectoryPassesAgainstItself(t *testing.T) {
	base := filepath.Join("..", "..", "BENCH_render.json")
	if _, err := os.Stat(base); err != nil {
		t.Skipf("no committed trajectory: %v", err)
	}
	code, out := gate(t, "-base", base, "-new", base)
	if code != 0 {
		t.Fatalf("self-comparison failed (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "within tolerance") {
		t.Fatalf("missing pass summary:\n%s", out)
	}
}

// TestSyntheticRegressionFails is the other acceptance criterion: inflating
// every ns/op 2× must trip the gate.
func TestSyntheticRegressionFails(t *testing.T) {
	dir := t.TempDir()
	baseline := []benchResult{
		{Name: "BenchmarkKernelOscillator/block", Iterations: 1000, NsPerOp: 800},
		{Name: "BenchmarkRenderVectors/block", Iterations: 100, NsPerOp: 14000000},
	}
	inflated := make([]benchResult, len(baseline))
	for i, r := range baseline {
		r.NsPerOp *= 2
		inflated[i] = r
	}
	basePath := writeSnapshot(t, dir, "base.json", baseline)
	newPath := writeSnapshot(t, dir, "new.json", inflated)

	code, out := gate(t, "-base", basePath, "-new", newPath)
	if code != 1 {
		t.Fatalf("2x regression passed (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "SLOW") || !strings.Contains(out, "2 regression(s)") {
		t.Fatalf("report did not flag both benchmarks:\n%s", out)
	}

	// -report-only demotes the same failure to exit 0.
	code, out = gate(t, "-base", basePath, "-new", newPath, "-report-only")
	if code != 0 || !strings.Contains(out, "report-only") {
		t.Fatalf("report-only still failed (exit %d):\n%s", code, out)
	}
}

// TestMinOfNAcrossFilesAbsorbsNoise: one noisy sample among N clean ones
// must not fail the gate — min-of-N picks the clean sample.
func TestMinOfNAcrossFilesAbsorbsNoise(t *testing.T) {
	dir := t.TempDir()
	basePath := writeSnapshot(t, dir, "base.json", []benchResult{
		{Name: "BenchmarkKernelBiquad/block", NsPerOp: 1700},
	})
	// -count 2 style duplicates in one file: first run was preempted.
	noisy := writeSnapshot(t, dir, "noisy.json", []benchResult{
		{Name: "BenchmarkKernelBiquad/block", NsPerOp: 9500},
		{Name: "BenchmarkKernelBiquad/block", NsPerOp: 1750},
	})
	// A second -new file, entirely noisy.
	worse := writeSnapshot(t, dir, "worse.json", []benchResult{
		{Name: "BenchmarkKernelBiquad/block", NsPerOp: 8800},
	})
	code, out := gate(t, "-base", basePath, "-new", noisy, "-new", worse)
	if code != 0 {
		t.Fatalf("min-of-N did not absorb noise (exit %d):\n%s", code, out)
	}
}

// TestPerBenchmarkOverride: a benchmark allowed to regress via -override
// passes while the default tolerance would have failed it.
func TestPerBenchmarkOverride(t *testing.T) {
	dir := t.TempDir()
	basePath := writeSnapshot(t, dir, "base.json", []benchResult{
		{Name: "BenchmarkKernelCompressor/block", NsPerOp: 1000},
	})
	newPath := writeSnapshot(t, dir, "new.json", []benchResult{
		{Name: "BenchmarkKernelCompressor/block", NsPerOp: 1600},
	})
	if code, out := gate(t, "-base", basePath, "-new", newPath); code != 1 {
		t.Fatalf("default tolerance admitted +60%% (exit %d):\n%s", code, out)
	}
	code, out := gate(t, "-base", basePath, "-new", newPath,
		"-override", "BenchmarkKernelCompressor/block=0.75")
	if code != 0 {
		t.Fatalf("override did not widen the gate (exit %d):\n%s", code, out)
	}
}

// TestZeroAllocPin: a baseline at 0 allocs/op must fail on any allocation
// even when timing improves.
func TestZeroAllocPin(t *testing.T) {
	dir := t.TempDir()
	basePath := writeSnapshot(t, dir, "base.json", []benchResult{
		{Name: "BenchmarkRenderVectors/block", NsPerOp: 14000000, AllocsPerOp: fptr(0)},
	})
	newPath := writeSnapshot(t, dir, "new.json", []benchResult{
		{Name: "BenchmarkRenderVectors/block", NsPerOp: 12000000, AllocsPerOp: fptr(3)},
	})
	code, out := gate(t, "-base", basePath, "-new", newPath)
	if code != 1 || !strings.Contains(out, "ALLOC") {
		t.Fatalf("alloc regression passed (exit %d):\n%s", code, out)
	}
}

// TestMissingAndNewBenchmarksReported: a baseline benchmark absent from the
// fresh snapshot is SKIP and fails the gate (exit 1) unless -report-only;
// an unknown fresh benchmark is NEW and does not fail it.
func TestMissingAndNewBenchmarksReported(t *testing.T) {
	dir := t.TempDir()
	basePath := writeSnapshot(t, dir, "base.json", []benchResult{
		{Name: "BenchmarkKernelAMGain/block", NsPerOp: 2400},
		{Name: "BenchmarkKernelAMGain/reference", NsPerOp: 11000},
	})
	newPath := writeSnapshot(t, dir, "new.json", []benchResult{
		{Name: "BenchmarkKernelAMGain/block", NsPerOp: 2500},
		{Name: "BenchmarkKernelNovel/block", NsPerOp: 900},
	})
	code, out := gate(t, "-base", basePath, "-new", newPath)
	if code != 1 {
		t.Fatalf("missing baseline benchmark passed (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "SKIP") || !strings.Contains(out, "BenchmarkKernelAMGain/reference") {
		t.Fatalf("missing benchmark not reported:\n%s", out)
	}
	if !strings.Contains(out, "NEW") || !strings.Contains(out, "BenchmarkKernelNovel/block") {
		t.Fatalf("new benchmark not reported:\n%s", out)
	}
	if code, out := gate(t, "-base", basePath, "-new", newPath, "-report-only"); code != 0 {
		t.Fatalf("report-only failed on a missing benchmark (exit %d):\n%s", code, out)
	}

	// Only the new benchmark beside a complete baseline: NEW alone passes.
	full := writeSnapshot(t, dir, "full.json", []benchResult{
		{Name: "BenchmarkKernelAMGain/block", NsPerOp: 2500},
		{Name: "BenchmarkKernelAMGain/reference", NsPerOp: 11500},
		{Name: "BenchmarkKernelNovel/block", NsPerOp: 900},
	})
	if code, out := gate(t, "-base", basePath, "-new", full); code != 0 {
		t.Fatalf("a new benchmark failed the gate (exit %d):\n%s", code, out)
	}
}

// TestUsageErrors: structural problems surface as errors (exit 2 path),
// not silent passes.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-new", "x.json"}, &out, &out); err == nil {
		t.Fatal("missing -base accepted")
	}
	if _, err := run([]string{"-base", "x.json"}, &out, &out); err == nil {
		t.Fatal("missing -new accepted")
	}
	if _, err := run([]string{"-base", "a", "-new", "b", "-override", "nope"}, &out, &out); err == nil {
		t.Fatal("malformed -override accepted")
	}
	dir := t.TempDir()
	empty := writeSnapshot(t, dir, "empty.json", []benchResult{})
	if _, err := run([]string{"-base", empty, "-new", empty}, &out, &out); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// TestGOMAXPROCSSuffixStripped: on a multi-core host go test names every
// benchmark with a -<GOMAXPROCS> suffix; a baseline recorded without it
// must still be compared entry by entry, and a regression under a
// suffixed name must still fail.
func TestGOMAXPROCSSuffixStripped(t *testing.T) {
	dir := t.TempDir()
	basePath := writeSnapshot(t, dir, "base.json", []benchResult{
		{Name: "BenchmarkKernelOscillator/block", NsPerOp: 800},
		{Name: "BenchmarkRenderVectors/block", NsPerOp: 14000000},
	})
	newPath := writeSnapshot(t, dir, "new.json", []benchResult{
		{Name: "BenchmarkKernelOscillator/block-2", NsPerOp: 820},
		{Name: "BenchmarkRenderVectors/block-2", NsPerOp: 14100000},
	})
	code, out := gate(t, "-base", basePath, "-new", newPath)
	if code != 0 || !strings.Contains(out, "compared 2, skipped 0") || strings.Contains(out, "SKIP") {
		t.Fatalf("suffixed results not compared (exit %d):\n%s", code, out)
	}
	slow := writeSnapshot(t, dir, "slow.json", []benchResult{
		{Name: "BenchmarkKernelOscillator/block-16", NsPerOp: 1600},
	})
	if code, out := gate(t, "-base", basePath, "-new", slow); code != 1 || !strings.Contains(out, "SLOW") {
		t.Fatalf("2x regression under a suffixed name passed (exit %d):\n%s", code, out)
	}
}

// TestNothingComparedFails: a fresh snapshot that matches no baseline
// entry is an error (exit 2), even in report-only mode — a gate that
// compared nothing has not passed.
func TestNothingComparedFails(t *testing.T) {
	dir := t.TempDir()
	basePath := writeSnapshot(t, dir, "base.json", []benchResult{
		{Name: "BenchmarkKernelBiquad/block", NsPerOp: 1700},
	})
	newPath := writeSnapshot(t, dir, "new.json", []benchResult{
		{Name: "BenchmarkKernelWaveShaper/block-2", NsPerOp: 900},
	})
	var out bytes.Buffer
	if _, err := run([]string{"-base", basePath, "-new", newPath, "-report-only"}, &out, &out); err == nil {
		t.Fatalf("comparing nothing passed:\n%s", out.String())
	}
}
