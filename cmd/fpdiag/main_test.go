package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/obs"
)

// fpdiagSink retains allocations between the two captures so the heap
// diff has a real per-function delta to report.
var fpdiagSink [][]byte

//go:noinline
func retainForDiff(mb int) {
	for i := 0; i < mb; i++ {
		fpdiagSink = append(fpdiagSink, make([]byte, 1<<20))
	}
}

// TestFpdiagListShowDiff captures two real bundles and drives every
// subcommand through the run() seam.
func TestFpdiagListShowDiff(t *testing.T) {
	dir := t.TempDir()
	capt, err := diag.NewCapturer(diag.CaptureConfig{
		Dir:      dir,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	first, err := capt.Capture()
	if err != nil {
		t.Fatal(err)
	}
	retainForDiff(6)
	defer func() { fpdiagSink = nil }()
	second, err := capt.Capture()
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "list"}, &out, &out); err != nil {
		t.Fatalf("list: %v", err)
	}
	text := out.String()
	for _, want := range []string{"ID", first.ID, second.ID, diag.ReasonManual} {
		if !strings.Contains(text, want) {
			t.Errorf("list output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"-dir", dir, "show", second.ID}, &out, &out); err != nil {
		t.Fatalf("show: %v", err)
	}
	text = out.String()
	for _, want := range []string{
		"bundle " + second.ID,
		diag.FileHeap,
		diag.FileGoroutines,
		"heap inuse_space top",
		"flat%", // pprof's column header: the profile was read
	} {
		if !strings.Contains(text, want) {
			t.Errorf("show output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"-dir", dir, "diff", first.ID, second.ID}, &out, &out); err != nil {
		t.Fatalf("diff: %v", err)
	}
	text = out.String()
	if !strings.Contains(text, "heap inuse_space delta") {
		t.Errorf("diff output missing header:\n%s", text)
	}
	// The retained megabytes must show up as growth attributed to the
	// retaining function.
	if !strings.Contains(text, "retainForDiff") {
		t.Errorf("diff output does not attribute growth to retainForDiff:\n%s", text)
	}

	// Error paths: unknown command, missing args, unknown bundle.
	if err := run([]string{"-dir", dir, "bogus"}, &out, &out); err == nil {
		t.Error("unknown command did not error")
	}
	if err := run([]string{"-dir", dir, "show"}, &out, &out); err == nil {
		t.Error("show without ID did not error")
	}
	if err := run([]string{"-dir", dir, "diff", first.ID, "nope"}, &out, &out); err == nil {
		t.Error("diff with unknown bundle did not error")
	}
	if err := run([]string{"-dir", dir}, &out, &out); err == nil {
		t.Error("missing command did not error")
	}
}

// TestFpdiagWithoutToolchain: with no go on PATH, show still prints the
// manifest and reports the heap profile unreadable, while diff, which has
// nothing else to print, fails naming the missing tool.
func TestFpdiagWithoutToolchain(t *testing.T) {
	dir, first, second := captureTwo(t)
	t.Setenv("PATH", t.TempDir())

	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "show", first.ID}, &out, &out); err != nil {
		t.Fatalf("show without a toolchain: %v", err)
	}
	for _, want := range []string{"bundle " + first.ID, diag.FileHeap, "heap profile unreadable:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("show output missing %q:\n%s", want, out.String())
		}
	}

	err := run([]string{"-dir", dir, "diff", first.ID, second.ID}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "go tool pprof") {
		t.Fatalf("diff without a toolchain = %v, want an error naming go tool pprof", err)
	}
}

// TestFpdiagUnreadableProfile: a heap profile pprof cannot parse leaves
// show printing the manifest and the pprof error, and fails diff.
func TestFpdiagUnreadableProfile(t *testing.T) {
	dir, good, bad := captureTwo(t)
	if err := os.WriteFile(filepath.Join(dir, bad.ID, diag.FileHeap), []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "show", bad.ID}, &out, &out); err != nil {
		t.Fatalf("show of an unreadable profile: %v", err)
	}
	for _, want := range []string{"bundle " + bad.ID, "heap profile unreadable: go tool pprof"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("show output missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-dir", dir, "diff", good.ID, bad.ID}, &out, &out); err == nil {
		t.Error("diff against an unreadable profile did not error")
	}
}

// captureTwo captures two bundles into a fresh ring.
func captureTwo(t *testing.T) (dir string, first, second diag.Manifest) {
	t.Helper()
	dir = t.TempDir()
	capt, err := diag.NewCapturer(diag.CaptureConfig{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if first, err = capt.Capture(); err != nil {
		t.Fatal(err)
	}
	if second, err = capt.Capture(); err != nil {
		t.Fatal(err)
	}
	return dir, first, second
}
