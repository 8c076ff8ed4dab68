// Command fpdiag inspects the diagnostic bundles a -diag fpserver (or a
// manual POST /api/v1/obs/bundles) captured: list the ring, show one
// bundle's manifest and heap top-N, and diff the heap between two bundles
// to see what grew between captures. show and diff read the heap profiles
// with `go tool pprof`, so they need a Go toolchain on PATH.
//
// Usage:
//
//	fpdiag [-dir diag] list
//	fpdiag [-dir diag] show <bundle-id> [-top 10]
//	fpdiag [-dir diag] diff <bundle-a> <bundle-b> [-top 10]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/diag"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fpdiag:", err)
		os.Exit(1)
	}
}

// run is the CLI behind a testable seam.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("fpdiag", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", "diag", "bundle ring directory (fpserver's -diag-dir)")
	top := fs.Int("top", 10, "rows in heap top-N tables (show/diff)")
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: fpdiag [-dir DIR] [-top N] <list | show ID | diff A B>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch cmd, rest := fs.Arg(0), fs.Args(); cmd {
	case "list":
		return runList(out, *dir)
	case "show":
		if len(rest) != 2 {
			return fmt.Errorf("show wants exactly one bundle ID, got %d args", len(rest)-1)
		}
		return runShow(out, *dir, rest[1], *top)
	case "diff":
		if len(rest) != 3 {
			return fmt.Errorf("diff wants exactly two bundle IDs, got %d args", len(rest)-1)
		}
		return runDiff(out, *dir, rest[1], rest[2], *top)
	case "":
		fs.Usage()
		return fmt.Errorf("a command is required")
	default:
		return fmt.Errorf("unknown command %q (want list, show or diff)", cmd)
	}
}

func runList(out io.Writer, dir string) error {
	mans, err := diag.ListBundles(dir)
	if err != nil {
		return err
	}
	if len(mans) == 0 {
		fmt.Fprintf(out, "no bundles under %s\n", dir)
		return nil
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tCAPTURED\tREASON\tRULE\tFILES\tBYTES")
	for _, m := range mans {
		rule := m.Rule
		if rule == "" {
			rule = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\n",
			m.ID, m.CapturedAt.Format("2006-01-02 15:04:05Z"), m.Reason, rule,
			len(m.Files), m.TotalBytes)
	}
	return tw.Flush()
}

func runShow(out io.Writer, dir, id string, top int) error {
	m, err := diag.ReadManifest(dir, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bundle %s\n", m.ID)
	fmt.Fprintf(out, "  captured: %s  reason: %s\n", m.CapturedAt.Format("2006-01-02 15:04:05Z"), m.Reason)
	if m.Rule != "" {
		fmt.Fprintf(out, "  rule: %s\n", m.Rule)
	}
	if m.Alert != nil {
		fmt.Fprintf(out, "  alert: %s value=%.4f threshold=%.4f at record %d\n",
			m.Alert.State, m.Alert.Value, m.Alert.Threshold, m.Alert.FiredAtRecords)
		if m.Alert.Message != "" {
			fmt.Fprintf(out, "  message: %s\n", m.Alert.Message)
		}
	}
	fmt.Fprintf(out, "  go: %s  pid: %d", m.GoVersion, m.PID)
	if m.Hostname != "" {
		fmt.Fprintf(out, "  host: %s", m.Hostname)
	}
	fmt.Fprintln(out)
	if m.Runtime != nil {
		fmt.Fprintf(out, "  runtime: goroutines=%d heap_inuse=%d last_gc_pause=%.6fs\n",
			m.Runtime.Goroutines, m.Runtime.HeapInuseBytes, m.Runtime.LastGCPauseSeconds)
	}
	if len(m.Shards) > 0 {
		fmt.Fprintf(out, "  shards: %d (ingest skew %.2f)\n", len(m.Shards), m.ShardSkew)
	}
	fmt.Fprintf(out, "  files (%d bytes total):\n", m.TotalBytes)
	for _, f := range m.Files {
		fmt.Fprintf(out, "    %-16s %d\n", f.Name, f.Bytes)
	}

	report, err := pprofTop(dir, id, "", top)
	if err != nil {
		fmt.Fprintf(out, "  heap profile unreadable: %v\n", err)
		return nil
	}
	fmt.Fprintf(out, "  heap inuse_space top %d by function:\n", top)
	writeIndented(out, "    ", report)
	return nil
}

// runDiff prints the per-function inuse_space delta between bundle a
// (before) and bundle b (after), as `go tool pprof -diff_base` ranks it —
// "what grew between these two captures".
func runDiff(out io.Writer, dir, a, b string, top int) error {
	report, err := pprofTop(dir, b, a, top)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "heap inuse_space delta %s -> %s (top %d):\n", a, b, top)
	writeIndented(out, "  ", report)
	return nil
}

// pprofTop runs `go tool pprof -top` over bundle id's heap profile, diffed
// against bundle base's when base is non-empty, and returns the report.
// GOTOOLCHAIN=local keeps go from fetching a toolchain to run it.
func pprofTop(dir, id, base string, top int) (string, error) {
	args := []string{"tool", "pprof", "-top", "-sample_index=inuse_space", fmt.Sprintf("-nodecount=%d", top)}
	if base != "" {
		basePath, err := heapPath(dir, base)
		if err != nil {
			return "", err
		}
		args = append(args, "-diff_base="+basePath)
	}
	path, err := heapPath(dir, id)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", append(args, path)...)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	report, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if text := strings.TrimSpace(stderr.String()); text != "" {
			msg = strings.ReplaceAll(text, "\n", "; ")
		}
		return "", fmt.Errorf("go tool pprof: %s", msg)
	}
	return string(report), nil
}

// heapPath locates one bundle's heap profile.
func heapPath(dir, id string) (string, error) {
	if !diag.ValidBundleID(id) {
		return "", fmt.Errorf("bundle %s: %w", id, diag.ErrUnknownBundle)
	}
	path := filepath.Join(dir, id, diag.FileHeap)
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("bundle %s: %w", id, err)
	}
	return path, nil
}

func writeIndented(out io.Writer, indent, text string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		fmt.Fprintln(out, indent+line)
	}
}
