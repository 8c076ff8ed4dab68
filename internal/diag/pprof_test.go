package diag

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// heapSink keeps an allocation reachable so the heap profile is guaranteed
// to carry inuse_space samples from this package.
var heapSink [][]byte

//go:noinline
func retainMegabytes(n int) {
	for i := 0; i < n; i++ {
		heapSink = append(heapSink, make([]byte, 1<<20))
	}
}

// TestCaptureHeapProfileNamesRetainer reads a bundle's heap.pb.gz with the
// reader fpdiag uses and checks that megabytes still retained at capture
// time are attributed, as inuse_space, to the function that retains them.
func TestCaptureHeapProfileNamesRetainer(t *testing.T) {
	c, err := NewCapturer(CaptureConfig{Dir: t.TempDir(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	retainMegabytes(8)
	defer func() { heapSink = nil }()
	man, err := c.Capture()
	if err != nil {
		t.Fatal(err)
	}

	top := PprofTop(t, filepath.Join(c.Dir(), man.ID, FileHeap), "inuse_space")
	rows := pprofRows(t, top)
	if len(rows) == 0 {
		t.Fatalf("heap profile parsed with no rows:\n%s", top)
	}
	if len(rows) > 10 {
		rows = rows[:10]
	}
	for _, r := range rows {
		if r.fn == "repro/internal/diag.retainMegabytes" && r.flat >= 4<<20 {
			return
		}
	}
	t.Errorf("retainMegabytes (8MB retained) not in top-10 inuse_space:\n%s", top)
}

// pprofRow is one function's line of a `go tool pprof -top` report.
type pprofRow struct {
	fn   string
	flat float64 // bytes
}

// pprofRows returns the function rows of a -top report in its order,
// below the "flat  flat%" header.
func pprofRows(t *testing.T, top string) []pprofRow {
	t.Helper()
	var rows []pprofRow
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 1 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		rows = append(rows, pprofRow{fn: f[5], flat: pprofBytes(t, f[0])})
	}
	return rows
}

// pprofBytes converts a pprof byte quantity such as "8MB" or "512.01kB";
// pprof prints zero without a unit.
func pprofBytes(t *testing.T, s string) float64 {
	t.Helper()
	if s == "0" {
		return 0
	}
	units := []struct {
		suffix string
		scale  float64
	}{{"TB", 1 << 40}, {"GB", 1 << 30}, {"MB", 1 << 20}, {"kB", 1 << 10}, {"B", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				t.Fatalf("pprof quantity %q: %v", s, err)
			}
			return v * u.scale
		}
	}
	t.Fatalf("pprof quantity %q has no byte unit", s)
	return 0
}
