// Command benchgate compares a fresh benchmark snapshot against a
// checked-in trajectory and fails on regression, turning the BENCH_*.json
// files from passive history into an enforced floor.
//
// Usage:
//
//	go test -run '^$' -bench 'Kernel|RenderVectors' -benchmem -count 3 . \
//	    | go run ./cmd/benchjson > /tmp/fresh.json
//	go run ./cmd/benchgate -base BENCH_render.json -new /tmp/fresh.json
//
// Noise handling: when a benchmark name appears multiple times across the
// -new files (e.g. from -count 3), the minimum ns/op is compared — for a
// CPU-bound benchmark the fastest sample is the least contaminated by
// scheduler noise, so min-of-N is the stable estimator. A regression is
// new_min > base × (1 + tolerance); the default tolerance absorbs
// machine-to-machine variance and can be tightened per benchmark with
// -override. Benchmarks whose baseline reports 0 allocs/op must stay at 0
// — allocation counts are deterministic, so any increase is a real
// regression regardless of timing noise.
//
// Names are matched without the -<GOMAXPROCS> suffix go test appends on a
// multi-core host, so a baseline recorded on one machine gates results
// from another. The gate fails closed: comparing no baseline entry at all
// exits 2 rather than passing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult mirrors cmd/benchjson's output shape.
type benchResult struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the gate and returns the process exit code: 0 pass,
// 1 regression (unless reportOnly). Usage/IO problems, and a fresh
// snapshot that matches no baseline entry, come back as errors.
func run(args []string, outw, errw io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		base       = fs.String("base", "", "committed trajectory JSON (required)")
		newFiles   stringList
		tolerance  = fs.Float64("tolerance", 0.30, "allowed relative ns/op slowdown vs base (0.30 = +30%)")
		overrides  stringList
		reportOnly = fs.Bool("report-only", false, "print the comparison but always exit 0")
	)
	fs.Var(&newFiles, "new", "fresh snapshot JSON (repeatable; duplicate benchmark names take min ns/op)")
	fs.Var(&overrides, "override", "per-benchmark tolerance, name=fraction (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *base == "" || len(newFiles) == 0 {
		return 0, fmt.Errorf("both -base and at least one -new are required")
	}
	perBench := map[string]float64{}
	for _, ov := range overrides {
		name, val, ok := strings.Cut(ov, "=")
		if !ok {
			return 0, fmt.Errorf("bad -override %q (want name=fraction)", ov)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return 0, fmt.Errorf("bad -override tolerance %q", val)
		}
		perBench[benchName(name)] = f
	}

	baseline, err := loadResults(*base)
	if err != nil {
		return 0, err
	}
	if len(baseline) == 0 {
		return 0, fmt.Errorf("%s holds no benchmarks", *base)
	}
	fresh := map[string]*benchResult{}
	for _, path := range newFiles {
		results, err := loadResults(path)
		if err != nil {
			return 0, err
		}
		for name, r := range results {
			if have, ok := fresh[name]; !ok || r.NsPerOp < have.NsPerOp {
				fresh[name] = r
			}
		}
	}
	if len(fresh) == 0 {
		return 0, fmt.Errorf("no benchmarks in the -new snapshots")
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions, compared := 0, 0
	for _, name := range names {
		b := baseline[name]
		n, ok := fresh[name]
		if !ok {
			fmt.Fprintf(outw, "SKIP  %-44s not present in the fresh snapshot\n", name)
			continue
		}
		compared++
		tol := *tolerance
		if t, ok := perBench[name]; ok {
			tol = t
		}
		limit := b.NsPerOp * (1 + tol)
		ratio := n.NsPerOp / b.NsPerOp
		verdict := "ok   "
		if n.NsPerOp > limit {
			verdict = "SLOW "
			regressions++
		}
		fmt.Fprintf(outw, "%s %-44s base %12.1f ns/op  new %12.1f ns/op  (%.2fx, limit %.2fx)\n",
			verdict, name, b.NsPerOp, n.NsPerOp, ratio, 1+tol)
		if b.AllocsPerOp != nil && *b.AllocsPerOp == 0 &&
			n.AllocsPerOp != nil && *n.AllocsPerOp > 0 {
			fmt.Fprintf(outw, "ALLOC %-44s base 0 allocs/op  new %.0f allocs/op\n",
				name, *n.AllocsPerOp)
			regressions++
		}
	}
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			fmt.Fprintf(outw, "NEW   %-44s not in the baseline (add it via make bench-render)\n", name)
		}
	}

	fmt.Fprintf(outw, "benchgate: compared %d, skipped %d of %d baseline benchmark(s)\n",
		compared, len(baseline)-compared, len(baseline))
	if compared == 0 {
		return 0, fmt.Errorf("no fresh benchmark matches a baseline entry of %s", *base)
	}
	if regressions > 0 {
		fmt.Fprintf(outw, "benchgate: %d regression(s) against %s\n", regressions, *base)
		if *reportOnly {
			fmt.Fprintln(outw, "benchgate: report-only mode, not failing")
			return 0, nil
		}
		return 1, nil
	}
	fmt.Fprintf(outw, "benchgate: %d benchmark(s) within tolerance of %s\n", compared, *base)
	return 0, nil
}

// loadResults reads one benchjson array, keeping the minimum ns/op per
// benchmark name (a -count N run emits N lines per benchmark) with the
// GOMAXPROCS suffix stripped.
func loadResults(path string) (map[string]*benchResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []benchResult
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*benchResult, len(list))
	for i := range list {
		r := &list[i]
		r.Name = benchName(r.Name)
		if have, ok := out[r.Name]; !ok || r.NsPerOp < have.NsPerOp {
			out[r.Name] = r
		}
	}
	return out, nil
}

// benchName strips the trailing -<digits> GOMAXPROCS suffix go test adds
// to benchmark names when GOMAXPROCS > 1.
func benchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
