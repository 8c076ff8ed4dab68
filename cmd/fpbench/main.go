package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"study", "campaign", "campaign-sharded", "auth"}

// sizes are the scale of a run. paperSizes is the benchmark's; tests
// shrink it.
type sizes struct {
	Seconds float64 // measured phase of a served workload
	// A run sets up at least Setups times, and more (up to maxSetups) until
	// the set-ups have taken SetupBudget; setup_s is their median.
	Setups      int
	SetupBudget time.Duration
	Iterations  int // fingerprinting iterations per vector per participant
	// StudyUsers, FollowUpUsers and EvolutionUsers size the study
	// workload's main study, follow-up and era comparison.
	StudyUsers, FollowUpUsers, EvolutionUsers int
	// PreUsers participants with iterations 0..PreIters-1 are preloaded
	// into the auth store; their later iterations supply verify claims.
	PreUsers, PreIters int
}

func paperSizes(seconds float64) sizes {
	return sizes{Seconds: seconds, Setups: 3, SetupBudget: time.Second, Iterations: 30,
		StudyUsers: 2093, FollowUpUsers: 528, EvolutionUsers: 800,
		PreUsers: 2093, PreIters: 10}
}

const maxSetups = 201

// setUp runs once repeatedly as sz asks and returns each call's duration
// in seconds. once is told whether its call is the last, whose result the
// run keeps.
func setUp(sz sizes, once func(last bool) (time.Duration, error)) ([]float64, error) {
	// The preparation's garbage is collected now, not during a timed set-up.
	runtime.GC()
	var out []float64
	var spent time.Duration
	for {
		n := len(out) + 1
		last := n >= sz.Setups && (spent >= sz.SetupBudget || n >= maxSetups)
		d, err := once(last)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
		spent += d
		if last {
			return out, nil
		}
	}
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and runs the requested workload, printing the human
// report to stderr and the one-line JSON result last on stdout. It returns
// the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: study, campaign, campaign-sharded, auth, or all")
	seed := fs.Int64("seed", core.MainStudySeed, "input seed")
	seconds := fs.Int("seconds", 20, "measured phase of a served workload, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics and ledger of a traced run")
	out := fs.String("out", "", "also write the full result with provenance as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "fpbench: -trace must be 0 or 1\n")
		return 2
	}
	if *workload == "all" {
		return runAll(ctx, *seed, *seconds, stdout, stderr)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		fmt.Fprintf(stderr, "fpbench: unknown workload %q\n", *workload)
		return 2
	}

	traced := *trace == 1
	var untracedCPU float64
	if traced {
		// The tracing overhead is the traced run's CPU over an untraced
		// run of the same inputs, taken in a fresh process.
		line, code := reexec(ctx, stderr, "-workload", *workload, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", "0")
		if code != 0 {
			return code
		}
		untracedCPU = line.Metrics["cpu_s"].Value
	}
	res, err := measure(ctx, *workload, paperSizes(float64(*seconds)), *seed, traced, scratchDir)
	if err != nil {
		fmt.Fprintf(stderr, "fpbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if untracedCPU > 0 {
			res.add("trace.overhead_cpu_pct", 100*(res.Metrics["cpu_s"].Value-untracedCPU)/untracedCPU, 2)
		}
	}
	res.report(stderr, defs)
	if *out != "" {
		if err := writeResultFile(*out, newProvenance(*workload, *seed, float64(*seconds), traced), res); err != nil {
			fmt.Fprintf(stderr, "fpbench: %v\n", err)
			return 1
		}
	}
	b, err := res.line(defs)
	if err != nil {
		fmt.Fprintf(stderr, "fpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct || len(res.Health) > 0 {
		return 1
	}
	return 0
}

// scratchDir holds the served workloads' stores while they run, under the
// working directory.
var scratchDir = filepath.Join(".bench_build", "tmp")

// measure runs one workload in this process, keeping stores under dir.
func measure(ctx context.Context, name string, sz sizes, seed int64, traced bool, dir string) (*result, error) {
	if name == "study" {
		return runStudy(ctx, sz, seed, traced)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := os.MkdirTemp(dir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	return runServed(ctx, name, sz, seed, tr, d)
}

// lineResult is the one-line result a run prints last.
type lineResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reexec runs this program again with args, so a workload starts from a
// fresh heap, caches and goroutines. The child's report passes through to
// stderr; its last stdout line is returned parsed.
func reexec(ctx context.Context, stderr io.Writer, args ...string) (lineResult, int) {
	var res lineResult
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "fpbench: %v\n", err)
		return res, 1
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	err = cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil && err == nil {
		err = fmt.Errorf("unreadable result line %q: %w", last, jerr)
	}
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return res, max(ee.ExitCode(), 1)
		}
		fmt.Fprintf(stderr, "fpbench: %v\n", err)
		return res, 1
	}
	return res, 0
}

// runAll runs every workload, traced, each in its own process (which in
// turn runs its untraced twin), and prints one combined line.
func runAll(ctx context.Context, seed int64, seconds int, stdout, stderr io.Writer) int {
	sum := lineResult{Correct: true, Metrics: map[string]valueUnit{}}
	code := 0
	for _, w := range workloadNames {
		line, c := reexec(ctx, stderr, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", "1")
		if c != 0 {
			code = c
		}
		sum.Correct = sum.Correct && line.Correct && c == 0
		sum.Attempted += line.Attempted
		sum.Failed += line.Failed
		for k, v := range line.Metrics {
			sum.Metrics[w+"/"+k] = v
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "fpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return code
}
