package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/vectors"
)

// metricDef is one reported metric: its name and unit, as BENCHMARK.json
// lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0). Every workload
// reports each of them; the package doc defines them per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run (-trace 1). A layer the
// workload does not exercise reports 0 with no samples.
var perLayer = []metricDef{
	{"study.population_s", "s"},
	{"study.render_s", "s"},
	{"study.render_misses", "count"},
	{"study.render_hit_ratio", "ratio"},
	{"study.render_ms_per_miss", "ms"},
	{"study.intern_s", "s"},
	{"study.figure5_s", "s"},
	{"study.evolution_s", "s"},
	{"study.other_analyses_s", "s"},
	{"study.unattributed_s", "s"},
	{"study.alloc_mb", "MB"},
	{"client.latency_p50_ms", "ms"},
	{"client.latency_tail_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.read_tail_ms", "ms"},
	{"http.transport_p50_ms", "ms"},
	{"collectserver.session_p50_ms", "ms"},
	{"collectserver.submit_self_p50_ms", "ms"},
	{"collectserver.submit_self_tail_ms", "ms"},
	{"storage.append_p50_ms", "ms"},
	{"storage.append_tail_ms", "ms"},
	{"streaming.enqueue_wait_tail_ms", "ms"},
	{"streaming.queue_wait_p50_ms", "ms"},
	{"streaming.queue_wait_tail_ms", "ms"},
	{"streaming.apply_p50_ms", "ms"},
	{"streaming.apply_busy_ratio", "ratio"},
	{"streaming.staleness_tail_ms", "ms"},
	{"streaming.ami_refreshes", "count"},
	{"analytics.entropy_p50_ms", "ms"},
	{"analytics.clusters_p50_ms", "ms"},
	{"analytics.stability_p50_ms", "ms"},
	{"analytics.ami_p50_ms", "ms"},
	{"shard.merges", "count"},
	{"shard.merge_cache_hit_ratio", "ratio"},
	{"shard.refresh_merges", "count"},
	{"shard.expected_refreshes", "count"},
	{"verify.enroll_p50_ms", "ms"},
	{"verify.decision_p50_ms", "ms"},
	{"verify.decision_tail_ms", "ms"},
	{"setup.store_open_s", "s"},
	{"setup.store_read_s", "s"},
	{"setup.analytics_bootstrap_s", "s"},
	{"setup.verify_enroll_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_tail_ms", "ms"},
	{"trace.overhead_cpu_pct", "%"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("fpbench: undeclared metric " + name)
}

// metric is one measured value. Percentile is set on tail metrics.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"` // failed output checks
	Health    []string          `json:"health,omitempty"`   // failed measurement checks
	Metrics   map[string]metric `json:"metrics"`
	Ledger    []ledgerRow       `json:"ledger,omitempty"`
}

func (r *result) add(name string, v float64, samples int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}

// addTail records the highest percentile of xs with ten samples beyond it.
func (r *result) addTail(name string, xs []float64) {
	v, p := tail(xs)
	r.add(name, v, len(xs))
	m := r.Metrics[name]
	m.Percentile = p
	r.Metrics[name] = m
}

// addP50 records the median of xs.
func (r *result) addP50(name string, xs []float64) {
	r.add(name, percentile(xs, 50), len(xs))
}

// addStudyStages attributes a traced study pipeline's time to its stages
// from the span tree under root. Whatever no stage span covers is
// unattributed.
func (r *result) addStudyStages(root *obs.Span, cs vectors.CacheStats, allocBytes float64) {
	d := root.StageDurations()
	var other time.Duration
	for _, c := range root.Children() {
		switch c.Name() {
		case "study.run", "cluster-agreement/figure5", "analyze/evolution":
		default:
			other += c.Duration()
		}
	}
	stages := map[string]time.Duration{
		"study.population_s":     d["population"],
		"study.render_s":         d["render"],
		"study.intern_s":         d["intern-index"],
		"study.figure5_s":        d["cluster-agreement/figure5"],
		"study.evolution_s":      d["analyze/evolution"],
		"study.other_analyses_s": other,
	}
	wall := root.Duration()
	attributed := time.Duration(0)
	for name, v := range stages {
		r.add(name, v.Seconds(), 1)
		attributed += v
	}
	r.add("study.unattributed_s", (wall - attributed).Seconds(), 1)
	r.add("study.render_misses", float64(cs.Misses), 1)
	r.add("study.render_hit_ratio", cs.HitRatio(), int(cs.Hits+cs.Misses))
	if cs.Misses > 0 {
		r.add("study.render_ms_per_miss", 1000*d["render"].Seconds()/float64(cs.Misses), int(cs.Misses))
	}
	r.add("study.alloc_mb", allocBytes/1e6, 1)
}

// line is the one-line result the driver reads: the metrics of the run's
// mode, each as value and unit.
func (r *result) line(defs []metricDef) ([]byte, error) {
	out := lineResult{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, d := range defs {
		out.Metrics[d.name] = valueUnit{r.Metrics[d.name].Value, d.unit}
	}
	return json.Marshal(out)
}

// report prints the metrics of defs by name with unit and sample count,
// then the ledger and any failed check.
func (r *result) report(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "== %s: correct=%t attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		m := r.Metrics[d.name]
		p := ""
		if m.Percentile > 0 {
			p = fmt.Sprintf("  (p%g)", m.Percentile)
		}
		fmt.Fprintf(w, "%-36s %14.6f %-6s n=%d%s\n", d.name, m.Value, d.unit, m.Samples, p)
	}
	if len(r.Ledger) > 0 {
		writeLedger(w, r.Ledger)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	for _, h := range r.Health {
		fmt.Fprintf(w, "HEALTH: %s\n", h)
	}
}

// provenance identifies where and how a result was measured.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func newProvenance(workload string, seed int64, seconds float64, trace bool) provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   workload, Seed: seed, Seconds: seconds, Trace: trace,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeResultFile writes the full result with its provenance.
func writeResultFile(path string, p provenance, r *result) error {
	b, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Result     *result    `json:"result"`
	}{p, r}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
