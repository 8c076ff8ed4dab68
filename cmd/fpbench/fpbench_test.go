package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinySizes runs every workload through the benchmark's own code path in a
// fraction of a second each.
var tinySizes = sizes{Seconds: 0.4, Setups: 2, Iterations: 6,
	StudyUsers: 30, FollowUpUsers: 12, EvolutionUsers: 10,
	PreUsers: 24, PreIters: 3}

// TestWorkloadsEmitEveryMetric runs each workload untraced and traced at
// tiny scale and checks that its outputs pass and that every metric
// BENCHMARK.json names is emitted with its unit and a sample count.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := measure(context.Background(), w, tinySizes, 11, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d problems=%v",
					w, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := e2e
			if traced {
				want = layers
			}
			line, err := res.line(want)
			if err != nil {
				t.Fatal(err)
			}
			var got lineResult
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			for _, d := range want {
				m, ok := got.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%t: metric %s emitted as %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
			}
			if traced {
				for _, name := range exercised[w] {
					if m := res.Metrics[name]; m.Samples < 1 {
						t.Errorf("%s: per-layer %s measured over %d samples", w, name, m.Samples)
					}
				}
				continue
			}
			// End-to-end metrics are measured on every workload and never 0.
			for _, d := range want {
				m := res.Metrics[d.name]
				if m.Samples < 1 || m.Value == 0 || math.IsNaN(m.Value) {
					t.Errorf("%s: end-to-end %s = %v over %d samples", w, d.name, m.Value, m.Samples)
				}
			}
		}
	}
}

// exercised lists, per workload, per-layer metrics of layers it runs
// through, which its traced run must have measured.
var exercised = func() map[string][]string {
	served := []string{"study.render_s", "client.latency_p50_ms", "client.read_p50_ms", "http.transport_p50_ms",
		"collectserver.session_p50_ms", "collectserver.submit_self_p50_ms", "storage.append_p50_ms",
		"streaming.queue_wait_p50_ms", "streaming.apply_p50_ms", "streaming.staleness_tail_ms",
		"analytics.entropy_p50_ms", "verify.enroll_p50_ms", "setup.store_open_s", "gen.lag_p50_ms"}
	sharded := append([]string{"shard.merges", "shard.merge_cache_hit_ratio"}, served...)
	return map[string][]string{
		"study":            {"client.latency_p50_ms", "study.render_s", "study.figure5_s", "study.evolution_s", "study.other_analyses_s", "runtime.alloc_mb"},
		"campaign":         served,
		"campaign-sharded": sharded,
		"auth":             append([]string{"verify.decision_p50_ms"}, sharded...),
	}
}()

// benchmarkMetrics reads the metric lists from BENCHMARK.json and checks
// them against the ones this program declares.
func benchmarkMetrics(t *testing.T) (e2e, layers []metricDef) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	conv := func(in []struct{ Name, Unit string }) []metricDef {
		out := make([]metricDef, len(in))
		for i, m := range in {
			out[i] = metricDef{m.Name, m.Unit}
		}
		return out
	}
	e2e, layers = conv(b.EndToEnd), conv(b.PerLayer)
	for _, pair := range [][2][]metricDef{{e2e, endToEnd}, {layers, perLayer}} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program declares %d", len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Errorf("BENCHMARK.json metric %v, program declares %v", pair[0][i], pair[1][i])
			}
		}
	}
	return e2e, layers
}

// TestTail pins the tail rule: the highest listed percentile with at
// least ten samples above its rank, or the maximum when none has.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value, pc float64
	}{
		{0, 0, 0},
		{1, 1, 100},
		{19, 19, 100},
		{20, 10, 50},
		{700, 686, 98},
		{1000, 990, 99},
		{4000, 3980, 99.5},
		{10000, 9990, 99.9},
	} {
		v, p := tail(seq(c.n))
		if v != c.value || p != c.pc {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pc)
		}
	}
	if got := percentile(seq(700), 50); got != 350 {
		t.Errorf("median of 1..700 = %v, want 350", got)
	}
}

// TestLedgerPartsEqualWhole feeds the tracer one request of each class and
// checks that transport, handler self time and child calls add up to what
// the client observed.
func TestLedgerPartsEqualWhole(t *testing.T) {
	tr := newTracer()
	msd := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	reqs := []struct {
		class, id, user string
		total, handler  float64
	}{
		{classSession, "t1", "u1", 1.0, 0.4},
		{classSubmit, "t2", "u1", 5.0, 3.5},
		{classRead, "t3", "", 2.0, 1.5},
		{classVerify, "t4", "u2", 0.8, 0.3},
	}
	for _, r := range reqs {
		tr.requests = append(tr.requests, requestRec{class: r.class, traceID: r.id, user: r.user, total: msd(r.total)})
		tr.handler[r.id] = msd(r.handler)
	}
	tr.childCall("append", "u1", msd(1.25))
	tr.childCall("enroll", "u1", msd(0.5))
	tr.enqueue["t2"] = enqueueRec{dur: msd(0.25)}
	tr.childCall("verify", "u2", msd(0.1))
	tr.reads["entropy"] = []time.Duration{msd(1.0)}

	st := tr.analyze()
	if len(st.ledger) != len(ledgerClasses) {
		t.Fatalf("ledger has %d rows, want %d", len(st.ledger), len(ledgerClasses))
	}
	if err := closes(st.ledger, 1e-9); err != nil {
		t.Fatal(err)
	}
	for _, row := range st.ledger {
		if row.Class == classSubmit && math.Abs(row.SelfMS-1.5) > 1e-9 {
			t.Errorf("submit self time %v ms, want 1.5", row.SelfMS)
		}
	}
	if len(st.submitSelf) != 1 || math.Abs(st.submitSelf[0]-1.5) > 1e-9 {
		t.Errorf("per-request submit self time %v, want [1.5]", st.submitSelf)
	}
	if st.unjoined != 0 {
		t.Errorf("%d timings unjoined, want 0", st.unjoined)
	}
	broken := append([]ledgerRow(nil), st.ledger...)
	broken[0].TransportMS += 0.5
	if closes(broken, 0.01) == nil {
		t.Error("a ledger whose parts exceed the total passed")
	}

	// A submit whose handler and child calls were never recorded is counted.
	lost := newTracer()
	lost.requests = []requestRec{{class: classSubmit, traceID: "t9", user: "u9", total: msd(1)}}
	if n := lost.analyze().unjoined; n != 4 {
		t.Errorf("a submit with no server-side records counted %d unjoined, want 4", n)
	}
}

// TestStaleness: a read that covers every record acknowledged before it
// was sent is fresh; one that misses records is as stale as the oldest of
// them.
func TestStaleness(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	acks := []ack{{at: at(10), n: 100}, {at: at(20), n: 50}, {at: at(30), n: 25}}
	reads := []readObs{
		{at(5), 1000},  // before any ack
		{at(25), 1150}, // covers both earlier acks
		{at(25), 1100}, // misses the ack at 20 ms
		{at(40), 1000}, // misses all three
	}
	got := staleness(acks, reads, 1000)
	want := []float64{0, 0, 5, 30}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("read %d: staleness %v ms, want %v", i, got[i], want[i])
		}
	}
}
