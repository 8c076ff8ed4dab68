package watch

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
)

// goldenEntropyFireAt pins the exact applied-record index at which the
// entropy-collapse watcher fires on the seeded stream below. The stream,
// the rule table, and the record-driven evaluation are all deterministic,
// so this index is a golden value: a drift here means the detector (or
// the engine's entropy math) changed behaviour.
const goldenEntropyFireAt = 330

// rec builds one DC-vector record.
func rec(user, hash string) storage.Record {
	return storage.Record{UserID: user, Vector: vectors.DC.String(), Hash: hash}
}

// lowDiversityStream is the seeded scenario of the golden test: 300
// healthy records (every user unique) followed by a tail where every new
// user submits the same fingerprint — the population's entropy collapses.
func lowDiversityStream() []storage.Record {
	recs := make([]storage.Record, 0, 600)
	for i := 0; i < 300; i++ {
		recs = append(recs, rec(fmt.Sprintf("u%03d", i), fmt.Sprintf("%08x", i)))
	}
	for i := 0; i < 300; i++ {
		recs = append(recs, rec(fmt.Sprintf("t%03d", i), "deadbeef"))
	}
	return recs
}

func newTestMonitor(t *testing.T, reg *obs.Registry, rules []Rule) (*streaming.Engine, *Monitor) {
	t.Helper()
	eng := streaming.New(streaming.Config{Registry: reg, AMIRefreshEvery: -1})
	t.Cleanup(eng.Close)
	mon, err := New(Config{Engine: eng, Registry: reg, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mon
}

// TestEntropyCollapseGolden replays the seeded low-diversity stream one
// record at a time and asserts the watcher fires at exactly the golden
// record index, twice over to prove the whole path is deterministic.
func TestEntropyCollapseGolden(t *testing.T) {
	rule := Rule{
		Name: "entropy", Kind: KindEntropyCollapse, Vector: vectors.DC.String(),
		Every: 10, For: 2, MinSamples: 5, Alpha: 0.3, ZMax: 3,
	}
	for round := 0; round < 2; round++ {
		reg := obs.NewRegistry()
		eng, mon := newTestMonitor(t, reg, []Rule{rule})
		firedAt := int64(-1)
		for _, r := range lowDiversityStream() {
			eng.Apply([]storage.Record{r})
			if firedAt < 0 {
				for _, a := range mon.Alerts() {
					if a.State == StateFiring {
						firedAt = a.FiredAtRecords
					}
				}
			}
		}
		if firedAt != goldenEntropyFireAt {
			t.Fatalf("round %d: entropy alert fired at record %d, golden %d",
				round, firedAt, goldenEntropyFireAt)
		}
		snap := mon.Snapshot()
		if snap.Firing != 1 {
			t.Fatalf("round %d: snapshot firing = %d, want 1", round, snap.Firing)
		}
		var alert Alert
		for _, a := range snap.Alerts {
			if a.State == StateFiring {
				alert = a
			}
		}
		if alert.Rule != "entropy" || alert.Kind != KindEntropyCollapse ||
			alert.Subject != vectors.DC.String() {
			t.Fatalf("round %d: unexpected firing alert %+v", round, alert)
		}
		if alert.PendingAtRecords >= alert.FiredAtRecords {
			t.Fatalf("pending at %d not before firing at %d",
				alert.PendingAtRecords, alert.FiredAtRecords)
		}
		if reg.Counter("watch_alerts_total", "", obs.Labels{"rule": "entropy"}).Value() != 1 {
			t.Fatalf("round %d: watch_alerts_total{rule=entropy} != 1", round)
		}
	}
}

// TestClusterChurnFiresAndResolves drives the churn watcher through a
// merge storm (existing users converging on one shared hash) and then a
// calm stretch, checking the full pending→firing→resolved lifecycle.
func TestClusterChurnFiresAndResolves(t *testing.T) {
	rule := Rule{
		Name: "churn", Kind: KindClusterChurn, Vector: vectors.DC.String(),
		Every: 10, For: 1, MaxChurn: 0.5,
	}
	eng, mon := newTestMonitor(t, obs.NewRegistry(), []Rule{rule})

	// 20 users, all unique: baseline evaluation sees no movement.
	for i := 0; i < 20; i++ {
		eng.Apply([]storage.Record{rec(fmt.Sprintf("u%02d", i), fmt.Sprintf("%08x", i))})
	}
	// Merge storm: 10 existing users converge on one hash — 9 cluster
	// merges in 10 records, churn 0.9 > 0.5.
	for i := 0; i < 10; i++ {
		eng.Apply([]storage.Record{rec(fmt.Sprintf("u%02d", i), "beefbeef")})
	}
	var firing *Alert
	for _, a := range mon.Alerts() {
		if a.State == StateFiring && a.Rule == "churn" {
			firing = &a
		}
	}
	if firing == nil {
		t.Fatalf("churn alert did not fire; alerts: %+v", mon.Alerts())
	}
	if firing.Value <= rule.MaxChurn {
		t.Fatalf("firing value %f not above threshold %f", firing.Value, rule.MaxChurn)
	}

	// Calm stretch: one new unique user per record — clusters track users,
	// churn 0 — resolves the alert into the history.
	for i := 0; i < 10; i++ {
		eng.Apply([]storage.Record{rec(fmt.Sprintf("v%02d", i), fmt.Sprintf("aa%06x", i))})
	}
	snap := mon.Snapshot()
	if snap.Firing != 0 {
		t.Fatalf("alert still firing after calm stretch: %+v", snap.Alerts)
	}
	found := false
	for _, a := range snap.Alerts {
		if a.State == StateResolved && a.Rule == "churn" {
			found = true
			if a.ResolvedAtRecords <= a.FiredAtRecords {
				t.Fatalf("resolved at %d not after fired at %d",
					a.ResolvedAtRecords, a.FiredAtRecords)
			}
		}
	}
	if !found {
		t.Fatalf("no resolved churn alert in history: %+v", snap.Alerts)
	}
}

// TestErrorBudgetBurn drives the SLO watcher from registry counters: an
// inter-evaluation error rate far above the budget fires, a clean window
// resolves.
func TestErrorBudgetBurn(t *testing.T) {
	reg := obs.NewRegistry()
	errs := reg.Counter("ingest_errors_total", "", nil)
	total := reg.Counter("ingest_requests_total", "", nil)
	rule := Rule{
		Name: "budget", Kind: KindErrorBudget,
		ErrorMetric: "ingest_errors_total", TotalMetric: "ingest_requests_total",
		SLO: 0.9, MaxBurn: 1, Every: 10, For: 1,
	}
	eng, mon := newTestMonitor(t, reg, []Rule{rule})

	feed := func(n int) {
		for i := 0; i < n; i++ {
			eng.Apply([]storage.Record{rec(fmt.Sprintf("w%08d", i), "0f0f")})
		}
	}
	feed(10) // baseline evaluation
	// 5 errors over 10 requests against a 10% budget: burn 5x.
	errs.Add(5)
	total.Add(10)
	feed(10)
	snap := mon.Snapshot()
	if snap.Firing != 1 {
		t.Fatalf("budget alert not firing: %+v", snap.Alerts)
	}
	// Clean window resolves.
	total.Add(10)
	feed(10)
	if snap = mon.Snapshot(); snap.Firing != 0 || snap.Resolved != 1 {
		t.Fatalf("budget alert not resolved: %+v", snap)
	}
}

// TestPendingCancelsSilently checks a single breach under For=2 never
// fires and leaves no trace once the series recovers.
func TestPendingCancelsSilently(t *testing.T) {
	reg := obs.NewRegistry()
	errs := reg.Counter("e_total", "", nil)
	total := reg.Counter("t_total", "", nil)
	rule := Rule{
		Name: "budget", Kind: KindErrorBudget,
		ErrorMetric: "e_total", TotalMetric: "t_total",
		SLO: 0.9, MaxBurn: 1, Every: 5, For: 2,
	}
	eng, mon := newTestMonitor(t, reg, []Rule{rule})
	feed := func() {
		for i := 0; i < 5; i++ {
			eng.Apply([]storage.Record{rec("u0", "00")})
		}
	}
	feed() // baseline
	errs.Add(9)
	total.Add(10)
	feed() // breach #1 → pending
	if snap := mon.Snapshot(); snap.Pending != 1 || snap.Firing != 0 {
		t.Fatalf("want one pending alert, got %+v", snap)
	}
	total.Add(10)
	feed() // clean → pending cancels
	snap := mon.Snapshot()
	if len(snap.Alerts) != 0 || snap.Resolved != 0 {
		t.Fatalf("pending alert left residue: %+v", snap)
	}
}

// TestHealthText pins the plain-text shape /debug/health serves.
func TestHealthText(t *testing.T) {
	_, mon := newTestMonitor(t, obs.NewRegistry(), DefaultRules())
	txt := mon.HealthText()
	if !strings.HasPrefix(txt, "status: ok\n") {
		t.Fatalf("fresh monitor health = %q", txt)
	}
	for _, want := range []string{"records: 0", "rules: 4", "firing: 0"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("health text missing %q:\n%s", want, txt)
		}
	}
}

// TestRuleValidation checks New rejects bad rule tables.
func TestRuleValidation(t *testing.T) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	if _, err := New(Config{Engine: eng, Registry: obs.NewRegistry(),
		Rules: []Rule{{Name: "x", Kind: "nope"}}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := New(Config{Engine: eng, Registry: obs.NewRegistry(),
		Rules: []Rule{{Kind: KindClusterChurn}}}); err == nil {
		t.Fatal("unnamed rule accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
}

// TestAlertRefiresAfterResolve: the lifecycle is cyclic, not one-shot — a
// rule whose alert resolved must go pending→firing again on a fresh
// breach, with each firing counted on watch_alerts_total and each
// resolution kept in the history.
func TestAlertRefiresAfterResolve(t *testing.T) {
	rule := Rule{
		Name: "churn", Kind: KindClusterChurn, Vector: vectors.DC.String(),
		Every: 10, For: 1, MaxChurn: 0.5,
	}
	reg := obs.NewRegistry()
	eng, mon := newTestMonitor(t, reg, []Rule{rule})

	calm := func(prefix string) {
		for i := 0; i < 10; i++ {
			eng.Apply([]storage.Record{rec(fmt.Sprintf("%s%02d", prefix, i), fmt.Sprintf("%s%06x", prefix, i))})
		}
	}
	storm := func(prefix, hash string) {
		for i := 0; i < 10; i++ {
			eng.Apply([]storage.Record{rec(fmt.Sprintf("%s%02d", prefix, i), hash)})
		}
	}
	firedTotal := func() int64 {
		return reg.Counter("watch_alerts_total", "", obs.Labels{"rule": "churn"}).Value()
	}

	// Baseline, first storm (users a* converge), first calm stretch.
	calm("aa")
	calm("ab")
	storm("aa", "beefbeef")
	if snap := mon.Snapshot(); snap.Firing != 1 {
		t.Fatalf("first storm did not fire: %+v", snap.Alerts)
	}
	calm("ac")
	snap := mon.Snapshot()
	if snap.Firing != 0 || snap.Resolved != 1 {
		t.Fatalf("first storm did not resolve: %+v", snap)
	}
	if got := firedTotal(); got != 1 {
		t.Fatalf("watch_alerts_total = %d after first cycle, want 1", got)
	}

	// Second storm: the ac* users converge — the same rule must re-fire.
	storm("ac", "cafecafe")
	snap = mon.Snapshot()
	if snap.Firing != 1 {
		t.Fatalf("rule did not re-fire after resolving: %+v", snap)
	}
	if got := firedTotal(); got != 2 {
		t.Fatalf("watch_alerts_total = %d after re-fire, want 2", got)
	}

	// Second calm stretch: both cycles end up in the resolved history.
	calm("ad")
	snap = mon.Snapshot()
	if snap.Firing != 0 || snap.Resolved != 2 {
		t.Fatalf("second cycle did not resolve into history: %+v", snap)
	}
	resolved := 0
	for _, a := range snap.Alerts {
		if a.Rule == "churn" && a.State == StateResolved {
			resolved++
			if a.ResolvedAtRecords <= a.FiredAtRecords {
				t.Fatalf("history entry out of order: %+v", a)
			}
		}
	}
	if resolved != 2 {
		t.Fatalf("resolved history entries = %d, want 2", resolved)
	}
}
