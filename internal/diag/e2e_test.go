package diag_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collectclient"
	"repro/internal/collectserver"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/obs/series"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
	"repro/internal/watch"
)

// faultyStore is a real store whose Append fails while fail is set: the
// storage fault a full disk or a dead volume causes.
type faultyStore struct {
	*storage.Store
	fail atomic.Bool
}

func (s *faultyStore) Append(recs ...storage.Record) error {
	if s.fail.Load() {
		return errors.New("disk full")
	}
	return s.Store.Append(recs...)
}

// TestFaultInjectedCaptureE2E is the capture path end to end: a
// collection server whose store fails Append answers submissions 5xx, the
// stock ingest-error-budget watch rule fires on the next applied batch,
// and the transition hook leaves exactly one on-disk bundle whose
// manifest names the breached rule, whose heap profile pprof reads, and
// whose series window carries the failed submissions at the breach
// moment. A second breach within the cooldown captures nothing.
//
// When DIAG_BUNDLE_OUT is set the bundle ring lands there instead of a
// temp dir — the nightly workflow uses this to upload a real fault-
// injected bundle as a build artifact.
func TestFaultInjectedCaptureE2E(t *testing.T) {
	bundleDir := os.Getenv("DIAG_BUNDLE_OUT")
	if bundleDir == "" {
		bundleDir = t.TempDir()
	} else if err := os.RemoveAll(bundleDir); err != nil {
		t.Fatal(err)
	}

	var clk atomic.Int64
	clk.Store(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC).UnixNano())
	now := func() time.Time { return time.Unix(0, clk.Load()).UTC() }
	advance := func(d time.Duration) { clk.Add(int64(d)) }

	reg := obs.NewRegistry()
	sampler := diag.NewSampler(diag.SamplerConfig{Registry: reg})
	defer sampler.Close()

	eng := streaming.New(streaming.Config{Registry: reg, AMIRefreshEvery: -1})
	defer eng.Close()
	var rule watch.Rule
	for _, r := range watch.DefaultRules() {
		if r.Name == "ingest-error-budget" {
			rule = r
		}
	}
	rule.Every = 1
	mon, err := watch.New(watch.Config{Engine: eng, Registry: reg, Rules: []watch.Rule{rule}})
	if err != nil {
		t.Fatal(err)
	}

	ts := series.New(series.Config{Registry: reg, Now: now})

	capt, err := diag.NewCapturer(diag.CaptureConfig{
		Dir:        bundleDir,
		Registry:   reg,
		Series:     ts,
		Sampler:    sampler,
		Alerts:     mon.Snapshot,
		RuleLookup: mon.RuleByName,
		Cooldown:   10 * time.Minute,
		Now:        now,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.SetTransitionHook(capt.OnTransition)

	st, err := storage.Open(filepath.Join(t.TempDir(), "store.ndjson"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	store := &faultyStore{Store: st}
	srv, err := collectserver.New(collectserver.Config{
		Store: store, Registry: reg, Analytics: eng, Watch: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ctx := context.Background()
	sess, err := collectclient.New(hs.URL, collectclient.WithRetries(0)).StartSession(ctx, "u000", "e2e")
	if err != nil {
		t.Fatal(err)
	}
	iteration := 0
	submit := func() error {
		iteration++
		return sess.Submit(ctx, []collectserver.FPRecord{{
			Vector: vectors.DC.String(), Iteration: iteration, Hash: fmt.Sprintf("%08x", iteration),
		}})
	}
	// settle waits until every accepted batch is applied and its alert
	// transitions delivered, then for the captures they started.
	settle := func() {
		t.Helper()
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		capt.Flush()
	}
	// breach fails n submissions, then lands one healthy batch: its
	// evaluation sees n errors over about n requests.
	breach := func(n int) {
		t.Helper()
		store.fail.Store(true)
		for i := 0; i < n; i++ {
			if err := submit(); collectclient.StatusCode(err) != 500 {
				t.Fatalf("submission against a failing store: %v, want a 500", err)
			}
		}
		store.fail.Store(false)
		if err := submit(); err != nil {
			t.Fatal(err)
		}
		settle()
	}

	// Healthy submissions: the rule's first evaluation sets its baseline,
	// the second is clean, and nothing is captured.
	for i := 0; i < 2; i++ {
		if err := submit(); err != nil {
			t.Fatal(err)
		}
		settle()
	}
	if mans, _ := diag.ListBundles(bundleDir); len(mans) != 0 {
		t.Fatalf("healthy pipeline captured %d bundles, want 0", len(mans))
	}

	// The storage fault: the next applied batch's evaluation fires the
	// rule (For defaults to 1), and the transition hook captures a bundle.
	const failures = 3
	advance(5 * time.Second)
	breach(failures)

	mans, err := diag.ListBundles(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 {
		t.Fatalf("after firing: %d bundles, want exactly 1", len(mans))
	}
	man := mans[0]
	if man.Rule != "ingest-error-budget" {
		t.Errorf("manifest rule = %q, want ingest-error-budget", man.Rule)
	}
	if man.Reason != diag.ReasonAlert {
		t.Errorf("manifest reason = %q, want %q", man.Reason, diag.ReasonAlert)
	}
	if man.Alert == nil || man.Alert.State != watch.StateFiring {
		t.Errorf("manifest alert = %+v, want firing", man.Alert)
	}

	// The heap profile must be one pprof reads, with samples in it.
	top := diag.PprofTop(t, filepath.Join(bundleDir, man.ID, diag.FileHeap), "alloc_space")
	if !strings.Contains(top, "flat%") {
		t.Errorf("pprof -top of the bundled heap profile has no table:\n%s", top)
	}
	if strings.Contains(top, " of 0 total") {
		t.Errorf("bundled heap profile has no samples:\n%s", top)
	}

	// The series window must carry the breached rule's metric, with the
	// failed submissions on its 5xx series.
	raw, err := os.ReadFile(filepath.Join(bundleDir, man.ID, diag.FileSeries))
	if err != nil {
		t.Fatal(err)
	}
	var win struct {
		Metrics map[string]series.QueryResult `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &win); err != nil {
		t.Fatal(err)
	}
	qr, ok := win.Metrics["fpserver_requests_total"]
	if !ok {
		t.Fatalf("series window missing fpserver_requests_total, has %v", keys(win.Metrics))
	}
	points := 0
	sawFailures := false
	for _, s := range qr.Series {
		if s.Labels["route"] != "/api/v1/fingerprints" || s.Labels["class"] != "5xx" {
			continue
		}
		points += len(s.Points)
		for _, p := range s.Points {
			if p.V >= failures {
				sawFailures = true
			}
		}
	}
	if points == 0 {
		t.Error("series window has no 5xx submission points")
	}
	if !sawFailures {
		t.Errorf("series window never shows %d failed submissions", failures)
	}

	// Second breach within the cooldown: a clean batch resolves the alert,
	// then the store fails again — the rule re-fires but the capture is
	// suppressed.
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	settle()
	if snap := mon.Snapshot(); snap.Firing != 0 || snap.Resolved != 1 {
		t.Fatalf("clean batch did not resolve the alert: %+v", snap)
	}
	advance(time.Minute) // still inside the 10m cooldown
	breach(failures)
	if mans, _ := diag.ListBundles(bundleDir); len(mans) != 1 {
		t.Fatalf("breach within cooldown captured: %d bundles, want still 1", len(mans))
	}
	if snap := mon.Snapshot(); snap.Firing != 1 {
		t.Fatalf("second breach did not re-fire the rule: %+v", snap)
	}
}

func keys(m map[string]series.QueryResult) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
