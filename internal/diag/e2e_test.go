package diag_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/obs/series"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
	"repro/internal/watch"
	"repro/internal/webaudio"
)

// TestFaultInjectedCaptureE2E is the PR's acceptance path: a deliberately
// broken block kernel diverges from the reference engine, the
// render-divergence watch rule fires off the ingest path, and the
// transition hook leaves exactly one on-disk bundle whose manifest names
// the breached rule, whose heap profile parses, and whose series window
// carries the divergence counter at the breach moment. A second immediate
// breach within the cooldown captures nothing.
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

	clk := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return clk }

	reg := obs.NewRegistry()
	sampler := diag.NewSampler(diag.SamplerConfig{Registry: reg})
	defer sampler.Close()

	eng := streaming.New(streaming.Config{Registry: reg, AMIRefreshEvery: -1})
	defer eng.Close()
	mon, err := watch.New(watch.Config{
		Engine:   eng,
		Registry: reg,
		Rules: []watch.Rule{{
			Name: "render-divergence", Kind: watch.KindRenderDivergence, Every: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := series.New(series.Config{Registry: reg, Now: now})

	auditor := vectors.NewShadowAuditor(vectors.ShadowConfig{Every: 1, Registry: reg})
	cache := vectors.NewCache()
	cache.SetShadow(auditor)
	runner := vectors.NewRunner(webaudio.DefaultTraits(), 44100)

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

	rec := func(user, hash string) storage.Record {
		return storage.Record{UserID: user, Vector: vectors.DC.String(), Hash: hash}
	}

	// Healthy render + record: clean evaluation, no bundles.
	if _, err := cache.Run("stack-healthy", runner, vectors.DC, 0); err != nil {
		t.Fatal(err)
	}
	eng.Apply([]storage.Record{rec("u000", "aaaa")})
	capt.Flush()
	if mans, _ := diag.ListBundles(bundleDir); len(mans) != 0 {
		t.Fatalf("healthy pipeline captured %d bundles, want 0", len(mans))
	}

	// Inject the kernel fault and render through the production cache-miss
	// path: the shadow audit increments the divergence counter.
	webaudio.SetBlockFault("compressor", 9, 1<<21)
	defer webaudio.SetBlockFault("", 0, 0)
	if _, err := cache.Run("stack-broken", runner, vectors.DC, 1); err != nil {
		t.Fatal(err)
	}
	clk = clk.Add(5 * time.Second)
	ts.Tick() // retain the pre-breach counter position

	// The next applied record evaluates the rule: pending→firing (For
	// defaults to 1), and the transition hook captures a bundle.
	eng.Apply([]storage.Record{rec("u001", "bbbb")})
	capt.Flush()

	mans, err := diag.ListBundles(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 {
		t.Fatalf("after firing: %d bundles, want exactly 1", len(mans))
	}
	man := mans[0]
	if man.Rule != "render-divergence" {
		t.Errorf("manifest rule = %q, want render-divergence", man.Rule)
	}
	if man.Reason != diag.ReasonAlert {
		t.Errorf("manifest reason = %q, want %q", man.Reason, diag.ReasonAlert)
	}
	if man.Alert == nil || man.Alert.State != watch.StateFiring {
		t.Errorf("manifest alert = %+v, want firing", man.Alert)
	}

	// The heap profile must be pprof-parsable.
	hf, err := os.Open(filepath.Join(bundleDir, man.ID, diag.FileHeap))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := diag.ParsePprof(hf)
	hf.Close()
	if err != nil {
		t.Fatalf("bundled heap profile does not parse: %v", err)
	}
	if len(prof.Samples) == 0 {
		t.Error("bundled heap profile has no samples")
	}

	// The series window must carry the breached rule's metric with at
	// least one retained point.
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
	qr, ok := win.Metrics["vectors_render_divergence_total"]
	if !ok {
		t.Fatalf("series window missing vectors_render_divergence_total, has %v", keys(win.Metrics))
	}
	points := 0
	sawDivergence := false
	for _, s := range qr.Series {
		points += len(s.Points)
		for _, p := range s.Points {
			if p.V >= 1 {
				sawDivergence = true
			}
		}
	}
	if points == 0 {
		t.Error("series window for the divergence counter is empty")
	}
	if !sawDivergence {
		t.Error("series window never shows the divergence counter at >= 1")
	}

	// The auditor's flight record names the faulted kernel.
	if recs := auditor.Records(); len(recs) != 1 || recs[0].Divergence.Op != "compressor" {
		t.Errorf("flight records = %+v, want one record naming compressor", recs)
	}

	// Second immediate breach within the cooldown: resolve the alert, then
	// diverge again — the rule re-fires but the capture is suppressed.
	webaudio.SetBlockFault("", 0, 0)
	eng.Apply([]storage.Record{rec("u002", "cccc")}) // clean: resolves
	webaudio.SetBlockFault("compressor", 9, 1<<21)
	if _, err := cache.Run("stack-broken-2", runner, vectors.DC, 2); err != nil {
		t.Fatal(err)
	}
	clk = clk.Add(time.Minute) // still inside the 10m cooldown
	eng.Apply([]storage.Record{rec("u003", "dddd")})
	capt.Flush()
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
