package watch

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// TestRenderDivergenceEndToEnd is the acceptance path for the shadow
// auditor: a deliberately broken block kernel must (1) increment
// vectors_render_divergence_total through the production cache-miss path,
// (2) drive the render_divergence watch rule to firing, and (3) leave a
// flight record naming the offending op in the auditor's summary.
func TestRenderDivergenceEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	_, mon := newTestMonitor(t, reg, []Rule{{
		Name: "render-divergence", Kind: KindRenderDivergence, Every: 1,
	}})

	auditor := vectors.NewShadowAuditor(vectors.ShadowConfig{Every: 1, Registry: reg})
	cache := vectors.NewCache()
	cache.SetShadow(auditor)
	runner := vectors.NewRunner(webaudio.DefaultTraits(), 44100)

	// Healthy render first: the counter stays at zero and the rule's first
	// evaluation is clean.
	if _, err := cache.Run("stack-healthy", runner, vectors.DC, 0); err != nil {
		t.Fatal(err)
	}
	mon.Observe(1)
	if snap := mon.Snapshot(); snap.Firing != 0 || snap.Pending != 0 {
		t.Fatalf("healthy engines raised an alert: %+v", snap)
	}

	// Break the compressor's block kernel and render through the production
	// path (new cache key → miss → audit).
	webaudio.SetBlockFault("compressor", 9, 1<<21)
	defer webaudio.SetBlockFault("", 0, 0)
	if _, err := cache.Run("stack-broken", runner, vectors.DC, 1); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("vectors_render_divergence_total", "", nil).Value(); got != 1 {
		t.Fatalf("vectors_render_divergence_total = %d, want 1", got)
	}

	mon.Observe(2)
	snap := mon.Snapshot()
	if snap.Firing != 1 {
		t.Fatalf("render_divergence alert not firing: %+v", snap)
	}
	var alert *Alert
	for i := range snap.Alerts {
		if snap.Alerts[i].Rule == "render-divergence" && snap.Alerts[i].State == StateFiring {
			alert = &snap.Alerts[i]
		}
	}
	if alert == nil {
		t.Fatalf("no firing render-divergence alert in %+v", snap.Alerts)
	}
	if alert.Kind != KindRenderDivergence || alert.Value != 1 {
		t.Fatalf("alert = %+v", alert)
	}

	// The flight recorder names the offending op.
	sum := auditor.Summary()
	if len(sum.Records) != 1 {
		t.Fatalf("flight records = %d, want 1", len(sum.Records))
	}
	rec := sum.Records[0]
	if rec.Divergence.Op != "compressor" || rec.Divergence.Sample != 9 {
		t.Fatalf("flight record did not name the broken kernel: %+v", rec.Divergence)
	}
	if rec.StackKey != "stack-broken" || rec.Vector != "DC" {
		t.Fatalf("flight record context: %+v", rec)
	}
	if rec.Divergence.OpIndex < 0 {
		t.Fatalf("op index missing: %+v", rec.Divergence)
	}

	// Fixing the kernel (clearing the fault) resolves the alert on the next
	// clean evaluation.
	webaudio.SetBlockFault("", 0, 0)
	mon.Observe(3)
	snap = mon.Snapshot()
	if snap.Firing != 0 || snap.Resolved != 1 {
		t.Fatalf("alert did not resolve after fix: %+v", snap)
	}
}
