package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/study"
	"repro/internal/webaudio"
)

func TestFingerprinterRunsAllVectors(t *testing.T) {
	f := NewFingerprinter(webaudio.DefaultTraits(), 0)
	fps, err := f.FingerprintAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 7 {
		t.Fatalf("got %d fingerprints", len(fps))
	}
	again, err := f.FingerprintAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fps {
		if again[i] != fps[i] {
			t.Errorf("%v: fingerprint changed between runs", fps[i].Vector)
		}
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()

	// Two visits by the same device leave overlapping fingerprints.
	tr.Observe("alice", "fp1", "fp2")
	tr.Observe("bob", "fp3")
	st := tr.Stats()
	if st.Visitors != 2 || st.Identities != 2 || st.Unique != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// A returning visitor is identified from any overlapping fingerprint.
	aliceID, ok := tr.IdentityOf("alice")
	if !ok {
		t.Fatal("alice unknown")
	}
	got, ok := tr.Identify([]string{"fp2", "fp-unseen"})
	if !ok || got != aliceID {
		t.Errorf("Identify = (%d,%t), want alice's identity %d", got, ok, aliceID)
	}
	if _, ok := tr.Identify([]string{"never-seen"}); ok {
		t.Error("identified an unknown visitor")
	}

	// A first-time visitor joining an identity merges nothing.
	if merges := tr.Observe("dave", "fp2"); merges != 0 {
		t.Errorf("joining visitor merges = %d, want 0", merges)
	}
	// A bridging visitor merges identities (§3.2's dynamic behaviour).
	merges := tr.Observe("carol", "fp1", "fp3")
	if merges != 1 {
		t.Errorf("merges = %d, want 1", merges)
	}
	st = tr.Stats()
	if st.Identities != 1 || st.Visitors != 4 {
		t.Errorf("after merge: %+v", st)
	}
	// Ambiguity is impossible post-merge.
	if _, ok := tr.Identify([]string{"fp1", "fp3"}); !ok {
		t.Error("post-merge identify failed")
	}
}

// smallDataset runs a compact study used by the rendering tests.
func smallDataset(t *testing.T) *study.Dataset {
	t.Helper()
	ds, err := RunStudy(study.Config{Seed: 41, Users: 150, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallFollowUp(t *testing.T) *study.Dataset {
	t.Helper()
	ds, err := RunStudy(study.Config{
		Seed: 42, Users: 120, Iterations: 6,
		Mix: population.FollowUpMix(), IDPrefix: "f",
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestWriteExperimentAllIDs(t *testing.T) {
	main := smallDataset(t)
	fu := smallFollowUp(t)
	for _, id := range MainExperiments {
		var sb strings.Builder
		if err := WriteExperiment(&sb, main, id); err != nil {
			t.Errorf("experiment %s: %v", id, err)
		}
		if sb.Len() == 0 {
			t.Errorf("experiment %s produced no output", id)
		}
	}
	for _, id := range FollowUpExperiments {
		var sb strings.Builder
		if err := WriteExperiment(&sb, fu, id); err != nil {
			t.Errorf("experiment %s: %v", id, err)
		}
		if sb.Len() == 0 {
			t.Errorf("experiment %s produced no output", id)
		}
	}
	if err := WriteExperiment(&strings.Builder{}, main, "nope"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestWriteAllExperiments(t *testing.T) {
	var sb strings.Builder
	if err := WriteAllExperimentsContext(context.Background(), &sb, smallDataset(t), smallFollowUp(t)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Figure 3", "Figure 5", "Table 6", "Table 2", "Table 3",
		"User-Agent span", "additive value", "Figure 9", "ranking",
		"Table 4", "Table 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("combined report missing %q", want)
		}
	}
}

func TestWriteAblation(t *testing.T) {
	var sb strings.Builder
	if err := WriteAblationContext(context.Background(), &sb, smallDataset(t), 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Naive") || !strings.Contains(sb.String(), "Graph") {
		t.Errorf("ablation output malformed:\n%s", sb.String())
	}
}

// TestWriteEvolution: the 2016-era surface must be at least as diverse as
// the 2021-era one (the §6 decline), and the report must render.
func TestWriteEvolution(t *testing.T) {
	var sb strings.Builder
	if err := WriteEvolution(&sb, 51, 250, 6); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "2016-era") || !strings.Contains(out, "0.38") {
		t.Errorf("evolution output malformed:\n%s", out)
	}
	vintage, err := RunStudy(study.Config{Seed: 51, Users: 250, Iterations: 6, Era: "2016"})
	if err != nil {
		t.Fatal(err)
	}
	modern, err := RunStudy(study.Config{Seed: 51, Users: 250, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	get := func(ds *study.Dataset, name string) float64 {
		for _, r := range ds.Table2() {
			if r.Name == name {
				return r.Normalized
			}
		}
		t.Fatalf("row %s missing", name)
		return 0
	}
	if get(vintage, "Hybrid") < get(modern, "Hybrid") {
		t.Errorf("2016-era Hybrid e_norm %.3f < 2021-era %.3f — evolution inverted",
			get(vintage, "Hybrid"), get(modern, "Hybrid"))
	}
	if get(vintage, "DC") < get(modern, "DC") {
		t.Errorf("2016-era DC e_norm %.3f < 2021-era %.3f", get(vintage, "DC"), get(modern, "DC"))
	}
}

// TestWriteEvolutionContextSpans: a traced era comparison records one
// "study.run" span per era under the caller's span, each split into its
// population and render stages, and prints what the untraced call prints.
func TestWriteEvolutionContextSpans(t *testing.T) {
	root := obs.NewTrace("test")
	ctx, parent := obs.Start(obs.ContextWithSpan(context.Background(), root), "analyze/evolution")
	var traced, plain strings.Builder
	if err := WriteEvolutionContext(ctx, &traced, 53, 60, 4); err != nil {
		t.Fatal(err)
	}
	parent.End()
	root.End()

	runs := parent.Children()
	if len(runs) != 2 {
		t.Fatalf("analyze/evolution has %d children, want 2 study.run spans", len(runs))
	}
	for i, run := range runs {
		if run.Name() != "study.run" {
			t.Errorf("child %d is %q, want study.run", i, run.Name())
		}
		for _, stage := range []string{"population", "render", "intern-index"} {
			if run.Find(stage) == nil {
				t.Errorf("era %d's study.run has no %q span", i, stage)
			}
		}
	}
	if err := WriteEvolution(&plain, 53, 60, 4); err != nil {
		t.Fatal(err)
	}
	if traced.String() != plain.String() {
		t.Errorf("traced output differs from untraced:\n%s\nvs\n%s", traced.String(), plain.String())
	}
}

func TestWriteAnonymity(t *testing.T) {
	var sb strings.Builder
	if err := WriteAnonymityContext(context.Background(), &sb, smallDataset(t)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Audio (combined)", "Canvas", "≥10"} {
		if !strings.Contains(out, want) {
			t.Errorf("anonymity output missing %q:\n%s", want, out)
		}
	}
	// Every surface has all users in sets of ≥1 (first numeric column 1.000).
	if !strings.Contains(out, "1.000") {
		t.Errorf("≥1 column should be 1.000:\n%s", out)
	}
}

func TestWriteDemographics(t *testing.T) {
	var sb strings.Builder
	if err := WriteDemographicsContext(context.Background(), &sb, smallDataset(t)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"OS families", "browsers", "Windows", "Chrome", "top countries"} {
		if !strings.Contains(out, want) {
			t.Errorf("demographics missing %q:\n%s", want, out)
		}
	}
}
