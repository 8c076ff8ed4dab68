package study

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// TestDiversityMatchesTable2 is the differential gate for the selected-
// vector entry point: its DC and Hybrid rows equal the full study's Table 2
// rows at several seeds, sizes and both eras. Rendering only some vectors
// must leave every user's capture offsets where the full run draws them.
// Under the default jitter collation absorbs most of the offset noise, so
// the rows barely depend on which offsets a user drew; the grid runs again
// under a restless jitter, where every loaded device jitters on every
// capture over five offsets and Hybrid's clusters follow the exact draws.
func TestDiversityMatchesTable2(t *testing.T) {
	restless := platform.DefaultJitter()
	for v, states := range restless.MaxStates {
		if states > 1 {
			restless.MaxStates[v] = 6
			restless.Sensitivity[v] = 100
		}
	}
	sizes := []struct{ users, iterations int }{{24, 4}, {60, 6}}
	for _, jitter := range []*platform.JitterModel{nil, restless} {
		for _, era := range []string{"", "2016"} {
			for _, seed := range []int64{3, 17, 29} {
				for _, sz := range sizes {
					cfg := Config{Seed: seed, Users: sz.users, Iterations: sz.iterations, Era: era, Jitter: jitter}
					ds, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					full := ds.Table2() // in vectors.All order, so indexed by ID
					want := []DiversityRow{full[vectors.Hybrid], full[vectors.DC]}
					got, err := Diversity(context.Background(), cfg, vectors.Hybrid, vectors.DC)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("restless %t era %q seed %d %d×%d: Diversity rows\n%+v\nwant Table 2's\n%+v",
							jitter != nil, era, seed, sz.users, sz.iterations, got, want)
					}
				}
			}
		}
	}
}

// TestDiversityRenderBill: asked for DC and Hybrid, a study renders one
// pass per distinct audio stack for each of the two, and none for the
// other five vectors.
func TestDiversityRenderBill(t *testing.T) {
	for _, era := range []string{"", "2016"} {
		cfg := Config{Seed: 23, Users: 60, Iterations: 5, Era: era}
		stacks := map[string]bool{}
		for _, d := range population.Sample(population.Config{Seed: cfg.Seed, N: cfg.Users, Era: era}) {
			stacks[d.AudioStackKey()] = true
		}
		before := webaudio.Stats().Contexts
		if _, err := Diversity(context.Background(), cfg, vectors.DC, vectors.Hybrid); err != nil {
			t.Fatal(err)
		}
		if got, want := webaudio.Stats().Contexts-before, int64(2*len(stacks)); got != want {
			t.Errorf("era %q: %d contexts, want %d (two per each of %d stacks)", era, got, want, len(stacks))
		}
	}
}

// TestDiversityRejects: a checkpointed run and a vector outside the seven
// are errors, and the rejected checkpoint file is never created.
func TestDiversityRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.ndjson")
	cfg := Config{Seed: 5, Users: 4, Iterations: 2, CheckpointPath: path}
	if _, err := Diversity(context.Background(), cfg, vectors.DC); err == nil {
		t.Error("Diversity accepted a CheckpointPath")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("rejected run touched its checkpoint: %v", err)
	}
	cfg.CheckpointPath = ""
	if _, err := Diversity(context.Background(), cfg, vectors.ID(len(vectors.All))); err == nil {
		t.Error("Diversity accepted a vector outside the seven")
	}
}
