package study

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/vectors"
)

// The evolved-dataset builder: a generator of time-evolving observation
// data, after the longitudinal tracking studies of the paper's related work
// (FP-STALKER, Vastel et al.). Each user's device steps through a
// population.ChurnModel between epochs — browser/OS upgrades mutating the
// DSP-kernel parameters mid-study — and every configured vector is rendered
// SamplesPerEpoch times per epoch. The verification workload
// (internal/verify) splits the result into enrollment history and
// genuine/impostor trials for FAR/FRR sweeps.

// EvolvedConfig parameterizes an evolved-dataset build.
type EvolvedConfig struct {
	// Seed drives population sampling, upgrades and jitter.
	Seed int64
	// Users is the tracked population size.
	Users int
	// Epochs is the number of observation rounds (e.g. weeks).
	Epochs int
	// SamplesPerEpoch is how many times each vector runs per user per
	// epoch (default 3).
	SamplesPerEpoch int
	// Vectors selects which vectors are rendered each epoch. Nil renders
	// only Hybrid.
	Vectors []vectors.ID
	// Churn is the upgrade model applied between epochs. The zero value
	// upgrades nothing.
	Churn population.ChurnModel
	// RenderCache, when non-nil, shares renders with other studies in the
	// process (cost scales with distinct audio stacks, not users).
	RenderCache *vectors.Cache
	// Parallelism bounds concurrent per-user workers (0 = serial). Results
	// are scheduling-independent: every user's randomness is pre-seeded.
	Parallelism int
}

// EvolvedDataset is a time-evolving observation set.
type EvolvedDataset struct {
	// Users holds participant IDs, index-aligned with the per-user axes.
	Users []string
	// Epochs and SamplesPerEpoch echo the build configuration.
	Epochs, SamplesPerEpoch int
	// Vectors lists the rendered vectors, in configuration order.
	Vectors []vectors.ID
	// Obs[v][e][u] are user u's sample hashes for vector v at epoch e.
	Obs map[vectors.ID][][][]string
	// Events[e][u] is what the churn model did to user u entering epoch e.
	// Events[0] is all-zero: epoch 0 is enrollment, nothing has upgraded.
	Events [][]population.ChurnEvent
	// Upgrades counts browser-major upgrade events; OSUpgrades counts OS
	// release changes; FingerprintShifts counts events that changed a
	// device's audio stack (and therefore its elementary fingerprints).
	Upgrades, OSUpgrades, FingerprintShifts int
}

// BuildEvolved renders the evolved dataset. Each user is driven by its own
// pre-derived rng (churn draws and jitter draws both), so the output is
// bit-identical regardless of Parallelism.
func BuildEvolved(cfg EvolvedConfig) (*EvolvedDataset, error) {
	if cfg.Users <= 0 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("study: need ≥1 user and ≥1 epoch (got %d, %d)",
			cfg.Users, cfg.Epochs)
	}
	if cfg.SamplesPerEpoch <= 0 {
		cfg.SamplesPerEpoch = 3
	}
	vecs := cfg.Vectors
	if len(vecs) == 0 {
		vecs = []vectors.ID{vectors.Hybrid}
	}

	devs := population.Sample(population.Config{Seed: cfg.Seed, N: cfg.Users})
	jitter := platform.DefaultJitter()
	cache := cfg.RenderCache
	if cache == nil {
		cache = vectors.NewCache()
	}

	ev := &EvolvedDataset{
		Users:           make([]string, len(devs)),
		Epochs:          cfg.Epochs,
		SamplesPerEpoch: cfg.SamplesPerEpoch,
		Vectors:         vecs,
		Obs:             make(map[vectors.ID][][][]string, len(vecs)),
		Events:          make([][]population.ChurnEvent, cfg.Epochs),
	}
	for i, d := range devs {
		ev.Users[i] = d.ID
	}
	for _, v := range vecs {
		epochs := make([][][]string, cfg.Epochs)
		for e := range epochs {
			epochs[e] = make([][]string, len(devs))
		}
		ev.Obs[v] = epochs
	}
	for e := range ev.Events {
		ev.Events[e] = make([]population.ChurnEvent, len(devs))
	}

	// Pre-derive per-user seeds so worker scheduling cannot reorder draws.
	seedRng := rand.New(rand.NewSource(cfg.Seed ^ 0x45564f4c56)) // "EVOLV"
	userSeeds := make([]int64, len(devs))
	for i := range userSeeds {
		userSeeds[i] = seedRng.Int63()
	}

	if err := runAll(len(devs), cfg.Parallelism, func(u int) error {
		d := devs[u]
		rng := rand.New(rand.NewSource(userSeeds[u]))
		for e := 0; e < cfg.Epochs; e++ {
			if e > 0 {
				ev.Events[e][u] = cfg.Churn.Step(rng, d)
			}
			runner := vectors.NewRunner(d.AudioTraits(), d.SampleRate)
			stack := d.AudioStackKey()
			for _, v := range vecs {
				samples := make([]string, cfg.SamplesPerEpoch)
				for s := range samples {
					fp, err := cache.Run(stack, runner, v, jitter.Offset(rng, d.Load, v))
					if err != nil {
						return err
					}
					samples[s] = fp.Hash
				}
				ev.Obs[v][e][u] = samples
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for _, epoch := range ev.Events {
		for _, evt := range epoch {
			if evt.BrowserUpgrade {
				ev.Upgrades++
			}
			if evt.OSUpgrade {
				ev.OSUpgrades++
			}
			if evt.StackShift {
				ev.FingerprintShifts++
			}
		}
	}
	return ev, nil
}
