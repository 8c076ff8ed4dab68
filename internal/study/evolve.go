package study

import (
	"fmt"
	"math/rand"
	"slices"

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
	// Parallelism bounds worker goroutines; 0 = GOMAXPROCS. Results are
	// scheduling-independent: every draw is made before anything renders.
	Parallelism int
}

// evolvedStack is one audio stack's share of an evolved build: the runner of
// its first (user, epoch) and, per vector, the offsets its (user, epoch)s
// drew (sorted and distinct once rendered) and their fingerprints.
type evolvedStack struct {
	runner  *vectors.Runner
	offsets [][]int
	fps     [][]vectors.Fingerprint
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
// pre-derived rng (churn draws and jitter draws both), and every draw is
// made before anything renders, so the output is bit-identical regardless
// of Parallelism. Each distinct (audio stack, vector) renders in one pass,
// whatever the number of users and epochs on the stack.
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

	ev := &EvolvedDataset{
		Users:           make([]string, len(devs)),
		Epochs:          cfg.Epochs,
		SamplesPerEpoch: cfg.SamplesPerEpoch,
		Vectors:         vecs,
		Obs:             make(map[vectors.ID][][][]string, len(vecs)),
		Events:          make([][]population.ChurnEvent, cfg.Epochs),
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

	// Pre-derive per-user seeds so each user's draws are its own.
	seedRng := rand.New(rand.NewSource(cfg.Seed ^ 0x45564f4c56)) // "EVOLV"
	userSeeds := make([]int64, len(devs))
	for i := range userSeeds {
		userSeeds[i] = seedRng.Int63()
	}

	// Draw every churn step and capture offset before anything renders,
	// each user from its own rng in the order it has always drawn: per
	// epoch the churn step, then each vector's samples. Rendering consumes
	// no randomness, so every draw stays as it was.
	ns := cfg.SamplesPerEpoch
	plan := map[string]*evolvedStack{}
	var order []string                                // stacks in order of first appearance
	at := make([]*evolvedStack, len(devs)*cfg.Epochs) // [user*Epochs+epoch]
	offsets := make([][]int, len(devs)*cfg.Epochs)    // [user*Epochs+epoch][vi*ns+sample]
	for u, d := range devs {
		ev.Users[u] = d.ID
		rng := rand.New(rand.NewSource(userSeeds[u]))
		for e := 0; e < cfg.Epochs; e++ {
			if e > 0 {
				evt := cfg.Churn.Step(rng, d)
				ev.Events[e][u] = evt
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
			stack := d.AudioStackKey()
			st := plan[stack]
			if st == nil {
				st = &evolvedStack{runner: vectors.NewRunner(d.AudioTraits(), d.SampleRate),
					offsets: make([][]int, len(vecs)), fps: make([][]vectors.Fingerprint, len(vecs))}
				plan[stack] = st
				order = append(order, stack)
			}
			offs := make([]int, len(vecs)*ns)
			for i := range offs {
				offs[i] = jitter.Offset(rng, d.Load, vecs[i/ns])
				st.offsets[i/ns] = append(st.offsets[i/ns], offs[i])
			}
			at[u*cfg.Epochs+e], offsets[u*cfg.Epochs+e] = st, offs
		}
	}

	// Render each (stack, vector) pass once: one worker owns each pass.
	cache := vectors.NewCache()
	if err := runAll(len(order)*len(vecs), cfg.Parallelism, func(i int) error {
		stack, vi := order[i/len(vecs)], i%len(vecs)
		st := plan[stack]
		slices.Sort(st.offsets[vi])
		st.offsets[vi] = slices.Compact(st.offsets[vi])
		fps, err := cache.RunOffsets(stack, st.runner, vecs[vi], st.offsets[vi])
		st.fps[vi] = fps
		return err
	}); err != nil {
		return nil, err
	}

	for k, st := range at {
		u, e := k/cfg.Epochs, k%cfg.Epochs
		for vi, v := range vecs {
			samples := make([]string, ns)
			for s := range samples {
				j, _ := slices.BinarySearch(st.offsets[vi], offsets[k][vi*ns+s])
				samples[s] = st.fps[vi][j].Hash
			}
			ev.Obs[v][e][u] = samples
		}
	}
	return ev, nil
}
