// Package study orchestrates the paper's measurement methodology end to
// end: it runs the seven fingerprinting vectors k times against every
// (simulated) participant, collates elementary fingerprints with the
// bipartite-graph method of §3.2, and implements every analysis in the
// evaluation — stability (Table 1, Fig. 3), cluster agreement (Fig. 5),
// match scores (Table 6), diversity (Tables 2–3), the UA/W3C analysis and
// additive-value computation (§4), the Math-JS follow-up (Tables 4–5),
// cross-vector agreement (Fig. 9) and the §5 subset-ranking robustness
// check.
package study

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/vectors"
)

// Config controls a simulated study run.
type Config struct {
	// Seed drives population sampling and per-iteration jitter draws.
	Seed int64
	// Users is the participant count (paper: 2093 main, 528 follow-up).
	Users int
	// Iterations is the per-vector repetition count k (paper: 30).
	Iterations int
	// Mix selects the demographic mix; zero value = main-study mix.
	Mix population.Mix
	// Jitter models load-induced capture offsets; nil = DefaultJitter.
	Jitter *platform.JitterModel
	// Parallelism bounds worker goroutines; 0 = GOMAXPROCS.
	Parallelism int
	// IDPrefix prefixes participant IDs.
	IDPrefix string
	// Era selects the audio-stack generation (see population.Config.Era).
	Era string
	// Progress, when non-nil, is invoked after each participant finishes
	// rendering, with the number completed so far and the total. It is
	// called concurrently from worker goroutines and must be goroutine-
	// safe.
	Progress func(done, total int)
	// CheckpointPath, when non-empty, makes RunContext record each
	// participant's rendered observations to this file as they complete,
	// and resume from it on the next run with the same Config: already-
	// rendered participants are restored instead of re-rendered, and the
	// dataset comes out bit-identical to an uninterrupted run. A file
	// written under a different Config is ignored and overwritten.
	CheckpointPath string
	// RenderCache, when non-nil, memoizes fingerprint renders across runs:
	// passing one cache to several studies (as fpstudy does for the main
	// and follow-up populations) shares renders between them, and the
	// caller can read its Stats for progress reporting. Nil means a fresh
	// private cache per run. Results are bit-identical either way.
	RenderCache *vectors.Cache
}

// Dataset is the raw outcome of a study: the participants, their non-audio
// fingerprinting surfaces, and every elementary audio fingerprint each
// user's browser emitted. Datasets come from two places — simulated runs
// (Run) and loaded collection exports (FromRecords) — and every analysis
// works identically on both.
type Dataset struct {
	// Devices holds the simulated participants, in stable order. Nil for
	// datasets loaded from a collection export.
	Devices []*platform.Device
	// Users holds the participant IDs, in stable order.
	Users []string
	// Iterations is the per-vector repetition count.
	Iterations int
	// Obs maps vector → user index → iteration → elementary fingerprint
	// hash.
	Obs map[vectors.ID][][]string
	// UA, Canvas, Fonts, MathJS and Platforms are per-user surface values
	// aligned with Users.
	UA        []string
	Canvas    []string
	Fonts     []string
	MathJS    []string
	Platforms []string
	// Parallelism bounds the worker goroutines the analysis sweeps
	// (AgreementScores, MatchScores, PairwiseVectorAMI, SubsetRanking) may
	// use; 0 = GOMAXPROCS, 1 = serial. Results are bit-identical across
	// settings — only wall-clock changes.
	Parallelism int

	// tracer is the span under which analysis stages record their timing
	// (SetTracer; nil disables tracing).
	tracer atomic.Pointer[obs.Span]

	// mu guards the lazily built caches below.
	mu sync.Mutex
	// idx interns user/fingerprint IDs (built eagerly by Run/FromRecords,
	// lazily otherwise); denseByVec caches per-vector full-graph labelings
	// in interned form.
	idx        *Index
	denseByVec map[vectors.ID]*denseInfo
}

// Run simulates the full study: every user runs every vector Iterations
// times. Rendering is memoized per (audio stack, vector, capture offset), so
// cost scales with platform diversity rather than population size. The
// result is deterministic for a given Config, independent of Parallelism.
func Run(cfg Config) (*Dataset, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with pipeline tracing: when ctx carries an obs span, a
// "study.run" child records the population/render/intern stages. Tracing
// never affects the dataset — results stay bit-identical to Run.
func RunContext(ctx context.Context, cfg Config) (*Dataset, error) {
	return run(ctx, cfg, vectors.All)
}

// Diversity runs the study for the vectors vs only and returns their Table 2
// rows, in the order of vs. Each row equals the one Run(cfg).Table2() reports
// for that vector: every user draws the same capture offsets, and only the
// vectors not asked for go unrendered. Checkpointing is not supported (a
// checkpoint entry holds all seven vectors), so cfg.CheckpointPath must be
// empty.
func Diversity(ctx context.Context, cfg Config, vs ...vectors.ID) ([]DiversityRow, error) {
	if cfg.CheckpointPath != "" {
		return nil, errors.New("study: Diversity cannot checkpoint a run of selected vectors")
	}
	for _, v := range vs {
		if !slices.Contains(vectors.All, v) {
			return nil, fmt.Errorf("study: vector %v is not one of the seven a study renders", v)
		}
	}
	ds, err := run(ctx, cfg, vs)
	if err != nil {
		return nil, err
	}
	rows := make([]DiversityRow, len(vs))
	for i, v := range vs {
		rows[i] = ds.diversityRow(v)
	}
	return rows, nil
}

// run simulates the study, rendering and recording the vectors vs only;
// Dataset.Obs holds exactly those vectors.
func run(ctx context.Context, cfg Config, vs []vectors.ID) (*Dataset, error) {
	if cfg.Users <= 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("study: Users and Iterations must be positive (got %d, %d)",
			cfg.Users, cfg.Iterations)
	}
	ctx, runSpan := obsStart(ctx, "study.run")
	runSpan.SetAttr("users", cfg.Users)
	runSpan.SetAttr("iterations", cfg.Iterations)
	runSpan.SetAttr("vectors", len(vs))
	defer runSpan.End()

	jitter := cfg.Jitter
	if jitter == nil {
		jitter = platform.DefaultJitter()
	}
	_, popSpan := obsStart(ctx, "population")
	devs := population.Sample(population.Config{
		Seed: cfg.Seed, N: cfg.Users, Mix: cfg.Mix, IDPrefix: cfg.IDPrefix,
		Era: cfg.Era,
	})
	popSpan.End()

	ds := &Dataset{
		Devices:    devs,
		Users:      make([]string, len(devs)),
		Iterations: cfg.Iterations,
		Obs:        make(map[vectors.ID][][]string, len(vs)),
		UA:         make([]string, len(devs)),
		Canvas:     make([]string, len(devs)),
		Fonts:      make([]string, len(devs)),
		MathJS:     make([]string, len(devs)),
		Platforms:  make([]string, len(devs)),
	}
	for i, d := range devs {
		ds.Users[i] = d.ID
		ds.UA[i] = d.UserAgent()
		ds.Canvas[i] = d.CanvasFingerprint()
		ds.Fonts[i] = d.FontsFingerprint()
		ds.MathJS[i] = d.MathJSFingerprint()
		ds.Platforms[i] = d.Platform()
	}
	for _, v := range vs {
		obs := make([][]string, len(devs))
		for i := range obs {
			obs[i] = make([]string, cfg.Iterations)
		}
		ds.Obs[v] = obs
	}

	// Pre-derive per-user jitter seeds so results don't depend on worker
	// scheduling.
	seedRng := rand.New(rand.NewSource(cfg.Seed ^ 0x6a75747465726d6c))
	userSeeds := make([]int64, len(devs))
	for i := range userSeeds {
		userSeeds[i] = seedRng.Int63()
	}

	// Checkpoint/resume: restore participants a previous (interrupted) run
	// already rendered, and record new ones as they complete. Because each
	// user's jitter seed is pre-derived, skipping restored users leaves
	// everyone else's randomness untouched — the resumed dataset is
	// bit-identical to an uninterrupted run.
	resumed := make([]bool, len(devs))
	var ckpt *checkpointWriter
	if cfg.CheckpointPath != "" {
		cw, entries, err := openCheckpoint(cfg.CheckpointPath, cfg, ds.Users)
		if err != nil {
			return nil, err
		}
		ckpt = cw
		defer ckpt.close()
		for _, e := range entries {
			restore(ds, e)
			resumed[e.User] = true
			mResumedUsers.Inc()
		}
		runSpan.SetAttr("resumed_users", len(entries))
	}

	_, renderSpan := obsStart(ctx, "render")
	var done atomic.Int64
	cache := cfg.RenderCache
	if cache == nil {
		cache = vectors.NewCache()
	}
	plan := planRenders(ds, jitter, userSeeds, resumed)
	// Each worker owns whole audio stacks, so no two workers ask the cache
	// for one key: a stack's first user renders its passes, the rest hit.
	if err := runAll(len(plan.stackUsers), cfg.Parallelism, func(s int) error {
		for _, i := range plan.stackUsers[s] {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !resumed[i] {
				if err := runUser(ds, cache, plan, i); err != nil {
					return err
				}
				if ckpt != nil {
					if err := ckpt.append(entryFor(ds, i)); err != nil {
						return fmt.Errorf("study: checkpoint user %s: %w", ds.Users[i], err)
					}
				}
			}
			if cfg.Progress != nil {
				cfg.Progress(int(done.Add(1)), len(devs))
			}
		}
		return nil
	}); err != nil {
		renderSpan.End()
		return nil, err
	}
	cst := cache.Stats()
	renderSpan.SetAttr("distinct_renders", cst.Entries)
	renderSpan.SetAttr("cache_hits", int(cst.Hits))
	renderSpan.SetAttr("cache_misses", int(cst.Misses))
	renderSpan.End()

	ds.Parallelism = cfg.Parallelism
	_, indexSpan := obsStart(ctx, "intern-index")
	ds.idx = buildIndex(ds.Obs)
	indexSpan.End()
	return ds, nil
}

// renderPlan is a run's capture offsets, drawn before anything renders.
type renderPlan struct {
	// offsets holds each user's draws, iteration-major: user i's offset for
	// iteration it and vector vectors.All[vi] is
	// offsets[i][it*len(vectors.All)+vi]. Nil for resumed users.
	offsets [][]int
	// need maps an audio-stack key to the sorted distinct offsets its
	// users drew, per vector index.
	need map[string][][]int
	// stackUsers groups all user indices, resumed ones included, by stack,
	// in order of first appearance.
	stackUsers [][]int
}

// planRenders draws the capture offsets of every user still to render,
// each from the user's own seed, collects the offsets each (stack, vector)
// needs, and groups the users by stack. Rendering consumes no randomness,
// so drawing up front leaves every draw as it was, and each user can ask
// the cache for its stack's whole list: the first user of a stack renders
// each vector once, in one pass, for every later user. It draws every
// vector's offsets even when the run renders only some: each user's draws
// interleave all seven vectors, so skipping one would shift the offsets of
// the vectors after it.
func planRenders(ds *Dataset, jitter *platform.JitterModel, userSeeds []int64, resumed []bool) *renderPlan {
	p := &renderPlan{offsets: make([][]int, len(ds.Devices)), need: map[string][][]int{}}
	group := map[string]int{}
	for i, d := range ds.Devices {
		stack := d.AudioStackKey()
		if _, ok := group[stack]; !ok {
			group[stack] = len(p.stackUsers)
			p.stackUsers = append(p.stackUsers, nil)
		}
		p.stackUsers[group[stack]] = append(p.stackUsers[group[stack]], i)
		if resumed[i] {
			continue
		}
		need := p.need[stack]
		if need == nil {
			need = make([][]int, len(vectors.All))
			p.need[stack] = need
		}
		rng := rand.New(rand.NewSource(userSeeds[i]))
		offs := make([]int, ds.Iterations*len(vectors.All))
		for it := 0; it < ds.Iterations; it++ {
			for vi, v := range vectors.All {
				off := jitter.Offset(rng, d.Load, v)
				offs[it*len(vectors.All)+vi] = off
				need[vi] = append(need[vi], off)
			}
		}
		p.offsets[i] = offs
	}
	for _, need := range p.need {
		for vi, offs := range need {
			slices.Sort(offs)
			need[vi] = slices.Compact(offs)
		}
	}
	return p
}

// runUser fills in all iterations of the dataset's vectors for one
// participant, asking the cache for the whole offset list of the user's
// stack. Vectors the dataset does not record are not rendered.
func runUser(ds *Dataset, cache *vectors.Cache, plan *renderPlan, idx int) error {
	d := ds.Devices[idx]
	runner := vectors.NewRunner(d.AudioTraits(), d.SampleRate)
	stack := d.AudioStackKey()
	need := plan.need[stack]
	offs := plan.offsets[idx]
	for vi, v := range vectors.All {
		obs := ds.Obs[v]
		if obs == nil {
			continue
		}
		fps, err := cache.RunOffsets(stack, runner, v, need[vi])
		if err != nil {
			return fmt.Errorf("user %s vector %v: %w", d.ID, v, err)
		}
		for it := 0; it < ds.Iterations; it++ {
			j, _ := slices.BinarySearch(need[vi], offs[it*len(vectors.All)+vi])
			obs[idx][it] = fps[j].Hash
		}
	}
	return nil
}

// Labels returns each user's collated-fingerprint cluster label for v,
// aligned with Users order. Labels are dense ints in [0, NumClusters),
// canonicalized by first appearance; only label equality is meaningful.
func (ds *Dataset) Labels(v vectors.ID) []int {
	d := ds.dense(v)
	out := make([]int, len(d.labels))
	for i, l := range d.labels {
		out[i] = int(l)
	}
	return out
}

// subsetIterations splits iterations 0..k−1 into ⌊k/s⌋ disjoint subsets of
// size s, dropping the remainder — the paper's §3.3 construction.
func subsetIterations(k, s int) [][]int {
	if s <= 0 || s > k {
		return nil
	}
	n := k / s
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		sub := make([]int, s)
		for j := 0; j < s; j++ {
			sub[j] = i*s + j
		}
		out[i] = sub
	}
	return out
}
