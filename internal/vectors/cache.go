package vectors

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes fingerprints by (audio-stack key, vector, capture offset).
// Rendering is bit-deterministic given those three inputs (asserted by the
// engine's tests), so memoization is exact. A lookup renders every offset
// it finds missing in one render pass (Runner.RunOffsets), so a study over
// thousands of users runs one pass per distinct (platform class, vector)
// whose users ask for all their offsets at once, turning an
// O(users × iterations) rendering bill into O(platform classes) passes and
// O(platform classes × offsets) captures. Safe for concurrent use.
//
// The cache does not deduplicate concurrent misses: a render runs outside
// the lock, so two goroutines missing the same key both render it and store
// the same fingerprint. That is correct, only wasted work. Callers keep a
// pass from rendering twice by ownership instead: the study gives each
// worker whole audio stacks, and the evolved-population builder gives each
// worker whole (stack, vector) passes, so no two goroutines ask for one key.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]Fingerprint

	hits   atomic.Int64
	misses atomic.Int64

	// shadow, when set, samples this cache's miss-path renders through the
	// lockstep engine audit. Hung off the cache because the miss path is
	// exactly the set of renders that actually execute the engine.
	shadow atomic.Pointer[ShadowAuditor]
}

type cacheKey struct {
	stack  string
	vector ID
	offset int
}

// NewCache returns an empty cache. It is unbounded: a study's key set is
// its platform classes × vectors × offsets, a few thousand entries.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]Fingerprint)}
}

// Len reports the number of memoized renders.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// CacheStats is a snapshot of the cache's behavior counters. Each counts
// fingerprints, one per requested offset.
type CacheStats struct {
	// Hits counts fingerprints served from the memo map.
	Hits int64
	// Misses counts fingerprints the lookup rendered.
	Misses int64
	// Entries is the current number of memoized renders.
	Entries int
}

// HitRatio returns the fraction of lookups served from the memo map, or 0
// before any lookup.
func (s CacheStats) HitRatio() float64 {
	return hitRatio(s.Hits, s.Misses)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.Len()}
}

// SetShadow attaches a shadow auditor that samples this cache's miss-path
// renders through the lockstep engine comparison (nil detaches). Audits run
// synchronously in the lookup that rendered, so the 1-in-N sampling rate is
// the latency control.
func (c *Cache) SetShadow(a *ShadowAuditor) { c.shadow.Store(a) }

// Run returns the fingerprint for (stackKey, id, offset), rendering through
// r on a cache miss: RunOffsets with one offset.
func (c *Cache) Run(stackKey string, r *Runner, id ID, offset int) (Fingerprint, error) {
	fps, err := c.RunOffsets(stackKey, r, id, []int{offset})
	if err != nil {
		return Fingerprint{}, err
	}
	return fps[0], nil
}

// RunOffsets returns the fingerprints for (stackKey, id, o), one per o in
// offsets (ascending, distinct) and aligned with them. The offsets not
// memoized render through r in one pass; the rest come from the memo map.
// stackKey must uniquely identify r's traits: two runners with different
// traits must never share a key.
func (c *Cache) RunOffsets(stackKey string, r *Runner, id ID, offsets []int) ([]Fingerprint, error) {
	return c.do(stackKey, id, offsets, func(missing []int) ([]Fingerprint, error) {
		fps, err := r.RunOffsets(id, missing)
		if err == nil {
			if a := c.shadow.Load(); a != nil {
				for _, off := range missing {
					a.MaybeAudit(stackKey, r, id, off)
				}
			}
		}
		return fps, err
	})
}

// do is the one lookup path. Under the lock it takes every memoized
// offset; it then calls render once with the rest (in request order), and
// memoizes what render returns. render must return one fingerprint per
// offset it is given. Errors are returned but never cached: a later lookup
// retries the render.
func (c *Cache) do(stackKey string, id ID, offsets []int, render func(missing []int) ([]Fingerprint, error)) ([]Fingerprint, error) {
	key := func(off int) cacheKey { return cacheKey{stack: stackKey, vector: id, offset: off} }
	out := make([]Fingerprint, len(offsets))
	var missing, at []int // offsets to render and their positions in out
	c.mu.Lock()
	for i, off := range offsets {
		if fp, ok := c.m[key(off)]; ok {
			out[i] = fp
			continue
		}
		missing = append(missing, off)
		at = append(at, i)
	}
	c.mu.Unlock()
	hits := int64(len(offsets) - len(missing))
	c.hits.Add(hits)
	mCacheHits.Add(hits)
	if len(missing) == 0 {
		return out, nil
	}

	c.misses.Add(int64(len(missing)))
	mCacheMisses.Add(int64(len(missing)))
	fps, err := render(missing)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for j, off := range missing {
		c.m[key(off)] = fps[j]
	}
	c.mu.Unlock()
	for j, i := range at {
		out[i] = fps[j]
	}
	return out, nil
}
