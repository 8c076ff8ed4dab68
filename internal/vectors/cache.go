package vectors

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes fingerprints by (audio-stack key, vector, capture offset).
// Rendering is bit-deterministic given those three inputs (asserted by the
// engine's tests), so memoization is exact. A miss renders every offset
// the lookup still needs in one render pass (Runner.RunOffsets), so a
// study over thousands of users runs one pass per distinct (platform
// class, vector) whose users ask for all their offsets at once, turning an
// O(users × iterations) rendering bill into O(platform classes) passes and
// O(platform classes × offsets) captures. Safe for concurrent use.
//
// Misses are deduplicated singleflight-style, per offset: under one lock a
// lookup takes what is memoized, registers as its own every offset neither
// memoized nor in flight, renders those in one pass, and then waits for the
// offsets other goroutines are rendering. When N goroutines miss on the
// same key concurrently (the common case in a parallel study sweep, where
// every worker meets the same few dozen platform classes), exactly one
// renders each offset and the rest wait for its result. Without this,
// raising study.Config.Parallelism multiplies redundant renders instead of
// throughput.
type Cache struct {
	mu       sync.Mutex
	m        map[cacheKey]Fingerprint
	inflight map[cacheKey]inflightSlot
	max      int // 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64
	evictions atomic.Int64

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

// inflightCall is one in-progress render pass other goroutines can wait
// on: offsets are the captures it renders, fps its results aligned with
// them once done is closed.
type inflightCall struct {
	done    chan struct{}
	offsets []int
	fps     []Fingerprint
	err     error
}

// inflightSlot locates one in-flight offset: the pass rendering it and its
// position in that pass.
type inflightSlot struct {
	call *inflightCall
	i    int
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{
		m:        make(map[cacheKey]Fingerprint),
		inflight: make(map[cacheKey]inflightSlot),
	}
}

// SetMaxEntries bounds the cache to n memoized renders (0 restores
// unbounded). When full, an arbitrary entry is evicted per insert —
// acceptable because every entry is equally cheap to recompute and study
// sweeps revisit keys uniformly.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = n
	c.evictLocked()
}

func (c *Cache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for len(c.m) > c.max {
		for k := range c.m {
			delete(c.m, k)
			c.evictions.Add(1)
			mCacheEvictions.Inc()
			break
		}
	}
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
	// Misses counts fingerprints the lookup rendered itself.
	Misses int64
	// Waits counts fingerprints taken from another goroutine's
	// in-progress render instead of rendered again.
	Waits int64
	// Evictions counts entries dropped by the SetMaxEntries bound.
	Evictions int64
	// Entries is the current number of memoized renders.
	Entries int
}

// HitRatio returns the fraction of lookups that avoided a render (hits and
// singleflight waits over all lookups), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Waits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Waits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.m)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Waits:     c.waits.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// SetShadow attaches a shadow auditor that samples this cache's miss-path
// renders through the lockstep engine comparison (nil detaches). Audits run
// synchronously inside the singleflight, so the 1-in-N sampling rate is the
// latency control.
func (c *Cache) SetShadow(a *ShadowAuditor) { c.shadow.Store(a) }

// Shadow returns the attached shadow auditor, if any.
func (c *Cache) Shadow() *ShadowAuditor { return c.shadow.Load() }

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
// offsets (ascending) and aligned with them. The offsets neither memoized
// nor in flight render through r in one pass; the rest are taken from the
// memo map or waited for. stackKey must uniquely identify r's traits: two
// runners with different traits must never share a key.
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

// do is the one miss path. Under one lock it takes every memoized offset,
// notes the ones in flight, and registers the rest as its own pass; it
// then calls render once with those offsets (in request order) and
// afterwards waits for the offsets other goroutines are rendering. render
// must return one fingerprint per offset it is given. Errors are returned
// to every waiter but never cached — a later lookup retries the render.
func (c *Cache) do(stackKey string, id ID, offsets []int, render func(missing []int) ([]Fingerprint, error)) ([]Fingerprint, error) {
	key := func(off int) cacheKey { return cacheKey{stack: stackKey, vector: id, offset: off} }
	out := make([]Fingerprint, len(offsets))
	slots := make([]inflightSlot, len(offsets)) // nil call: served from the memo
	var own *inflightCall
	var hits, waits int64
	c.mu.Lock()
	for i, off := range offsets {
		k := key(off)
		if fp, ok := c.m[k]; ok {
			out[i] = fp
			hits++
			continue
		}
		slot, ok := c.inflight[k]
		if ok {
			waits++
		} else {
			if own == nil {
				own = &inflightCall{done: make(chan struct{})}
			}
			slot = inflightSlot{call: own, i: len(own.offsets)}
			c.inflight[k] = slot
			own.offsets = append(own.offsets, off)
		}
		slots[i] = slot
	}
	c.mu.Unlock()
	c.hits.Add(hits)
	mCacheHits.Add(hits)
	c.waits.Add(waits)
	mCacheWaits.Add(waits)

	if own != nil {
		c.misses.Add(int64(len(own.offsets)))
		mCacheMisses.Add(int64(len(own.offsets)))
		own.fps, own.err = render(own.offsets)

		c.mu.Lock()
		for j, off := range own.offsets {
			k := key(off)
			delete(c.inflight, k)
			if own.err == nil {
				c.m[k] = own.fps[j]
			}
		}
		c.evictLocked()
		c.mu.Unlock()
		close(own.done)
	}
	for i, slot := range slots {
		if slot.call == nil {
			continue
		}
		<-slot.call.done
		if slot.call.err != nil {
			return nil, slot.call.err
		}
		out[i] = slot.call.fps[slot.i]
	}
	return out, nil
}
