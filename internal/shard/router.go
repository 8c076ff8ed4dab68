package shard

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collate"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
)

// Config parameterizes NewRouter.
type Config struct {
	// Shards is the partition count (min 1).
	Shards int
	// Engine is the per-shard engine template: Registry, QueueDepth,
	// Spans and Interner apply to every shard engine (each additionally
	// labeled {"shard": i} on its metrics; a nil Interner gets the router
	// one, which all its engines share); AMIRefreshEvery sets the ROUTER's
	// refresh cadence over total routed records — shard engines never
	// refresh on their own, because a per-shard AMI matrix over a slice of
	// the population is not a meaningful serving payload.
	Engine streaming.Config
}

// Router fans accepted submissions to per-shard streaming engines by
// user-id hash and serves the analytics read surface from a merged
// snapshot. It implements the same method set as streaming.Engine's
// serving side (collectserver.Analytics), so the HTTP layer cannot tell
// one engine from N.
//
// Read-path consistency matches the single engine's: Diversity/Clusters/
// Stability answer from a merge of the shards' current states (exact, as
// of each shard's applied position) through the same State methods an
// engine answers from, and AMI serves the last refreshed snapshot. The
// router keeps no merged state between reads, only the payloads built
// from it (streaming.Views) and the labels the AMI refresh needs, cached
// keyed by the per-shard record counts of the states merged, so an idle
// system answers repeated reads and refreshes with one merge. Concurrent
// reads and the async AMI refresh share the cached views, which nothing
// writes once they are built.
type Router struct {
	engines []*streaming.Engine

	mu       sync.Mutex       // guards the routing ledger below
	seqByUID map[string]int64 // user → global first-seen sequence
	nextSeq  int64
	routed   int64 // records routed (drives the AMI refresh cadence)

	amiEvery   int
	amiMu      sync.Mutex
	ami        *streaming.AMISnapshot
	lastAMI    int64
	refreshing atomic.Bool // an auto refresh is in flight

	cacheMu  sync.Mutex
	cacheKey []int64 // per-shard record counts of the states cached was built from
	cached   *streaming.Views

	queueCap int
	met      routerMetrics
}

// NewRouter builds n shard engines and the routing state. Close releases
// the engines.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: NewRouter with %d shards", cfg.Shards)
	}
	r := &Router{
		seqByUID: map[string]int64{},
		nextSeq:  1,
		amiEvery: cfg.Engine.AMIRefreshEvery,
		queueCap: cfg.Engine.QueueDepth,
	}
	if r.amiEvery == 0 {
		r.amiEvery = 4096
	}
	if r.queueCap <= 0 {
		r.queueCap = 256
	}
	reg := cfg.Engine.Registry
	if reg == nil {
		reg = obs.Default
	}
	// One ID space for the plane: the shard states merge without
	// translating a fingerprint or a surface value.
	if cfg.Engine.Interner == nil {
		cfg.Engine.Interner = collate.NewInterner()
	}
	for i := 0; i < cfg.Shards; i++ {
		ecfg := cfg.Engine
		ecfg.AMIRefreshEvery = -1 // the router owns the cadence
		ecfg.MetricLabels = obs.Labels{"shard": strconv.Itoa(i)}
		for k, v := range cfg.Engine.MetricLabels {
			ecfg.MetricLabels[k] = v
		}
		r.engines = append(r.engines, streaming.New(ecfg))
	}
	r.registerMetrics(reg, cfg.Shards)
	return r, nil
}

// route splits recs into per-shard groups preserving stream order (split:
// a batch one shard owns is its group as is) and assigns global
// first-seen sequence numbers to new users. It returns the groups and the
// total routed-record count after this batch.
func (r *Router) route(recs []storage.Record) ([][]storage.Record, int64) {
	groups := split(recs, len(r.engines))
	r.mu.Lock()
	for i := range recs {
		uid := recs[i].UserID
		if i > 0 && uid == recs[i-1].UserID {
			continue
		}
		if _, ok := r.seqByUID[uid]; !ok {
			r.seqByUID[uid] = r.nextSeq
			r.nextSeq++
		}
	}
	r.routed += int64(len(recs))
	routed := r.routed
	r.mu.Unlock()
	return groups, routed
}

// EnqueueContext routes a batch to the owning shards' queues, carrying the
// caller's trace identity through to each shard engine's apply span. As
// with streaming.Engine.EnqueueContext, the engines keep what they are
// handed until they apply it, and a batch one shard owns is handed over
// as recs itself, so the caller must not modify recs after the call.
func (r *Router) EnqueueContext(ctx context.Context, recs []storage.Record) {
	if len(recs) == 0 {
		return
	}
	groups, routed := r.route(recs)
	for sh, g := range groups {
		if len(g) == 0 {
			continue
		}
		r.engines[sh].EnqueueContext(ctx, g)
		r.met.ingest[sh].Add(int64(len(g)))
	}
	if r.amiEvery > 0 && routed-r.loadLastAMI() >= int64(r.amiEvery) && r.refreshing.CompareAndSwap(false, true) {
		// Mirror the single engine's auto refresh, off the request path
		// (RefreshAMI syncs all shards first, which would otherwise stall
		// the submitting request on queue drain). One at a time: until it
		// installs its snapshot, every later enqueue still sees the
		// interval crossed.
		go func() {
			defer r.refreshing.Store(false)
			r.RefreshAMI()
		}()
	}
}

// Apply routes and folds a batch synchronously — the bootstrap/benchmark
// path, mirroring streaming.Engine.Apply. The shards a batch reaches fold
// their groups concurrently, one goroutine each (a batch one shard owns
// folds on the caller's), and Apply returns once every shard has folded,
// so readers then observe the whole batch.
func (r *Router) Apply(recs []storage.Record) {
	if len(recs) == 0 {
		return
	}
	groups, _ := r.route(recs)
	fold(groups, func(sh int, g []storage.Record) {
		r.engines[sh].Apply(g)
		r.met.ingest[sh].Add(int64(len(g)))
	})
}

// Bootstrap replays records synchronously — the restart path, fed from
// Stores.All()'s seq-ordered union — and refreshes AMI once at the end.
// The shards fold concurrently, as in Apply.
func (r *Router) Bootstrap(recs []storage.Record) {
	r.Apply(recs)
	r.RefreshAMI()
}

// Sync blocks until every batch enqueued so far is applied on every
// shard.
func (r *Router) Sync() error {
	for _, e := range r.engines {
		if err := e.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops every shard engine after draining queued batches.
func (r *Router) Close() {
	for _, e := range r.engines {
		e.Close()
	}
}

// views returns the read payloads of the shards' current states. They
// are built from a merge and cached keyed by the per-shard record counts
// of the states merged, so a read at an unchanged version merges nothing;
// the merged state itself is garbage once its views are built.
func (r *Router) views() *streaming.Views {
	key := make([]int64, len(r.engines))
	for i, e := range r.engines {
		key[i] = e.Status().Records
	}
	r.cacheMu.Lock()
	if r.cached != nil && slices.Equal(r.cacheKey, key) {
		cached := r.cached
		r.cacheMu.Unlock()
		r.met.cacheHits.Inc()
		return cached
	}
	r.cacheMu.Unlock()

	start := time.Now()
	m, key := r.merge()
	v := m.Views()
	r.met.merges.Inc()
	r.met.mergeSeconds.Observe(time.Since(start).Seconds())

	r.cacheMu.Lock()
	r.cacheKey = key
	r.cached = v
	r.cacheMu.Unlock()
	return v
}

// merge returns the merge of copies of all shards' current states, with
// each user's Seq rewritten from the router's global first-seen ledger so
// the merged dense order reproduces the original submission order, and
// the copies' record counts: the version the merge is of. The copies are
// the router's own, so a one-shard merge may return its copy as is. A
// merge error means two shards claim one user — impossible while Of
// routes every record — so it panics rather than serving silently wrong
// analytics.
func (r *Router) merge() (*streaming.State, []int64) {
	states := make([]*streaming.State, len(r.engines))
	key := make([]int64, len(r.engines))
	for i, e := range r.engines {
		states[i] = e.State()
		key[i] = states[i].Records
	}
	r.mu.Lock()
	for _, s := range states {
		for u, uid := range s.Users {
			s.Seq[u] = r.seqByUID[uid]
		}
	}
	r.mu.Unlock()
	m, err := streaming.Merge(states...)
	if err != nil {
		panic(fmt.Sprintf("shard: user owned by two shards: %v", err))
	}
	return m, key
}

// Diversity returns the merged entropy table (bit-identical to a single
// engine over the same stream). Its rows are shared with every reader of
// the same version and must not be modified.
func (r *Router) Diversity() streaming.EntropySnapshot { return r.views().Diversity }

// Clusters returns the merged per-vector collation statistics. Its rows
// are shared with every reader of the same version and must not be
// modified.
func (r *Router) Clusters() streaming.ClusterSnapshot { return r.views().Clusters }

// Stability returns the merged Table 1 rows. Its rows are shared with
// every reader of the same version and must not be modified.
func (r *Router) Stability() streaming.StabilitySnapshot { return r.views().Stability }

// AMI returns the most recent merged pairwise-AMI snapshot, or nil when
// none has been computed yet.
func (r *Router) AMI() *streaming.AMISnapshot {
	r.amiMu.Lock()
	defer r.amiMu.Unlock()
	return r.ami
}

// RefreshAMI syncs every shard, recomputes the pairwise-vector AMI matrix
// over the current version's merged labels and installs it as the served
// snapshot. At a version whose views are cached it merges nothing.
func (r *Router) RefreshAMI() *streaming.AMISnapshot {
	_ = r.Sync() // a lost batch on a closing engine still yields a valid (partial) snapshot
	snap := r.views().AMI()
	r.amiMu.Lock()
	r.ami = snap
	r.lastAMI = snap.Records
	r.amiMu.Unlock()
	return snap
}

func (r *Router) loadLastAMI() int64 {
	r.amiMu.Lock()
	defer r.amiMu.Unlock()
	return r.lastAMI
}

// Status reports the routed plane's ingestion position: records and users
// are totals across shards, queue occupancy is summed, and the queue
// capacity is per shard (each shard has its own queue).
func (r *Router) Status() streaming.StatusSnapshot {
	var records int64
	var users, depth int
	for _, e := range r.engines {
		st := e.Status()
		records += st.Records
		users += st.Users
		depth += st.QueueDepth
	}
	return streaming.StatusSnapshot{
		Records:      records,
		Users:        users,
		QueueDepth:   depth,
		QueueCap:     r.queueCap,
		AMIRecords:   r.loadLastAMI(),
		AMIAutomatic: r.amiEvery > 0,
	}
}
