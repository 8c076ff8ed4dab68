// Package streaming maintains the paper's population analytics
// incrementally, one collection record at a time, so a serving process can
// answer "what is the entropy / cluster structure of the population right
// now" without re-running the batch pipeline.
//
// The engine's live representation is a State — the same type a shard
// router merges — grown record by record: per audio vector an online
// union-find collation graph (collate.IntGraph grown via
// AddUser/EnsureUniverse/AddObservation) and each user's distinct-
// fingerprint count for the Table 1 stability row, and per non-audio
// surface (canvas, fonts, Math-JS, platform, User-Agent) each user's
// current value for the Table 3 rows. Every read is a State method under
// the engine's read lock, so an engine and a router answer from one
// implementation: the Table 2 diversity rows, cluster statistics and
// stability rows are computed per read in O(users·vectors). Pairwise-
// vector AMI (Figure 5) is the one snapshot-refreshed quantity: it is
// recomputed every Config.AMIRefreshEvery applied records rather than per
// read.
//
// All maintained state is *exact*, not approximate: on any record prefix
// the engine's labels, cluster counts, distinct counts, and entropy rows
// are bit-identical to loading the same records with
// study.FromRecordsOpts(KeepAllObservations) and running the batch
// analyses — both sides reduce their float summations to
// diversity.SummaryFromCounts. The batch path stays the golden reference;
// the property test in equiv_test.go enforces the equivalence.
package streaming

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/vectors"
)

// ErrClosed is returned by Sync when the engine has been closed.
var ErrClosed = errors.New("streaming: engine closed")

// Config parameterizes New. The zero value is usable.
type Config struct {
	// Registry receives the engine's metrics; nil uses obs.Default.
	Registry *obs.Registry
	// QueueDepth bounds the update queue in batches (default 256). When
	// the queue is full EnqueueContext blocks — backpressure on the
	// ingestion path rather than unbounded memory growth; the wait is
	// counted on streaming_queue_full_waits_total.
	QueueDepth int
	// AMIRefreshEvery refreshes the pairwise-AMI snapshot every N applied
	// records (default 4096). Negative disables automatic refresh
	// (RefreshAMI can still be called explicitly).
	AMIRefreshEvery int
	// Spans, when non-nil, receives one "streaming.apply" span per applied
	// batch that carried a trace identity (EnqueueContext): the identity
	// rides the queue across the async boundary, so the exported span
	// joins the submitting request's distributed trace.
	Spans obs.SpanExporter
	// MetricLabels is merged into every metric the engine registers — how
	// N shard engines share one registry without their gauges replacing
	// each other (each shard passes {"shard": i}).
	MetricLabels obs.Labels
}

// vecIndex is what folding a record into one audio vector needs beside
// the State: the hash interning and each user's distinct fingerprints.
type vecIndex struct {
	intern   map[string]int32 // hash → dense fingerprint ID
	distinct [][]int32        // per-user sorted distinct fingerprint IDs
}

// Engine is the incremental analysis engine. Create with New; feed it
// accepted submissions with EnqueueContext (or Bootstrap for recovery
// replay); read consistent snapshots with the methods in snapshot.go. All
// methods are safe for concurrent use.
type Engine struct {
	queueDepth int
	amiEvery   int
	spans      obs.SpanExporter
	metLabels  obs.Labels

	// observer is the watch hook: a func(records int64) invoked after
	// each applied batch, off the state lock. See SetObserver.
	observer atomic.Value

	mu sync.RWMutex // guards st and the fold indexes below
	// st is the live analysis state every read answers from. Its Seq and
	// Hashes fields stay empty: only the merge needs them, and State fills
	// them in its copy.
	st    *State
	users map[string]int32 // user ID → dense ID
	vecs  []vecIndex       // indexed in vectors.All order

	amiMu   sync.Mutex
	ami     *AMISnapshot
	lastAMI int64 // records at last refresh

	qmu     sync.Mutex
	qcond   *sync.Cond
	enq     int64 // batches enqueued (or bootstrapped)
	applied int64 // batches fully applied
	closed  bool
	lost    bool // a batch was dropped by shutdown

	queue chan batch
	quit  chan struct{}
	done  chan struct{}

	met engineMetrics
}

// batch is one queued update: the records plus the trace identity of the
// request that produced them (zero when the caller was untraced).
type batch struct {
	recs []storage.Record
	tc   obs.TraceContext
}

// Surface order inside State.Surfs. The User-Agent follows FromRecords'
// first-non-empty-wins rule; the others follow its last-record-wins rule.
const (
	surfCanvas = iota
	surfFonts
	surfMathJS
	surfPlatform
	surfUA
	numSurfaces
)

var surfaceNames = [numSurfaces]string{"Canvas", "Fonts", "MathJS", "Platform", "User-Agent"}
var surfaceKeys = [numSurfaces]string{study.SurfaceCanvas, study.SurfaceFonts, study.SurfaceMathJS, study.SurfacePlatform, ""}

// New returns a running engine: its consumer goroutine drains the update
// queue until Close.
func New(cfg Config) *Engine {
	e := &Engine{
		queueDepth: cfg.QueueDepth,
		amiEvery:   cfg.AMIRefreshEvery,
		users:      map[string]int32{},
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if e.queueDepth <= 0 {
		e.queueDepth = 256
	}
	if e.amiEvery == 0 {
		e.amiEvery = 4096
	}
	e.spans = cfg.Spans
	e.metLabels = cfg.MetricLabels
	e.queue = make(chan batch, e.queueDepth)
	e.qcond = sync.NewCond(&e.qmu)
	e.st = NewState()
	e.vecs = make([]vecIndex, len(vectors.All))
	for i := range e.vecs {
		e.vecs[i].intern = map[string]int32{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	e.registerMetrics(reg)
	go e.loop()
	return e
}

// EnqueueContext hands a batch of accepted records to the engine off the
// caller's critical path. It returns immediately while the queue has room
// and blocks (counted) when it is full; after Close the batch is dropped.
// The caller's trace identity rides the queue: the ingest request's active
// span becomes the parent of the eventual "streaming.apply" span
// (Config.Spans).
func (e *Engine) EnqueueContext(ctx context.Context, recs []storage.Record) {
	b := batch{recs: recs}
	if e.spans != nil {
		b.tc, _ = obs.TraceContextOf(obs.SpanFromContext(ctx))
	}
	e.enqueue(b)
}

func (e *Engine) enqueue(b batch) {
	if len(b.recs) == 0 {
		return
	}
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		return
	}
	e.enq++
	e.qmu.Unlock()
	select {
	case e.queue <- b:
		return
	default:
	}
	e.met.queueWaits.Inc()
	select {
	case e.queue <- b:
	case <-e.quit:
		// Shutdown raced the send: the batch is dropped. Account it as
		// applied so Sync waiters observe a consistent ledger, and record
		// the loss so they learn the engine closed under them.
		e.qmu.Lock()
		e.applied++
		e.lost = true
		e.qcond.Broadcast()
		e.qmu.Unlock()
	}
}

// Apply folds a batch synchronously on the caller's goroutine, bypassing
// the queue — the building block of Bootstrap and of benchmarks that
// measure the per-record cost without queue hand-off noise.
func (e *Engine) Apply(recs []storage.Record) {
	e.qmu.Lock()
	e.enq++
	e.qmu.Unlock()
	e.applyBatch(batch{recs: recs})
}

// SetObserver installs fn to run after every applied batch with the total
// applied record count, outside the engine's state lock — the hook the
// watch monitor evaluates its rules from. A nil fn uninstalls. The call
// happens on the applying goroutine (the engine's consumer for
// EnqueueContext, the caller for Apply/Bootstrap), so a deterministic
// replay through Apply yields a deterministic evaluation sequence. The
// batch counts as applied for Sync only once fn returns, so fn must not
// call Sync.
func (e *Engine) SetObserver(fn func(records int64)) {
	e.observer.Store(observerBox{fn})
}

// observerBox wraps the func so atomic.Value accepts nil installs.
type observerBox struct{ fn func(records int64) }

// Bootstrap replays records synchronously — the restart path after
// storage.Recover() — and refreshes the AMI snapshot once at the end.
func (e *Engine) Bootstrap(recs []storage.Record) {
	e.Apply(recs)
	e.RefreshAMI()
}

// Sync blocks until every batch enqueued so far has been applied, so
// readers observe them: after Sync returns, readers also observe each
// such batch's observer call (the watch evaluation) and, when the batch
// crossed the refresh interval, its AMI refresh. It returns ErrClosed if
// the engine closed before applying everything (already-queued batches
// are still drained on Close, but a batch racing shutdown can be
// dropped).
func (e *Engine) Sync() error {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	target := e.enq
	for e.applied < target {
		e.qcond.Wait()
	}
	if e.lost {
		return ErrClosed
	}
	return nil
}

// Close stops the consumer after draining already-queued batches. It is
// idempotent and safe to call concurrently with EnqueueContext.
func (e *Engine) Close() {
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.qmu.Unlock()
	close(e.quit)
	<-e.done
	// The worker has exited; any batch that slipped into the queue after
	// the drain is lost. Settle the ledger so Sync waiters wake.
	e.qmu.Lock()
	if e.applied < e.enq {
		e.applied = e.enq
		e.lost = true
	}
	e.qcond.Broadcast()
	e.qmu.Unlock()
}

func (e *Engine) loop() {
	defer close(e.done)
	for {
		select {
		case batch := <-e.queue:
			e.applyBatch(batch)
		case <-e.quit:
			for {
				select {
				case batch := <-e.queue:
					e.applyBatch(batch)
				default:
					return
				}
			}
		}
	}
}

func (e *Engine) applyBatch(b batch) {
	var sp *obs.Span
	if e.spans != nil && b.tc.Valid() {
		sp = obs.NewRemoteChild("streaming.apply", b.tc)
	}
	start := time.Now()
	e.mu.Lock()
	for i := range b.recs {
		e.applyLocked(&b.recs[i])
	}
	records := e.st.Records
	e.mu.Unlock()

	e.met.applySeconds.Observe(time.Since(start).Seconds())
	e.met.recordsApplied.Add(int64(len(b.recs)))
	e.met.batchesApplied.Inc()
	if sp != nil {
		sp.SetAttr("records", len(b.recs))
		sp.SetAttr("total_records", records)
		sp.End()
		e.spans.ExportSpan(sp)
	}

	if ob, _ := e.observer.Load().(observerBox); ob.fn != nil {
		ob.fn(records)
	}

	if e.amiEvery > 0 && records-e.loadLastAMI() >= int64(e.amiEvery) {
		e.RefreshAMI()
	}

	// Count the batch applied only now, so a Sync that returns has seen
	// its watch evaluation and AMI refresh too.
	e.qmu.Lock()
	e.applied++
	e.qcond.Broadcast()
	e.qmu.Unlock()
}

func (e *Engine) loadLastAMI() int64 {
	e.amiMu.Lock()
	defer e.amiMu.Unlock()
	return e.lastAMI
}

// applyLocked folds one record into the analysis state. Mirrors the
// semantics of study.FromRecordsOpts(KeepAllObservations): users register
// in first-record order (even for records whose vector does not parse),
// User-Agent is first-non-empty-wins, surfaces are last-record-wins, and
// unparseable vectors contribute nothing beyond user/surface bookkeeping.
// O(α(n)) amortized per record plus the distinct-set insertion (bounded by
// a user's distinct fingerprints for one vector — single digits in
// practice, Table 1).
func (e *Engine) applyLocked(r *storage.Record) {
	s := e.st
	uid, ok := e.users[r.UserID]
	if !ok {
		uid = int32(len(s.Users))
		e.users[r.UserID] = uid
		s.Users = append(s.Users, r.UserID)
		for i := range s.Surfs {
			s.Surfs[i] = append(s.Surfs[i], "")
		}
		for i := range s.Vecs {
			s.Vecs[i].Graph.AddUser()
			s.Vecs[i].Distinct = append(s.Vecs[i].Distinct, 0)
			e.vecs[i].distinct = append(e.vecs[i].distinct, nil)
		}
	}
	if s.Surfs[surfUA][uid] == "" {
		s.Surfs[surfUA][uid] = r.UserAgent
	}
	for i, key := range surfaceKeys {
		if v, ok := r.Surfaces[key]; ok && key != "" {
			s.Surfs[i][uid] = v
		}
	}
	s.Records++

	// Auxiliary rows ride in Surfaces, and the analyses cover vectors.All
	// only, as in FromRecords: an extended vector parses but is not folded.
	v, err := vectors.ParseID(r.Vector)
	i := slices.Index(vectors.All, v)
	if err != nil || i < 0 {
		return
	}
	vi, vs := &e.vecs[i], &s.Vecs[i]
	fp, ok := vi.intern[r.Hash]
	if !ok {
		fp = int32(len(vi.intern))
		vi.intern[r.Hash] = fp
		vs.Graph.EnsureUniverse(int(fp) + 1)
	}
	vs.Graph.AddObservation(uid, fp)
	if insertSorted(&vi.distinct[uid], fp) {
		vs.Distinct[uid]++
	}
	vs.Obs++
}

// insertSorted inserts v into the sorted slice *s if absent and reports
// whether it did.
func insertSorted(s *[]int32, v int32) bool {
	d := *s
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d) && d[lo] == v {
		return false
	}
	d = append(d, 0)
	copy(d[lo+1:], d[lo:])
	d[lo] = v
	*s = d
	return true
}
