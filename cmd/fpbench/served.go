package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collectclient"
	"repro/internal/collectserver"
	"repro/internal/diversity"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
	"repro/internal/verify"
)

// servedConfig is one served workload: the deployment and the traffic mix.
type servedConfig struct {
	shards     int
	visitRate  float64 // participants arriving per second
	readRate   float64 // dashboard reads per second
	verifyRate float64 // verify requests per second
	// preload writes iterations 0..PreIters-1 of PreUsers participants to
	// the store before set-up, so set-up is a restart over that history.
	preload bool
}

var servedWorkloads = map[string]servedConfig{
	"campaign":         {shards: 1, visitRate: 70, readRate: 50},
	"campaign-sharded": {shards: 4, visitRate: 70, readRate: 50},
	"auth":             {shards: 4, visitRate: 5, readRate: 50, verifyRate: 400, preload: true},
}

// readRoutes are the dashboard's analytics reads, polled round-robin.
var readRoutes = []string{"entropy", "clusters", "stability", "ami", "status"}

const (
	// firstBatch is the size of a participant's first submission; the
	// remaining records (82 of the paper's 210) go in a second one.
	firstBatch = 128
	// workers is the generator's goroutine and keep-alive connection count.
	// It is the processor count of the host the benchmark was defined on,
	// fixed so that the offered load does not depend on the host.
	workers = 2
	// decisionSample checks every n-th verify decision against an
	// in-process engine.
	decisionSample = 20
	// samplesPerVector is how many fingerprints a verify claim carries for
	// each of the seven vectors.
	samplesPerVector = 2
	// unlimited stands in for a rate limit: one loopback address carries
	// the traffic of every simulated participant.
	unlimited = 1e12
)

// participant is one visiting user's prepared submissions.
type participant struct {
	user, ua string
	batches  [][]collectserver.FPRecord
}

// claim is one prepared verify request.
type claim struct {
	user    string
	samples []collectserver.VerifySample
}

// participants prepares users first..first+n-1 of ds, each submitting all
// of their records in the order Dataset.ToRecords uses.
func participants(ds *study.Dataset, first, n int) []participant {
	out := make([]participant, n)
	for i := range out {
		u := first + i
		var recs []collectserver.FPRecord
		for _, v := range vectors.All {
			for it, h := range ds.Obs[v][u] {
				recs = append(recs, collectserver.FPRecord{Vector: v.String(), Iteration: it, Hash: h})
			}
		}
		recs[0].Surfaces = surfaces(ds, u)
		k := min(firstBatch, len(recs))
		out[i] = participant{user: ds.Users[u], ua: ds.UA[u], batches: [][]collectserver.FPRecord{recs[:k]}}
		if k < len(recs) {
			out[i].batches = append(out[i].batches, recs[k:])
		}
	}
	return out
}

func surfaces(ds *study.Dataset, u int) map[string]string {
	return map[string]string{
		study.SurfaceCanvas:   ds.Canvas[u],
		study.SurfaceFonts:    ds.Fonts[u],
		study.SurfaceMathJS:   ds.MathJS[u],
		study.SurfacePlatform: ds.Platforms[u],
	}
}

// storedRecords is what the server persists for a participant's batch.
func storedRecords(p participant, batch int) []storage.Record {
	out := make([]storage.Record, len(p.batches[batch]))
	for i, fr := range p.batches[batch] {
		out[i] = storage.Record{UserID: p.user, Vector: fr.Vector, Iteration: fr.Iteration,
			Hash: fr.Hash, UserAgent: p.ua, Surfaces: fr.Surfaces}
	}
	return out
}

// preloadRecords is the history of users 0..users-1 up to iteration
// iters-1, as a restarted server finds it on disk.
func preloadRecords(ds *study.Dataset, users, iters int) []storage.Record {
	at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	var out []storage.Record
	for u := 0; u < users; u++ {
		first := true
		for _, v := range vectors.All {
			for it := 0; it < iters; it++ {
				r := storage.Record{SessionID: "preload", UserID: ds.Users[u], Vector: v.String(),
					Iteration: it, Hash: ds.Obs[v][u][it], UserAgent: ds.UA[u], ReceivedAt: at}
				if first {
					r.Surfaces = surfaces(ds, u)
					first = false
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// claims prepares n verify requests against the preloaded users: each
// claims a user, cycling through a seeded permutation so a user's claims
// are far apart, and carries fingerprints from iterations the store does
// not hold — the claimed user's own for a genuine claim, another user's
// for an impostor.
func claims(rng *rand.Rand, ds *study.Dataset, users, heldFrom, n int) []claim {
	if n == 0 {
		return nil
	}
	perm := rng.Perm(users)
	out := make([]claim, n)
	for j := range out {
		u := perm[j%users]
		src := u
		if rng.Intn(2) == 1 {
			src = (u + 1 + rng.Intn(users-1)) % users
		}
		c := claim{user: ds.Users[u]}
		for _, v := range vectors.All {
			for k := 0; k < samplesPerVector; k++ {
				it := heldFrom + rng.Intn(ds.Iterations-heldFrom)
				c.samples = append(c.samples, collectserver.VerifySample{Vector: v.String(), Hash: ds.Obs[v][src][it]})
			}
		}
		out[j] = c
	}
	return out
}

// plant is the system under test, wired as fpserver wires it.
type plant struct {
	store   collectserver.RecordStore
	sync    func() error // waits until every enqueued batch is applied
	handler http.Handler
	reg     *obs.Registry
	closers []func()
	stages  map[string]time.Duration // set-up stage durations
	setup   time.Duration
}

func (p *plant) close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
}

// buildPlant opens the store at path and builds the server over it in
// fpserver's start-up order: open and recover the store, rebuild the
// analytics plane from it, enroll the verify plane from it, and build the
// handler. With tr set, the store, analytics and verifier are wrapped in
// timers, the server exports its request spans and the streaming engines
// their apply spans to tr, and the handler is timed.
func buildPlant(path string, shards int, tr *tracer) (*plant, error) {
	p := &plant{reg: obs.NewRegistry(), stages: map[string]time.Duration{}}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	start := time.Now()
	lap := start
	stage := func(name string) {
		now := time.Now()
		p.stages[name] += now.Sub(lap)
		lap = now
	}
	if shards == 1 {
		st, err := storage.Open(path, storage.Options{})
		if err != nil {
			return nil, err
		}
		p.closers = append(p.closers, func() { _ = st.Close() })
		if _, err := st.Recover(); err != nil {
			return nil, err
		}
		p.store = st
	} else {
		sst, err := shard.OpenStores(path, shards, storage.Options{})
		if err != nil {
			return nil, err
		}
		p.closers = append(p.closers, func() { _ = sst.Close() })
		if _, err := sst.Recover(); err != nil {
			return nil, err
		}
		p.store = sst
	}
	stage("store_open")

	recs, err := p.store.All()
	if err != nil {
		return nil, err
	}
	stage("store_read")
	ecfg := streaming.Config{Registry: p.reg}
	if tr != nil {
		ecfg.Spans = tr
	}
	var analytics collectserver.Analytics
	if shards == 1 {
		eng := streaming.New(ecfg)
		p.closers = append(p.closers, eng.Close)
		eng.Bootstrap(recs)
		analytics, p.sync = eng, eng.Sync
	} else {
		rt, err := shard.NewRouter(shard.Config{Shards: shards, Engine: ecfg})
		if err != nil {
			return nil, err
		}
		p.closers = append(p.closers, rt.Close)
		rt.Bootstrap(recs)
		analytics, p.sync = rt, rt.Sync
	}
	stage("analytics_bootstrap")

	recs, err = p.store.All()
	if err != nil {
		return nil, err
	}
	stage("store_read")
	vcfg := verify.Config{Registry: p.reg}
	var verifier collectserver.Verifier
	if shards == 1 {
		e := verify.New(vcfg)
		e.Enroll(recs)
		verifier = e
	} else {
		vs, err := shard.NewVerifiers(shards, vcfg)
		if err != nil {
			return nil, err
		}
		vs.Enroll(recs)
		verifier = vs
	}
	stage("verify_enroll")

	cfg := collectserver.Config{
		Store:             p.store,
		MaxBatch:          256,
		SessionRatePerMin: unlimited,
		SubmitRatePerSec:  unlimited,
		MaxInFlight:       256,
		Analytics:         analytics,
		Verifier:          verifier,
		Registry:          p.reg,
	}
	if tr != nil {
		cfg.Store = timedStore{p.store, tr}
		cfg.Analytics = timedAnalytics{analytics, tr}
		cfg.Verifier = timedVerifier{verifier, tr}
		cfg.Trace = tr
	}
	srv, err := collectserver.New(cfg)
	if err != nil {
		return nil, err
	}
	p.handler = srv.Handler()
	p.setup = time.Since(start)
	if tr != nil {
		p.handler = tr.wrapHandler(p.handler)
	}
	ok = true
	return p, nil
}

// servedRun drives one plant through the measured phase.
type servedRun struct {
	client *collectclient.Client
	hc     *http.Client
	base   string
	tr     *tracer
	parts  []participant
	claims []claim
	lat    *recorder

	failed   atomic.Int64
	mu       sync.Mutex
	firstErr error
	acks     []ack
	reads    []readObs
	verdicts map[int]verify.Decision
}

// ack is one acknowledged submission: batch of participant part, n records.
type ack struct {
	at          time.Time
	n           int
	part, batch int
}

// readObs is one analytics answer: when the read was sent and how many
// records the answer covered.
type readObs struct {
	sent    time.Time
	records int64
}

func (r *servedRun) exec(ctx context.Context, o op, due time.Time) {
	var err error
	var class string
	switch o.kind {
	case opVisit:
		class, err = "visit", r.visit(ctx, o.arg)
	case opRead:
		class, err = "read", r.read(ctx, readRoutes[o.arg%len(readRoutes)])
	case opVerify:
		class, err = "verify", r.verify(ctx, o.arg)
	}
	if err != nil {
		r.failed.Add(1)
		r.mu.Lock()
		if r.firstErr == nil {
			r.firstErr = err
		}
		r.mu.Unlock()
		return
	}
	r.lat.add(class, ms(time.Since(due)))
}

// request runs one client request, as a traced client span when tracing.
func (r *servedRun) request(ctx context.Context, class, user string, do func(context.Context) error) error {
	if r.tr == nil {
		return do(ctx)
	}
	ctx, done := r.tr.clientRequest(ctx, class, user)
	err := do(ctx)
	done()
	return err
}

func (r *servedRun) visit(ctx context.Context, i int) error {
	p := r.parts[i]
	var sess *collectclient.Session
	err := r.request(ctx, classSession, p.user, func(ctx context.Context) (err error) {
		sess, err = r.client.StartSession(ctx, p.user, p.ua)
		return err
	})
	if err != nil {
		return err
	}
	for b, batch := range p.batches {
		if err := r.request(ctx, classSubmit, p.user, func(ctx context.Context) error {
			return sess.Submit(ctx, batch)
		}); err != nil {
			return err
		}
		r.mu.Lock()
		r.acks = append(r.acks, ack{at: time.Now(), n: len(batch), part: i, batch: b})
		r.mu.Unlock()
	}
	return nil
}

// get fetches one v1 route and decodes its data payload into out.
func (r *servedRun) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return err
	}
	obs.Inject(ctx, req.Header)
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, msg)
	}
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return json.Unmarshal(env.Data, out)
}

func (r *servedRun) read(ctx context.Context, route string) error {
	sent := time.Now()
	var ans struct {
		Records int64 `json:"records"`
	}
	if err := r.request(ctx, classRead, "", func(ctx context.Context) error {
		return r.get(ctx, "/api/v1/analytics/"+route, &ans)
	}); err != nil {
		return err
	}
	if route != "ami" { // the AMI snapshot lags by design
		r.mu.Lock()
		r.reads = append(r.reads, readObs{sent: sent, records: ans.Records})
		r.mu.Unlock()
	}
	return nil
}

func (r *servedRun) verify(ctx context.Context, i int) error {
	c := r.claims[i]
	var d *verify.Decision
	if err := r.request(ctx, classVerify, c.user, func(ctx context.Context) (err error) {
		d, err = r.client.Verify(ctx, c.user, c.samples)
		return err
	}); err != nil {
		return err
	}
	if i%decisionSample == 0 {
		r.mu.Lock()
		r.verdicts[i] = *d
		r.mu.Unlock()
	}
	return nil
}

// staleness returns, per read, how long before it was sent the oldest
// acknowledged record its answer did not cover was acknowledged (0 when the
// answer covered every record acknowledged before the read was sent).
func staleness(acks []ack, reads []readObs, base int64) []float64 {
	sort.Slice(acks, func(i, j int) bool { return acks[i].at.Before(acks[j].at) })
	cum := make([]int64, len(acks)) // records acknowledged up to and including acks[i]
	total := base
	for i, a := range acks {
		total += int64(a.n)
		cum[i] = total
	}
	out := make([]float64, 0, len(reads))
	for _, rd := range reads {
		k := sort.Search(len(acks), func(i int) bool { return cum[i] > rd.records })
		if k == len(acks) || !acks[k].at.Before(rd.sent) {
			out = append(out, 0)
			continue
		}
		out = append(out, ms(rd.sent.Sub(acks[k].at)))
	}
	return out
}

// diversityRows is the batch reference for the served entropy table:
// study.FromRecordsOpts(KeepAllObservations) over every stored record,
// summarized in the engine's row order.
func diversityRows(recs []storage.Record) ([]streaming.DiversityRow, error) {
	ds, err := study.FromRecordsOpts(recs, study.LoadOptions{KeepAllObservations: true})
	if err != nil {
		return nil, err
	}
	row := func(name string, s diversity.Summary) streaming.DiversityRow {
		return streaming.DiversityRow{Name: name, Users: s.Users, Distinct: s.Distinct,
			Unique: s.Unique, EntropyBits: s.EntropyBits, Normalized: s.Normalized}
	}
	var rows []streaming.DiversityRow
	for _, v := range vectors.All {
		rows = append(rows, row(v.String(), diversity.SummarizeStable(ds.Labels(v))))
	}
	rows = append(rows,
		row("Combined", diversity.SummarizeStable(ds.CombinedLabels())),
		row("Canvas", diversity.SummarizeStable(ds.Canvas)),
		row("Fonts", diversity.SummarizeStable(ds.Fonts)),
		row("MathJS", diversity.SummarizeStable(ds.MathJS)),
		row("Platform", diversity.SummarizeStable(ds.Platforms)),
		row("User-Agent", diversity.SummarizeStable(ds.UA)))
	return rows, nil
}

// check verifies the served outputs once the analytics plane has synced
// after the measured phase: the store holds exactly the preloaded plus
// acknowledged records, the entropy route answers what the batch pipeline
// computes from those records, and sampled verify decisions equal an
// in-process engine's over the same enrollment.
func (r *servedRun) check(ctx context.Context, p *plant, bootstrap []storage.Record) []string {
	var problems []string
	all := append([]storage.Record(nil), bootstrap...)
	for _, a := range r.acks {
		all = append(all, storedRecords(r.parts[a.part], a.batch)...)
	}
	if got := p.store.Count(); got != len(all) {
		problems = append(problems, fmt.Sprintf("store holds %d records, want %d preloaded + acknowledged", got, len(all)))
	}
	if len(all) > 0 {
		var got streaming.EntropySnapshot
		want, err := diversityRows(all)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("batch reference: %v", err))
		case r.get(ctx, "/api/v1/analytics/entropy", &got) != nil:
			problems = append(problems, "entropy route unreadable after sync")
		case got.Records != int64(len(all)) || !reflect.DeepEqual(got.Rows, want):
			problems = append(problems, fmt.Sprintf("entropy rows over %d records differ from the batch reference over %d", got.Records, len(all)))
		}
	}
	if len(r.verdicts) > 0 {
		ref := verify.New(verify.Config{})
		ref.Enroll(bootstrap)
		for i, d := range r.verdicts {
			c := r.claims[i]
			samples := make([]verify.Sample, len(c.samples))
			for k, s := range c.samples {
				v, err := vectors.ParseID(s.Vector)
				if err != nil {
					return append(problems, err.Error())
				}
				samples[k] = verify.Sample{Vector: v, Hash: s.Hash}
			}
			want, err := ref.Verify(c.user, samples)
			if err != nil || !reflect.DeepEqual(d, want) {
				problems = append(problems, fmt.Sprintf("verify decision for claim %d (%s) differs from the in-process engine", i, c.user))
				break
			}
		}
	}
	return problems
}

// inputs is a served run's traffic, all derived from the seed.
type inputs struct {
	parts     []participant
	claims    []claim
	bootstrap []storage.Record // the preloaded history
	ops       []op
}

// prepare renders the participants' fingerprints through the study
// pipeline and derives the run's traffic from them. The rendered dataset is
// dropped here, so the measured phase does not carry it.
func prepare(ctx context.Context, wc servedConfig, sz sizes, seed int64, counts map[opKind]int, cache *vectors.Cache) (*inputs, error) {
	pre := 0
	if wc.preload {
		pre = sz.PreUsers
		if pre < 2 || sz.PreIters >= sz.Iterations {
			return nil, fmt.Errorf("preload needs at least 2 users and iterations beyond the preloaded %d", sz.PreIters)
		}
	}
	ds, err := study.RunContext(ctx, study.Config{Seed: seed, Users: pre + counts[opVisit],
		Iterations: sz.Iterations, RenderCache: cache})
	if err != nil {
		return nil, fmt.Errorf("prepare participants: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		parts:  participants(ds, pre, counts[opVisit]),
		claims: claims(rng, ds, pre, sz.PreIters, counts[opVerify]),
		ops:    schedule(rng, time.Duration(sz.Seconds*float64(time.Second)), counts),
	}
	if wc.preload {
		in.bootstrap = preloadRecords(ds, pre, sz.PreIters)
	}
	return in, nil
}

// runServed runs one served workload: prepare inputs from seed, set the
// server up from its store repeatedly (keeping the last), drive the
// open-loop schedule for sz.Seconds, then check the outputs.
func runServed(ctx context.Context, name string, sz sizes, seed int64, tr *tracer, dir string) (*result, error) {
	wc := servedWorkloads[name]
	res := &result{Workload: name}
	counts := map[opKind]int{
		opVisit:  int(math.Round(wc.visitRate * sz.Seconds)),
		opRead:   int(math.Round(wc.readRate * sz.Seconds)),
		opVerify: int(math.Round(wc.verifyRate * sz.Seconds)),
	}

	// Harness preparation, untimed.
	prepCtx := ctx
	var prepRoot *obs.Span
	if tr != nil {
		prepRoot = obs.NewTrace("prep")
		prepCtx = obs.ContextWithSpan(ctx, prepRoot)
	}
	cache := vectors.NewCache()
	alloc0 := readCPU().alloc
	in, err := prepare(prepCtx, wc, sz, seed, counts, cache)
	if err != nil {
		return nil, err
	}
	if prepRoot != nil {
		prepRoot.End()
		res.addStudyStages(prepRoot, cache.Stats(), readCPU().alloc-alloc0)
	}
	run := &servedRun{tr: tr, parts: in.parts, claims: in.claims, lat: newRecorder(),
		verdicts: map[int]verify.Decision{}}
	storePath := func(int) string { return filepath.Join(dir, "store.ndjson") }
	if wc.preload {
		if err := writeStore(storePath(0), wc.shards, in.bootstrap); err != nil {
			return nil, fmt.Errorf("preload store: %w", err)
		}
	} else {
		// Every set-up starts from its own empty store, in a directory of
		// its own that is removed with the server, so each finds the file
		// system as the first did.
		storePath = func(i int) string { return filepath.Join(dir, fmt.Sprintf("setup%d", i), "store.ndjson") }
	}

	stages := map[string][]float64{}
	var p *plant
	var heap0 float64
	n := 0
	setups, err := setUp(sz, func(last bool) (time.Duration, error) {
		var ptr *tracer
		if last {
			heap0 = liveHeapMB()
			ptr = tr
		}
		path := storePath(n)
		n++
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return 0, err
		}
		q, err := buildPlant(path, wc.shards, ptr)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		for k, d := range q.stages {
			stages[k] = append(stages[k], d.Seconds())
		}
		if last {
			p = q
		} else {
			q.close()
			if !wc.preload {
				if err := os.RemoveAll(filepath.Dir(path)); err != nil {
					return 0, err
				}
			}
		}
		return q.setup, nil
	})
	if err != nil {
		return nil, err
	}
	defer p.close()

	hs := httptest.NewServer(p.handler)
	defer hs.Close()
	tp := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	defer tp.CloseIdleConnections()
	run.hc = &http.Client{Transport: tp, Timeout: 30 * time.Second}
	run.base = hs.URL
	run.client = collectclient.New(hs.URL, collectclient.WithHTTPClient(run.hc))

	gen := newGenerator(workers)
	if tr != nil {
		tr.merges = p.counter(mergesTotal)
	}
	c0 := p.counters()
	cpu0 := readCPU()
	start := time.Now().Add(20 * time.Millisecond)
	gen.run(ctx, start, in.ops, run.exec)
	phase := time.Since(start)
	cpu1 := readCPU()
	heap1 := liveHeapMB()
	c1 := p.counters()

	primary := "visit"
	if wc.verifyRate > 0 {
		primary = "verify"
	}
	lat := run.lat.get(primary)
	res.add("setup_s", percentile(setups, 50), len(setups))
	res.addP50("client.latency_p50_ms", lat)
	res.addTail("client.latency_tail_ms", lat)
	res.add("cpu_s", cpu1.busy-cpu0.busy, 1)
	res.add("live_heap_mb", heap1-heap0, 1)

	reads := run.lat.get("read")
	res.addP50("client.read_p50_ms", reads)
	res.addTail("client.read_tail_ms", reads)
	for _, k := range []string{"store_open", "store_read", "analytics_bootstrap", "verify_enroll"} {
		res.addP50("setup."+k+"_s", stages[k])
	}
	res.add("runtime.gc_cpu_s", cpu1.gc-cpu0.gc, 1)
	res.add("runtime.alloc_mb", (cpu1.alloc-cpu0.alloc)/1e6, 1)
	res.addP50("gen.lag_p50_ms", gen.lag)
	res.addTail("gen.lag_tail_ms", gen.lag)
	if lag := percentile(gen.lag, 50); lag > maxGenLagMS {
		res.Health = append(res.Health, fmt.Sprintf("generator lag p50 %.4f ms exceeds %.2f ms", lag, maxGenLagMS))
	}

	// Drain the analytics queues so every apply span is in before the
	// trace is joined, and before the output checks read the state.
	if err := p.sync(); err != nil {
		return nil, fmt.Errorf("analytics sync: %w", err)
	}
	if tr != nil {
		res.addServedTrace(tr, phase, wc.shards)
		res.addTail("streaming.staleness_tail_ms", staleness(run.acks, run.reads, int64(len(in.bootstrap))))
		acked := 0
		for _, a := range run.acks {
			acked += a.n
		}
		res.add("shard.expected_refreshes", float64(acked)/amiEvery, acked)
		res.add("streaming.ami_refreshes", float64(c1.amiRefreshes-c0.amiRefreshes), 1)
		if wc.shards > 1 {
			merges, hits := c1.merges-c0.merges, c1.mergeHits-c0.mergeHits
			res.add("shard.merges", float64(merges), 1)
			res.add("shard.merge_cache_hit_ratio", float64(hits)/float64(max(merges+hits, 1)), int(merges+hits))
			res.add("shard.refresh_merges", float64(merges-int64(tr.readMiss)), 1)
		}
	}

	res.Attempted, res.Failed = len(in.ops), int(run.failed.Load())
	if run.firstErr != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("%d operations failed; first: %v", res.Failed, run.firstErr))
	}
	res.Problems = append(res.Problems, run.check(ctx, p, in.bootstrap)...)
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// addServedTrace records the per-layer metrics and the ledger of a traced
// served run whose measured phase lasted phase.
func (r *result) addServedTrace(tr *tracer, phase time.Duration, shards int) {
	st := tr.analyze()
	r.Ledger = st.ledger
	if err := closes(st.ledger, 0.01); err != nil {
		r.Health = append(r.Health, err.Error())
	}
	if st.unjoined > 0 {
		r.Health = append(r.Health, fmt.Sprintf("%d server-side timings could not be joined to their client request", st.unjoined))
	}
	r.addP50("storage.append_p50_ms", st.appendMS)
	r.addTail("storage.append_tail_ms", st.appendMS)
	r.addP50("verify.enroll_p50_ms", st.enrollMS)
	r.addP50("verify.decision_p50_ms", st.decisionMS)
	r.addTail("verify.decision_tail_ms", st.decisionMS)
	r.addP50("http.transport_p50_ms", st.transport)
	r.addP50("collectserver.session_p50_ms", st.sessionH)
	r.addP50("collectserver.submit_self_p50_ms", st.submitSelf)
	r.addTail("collectserver.submit_self_tail_ms", st.submitSelf)
	r.addTail("streaming.enqueue_wait_tail_ms", st.enqueueMS)
	r.addP50("streaming.queue_wait_p50_ms", st.queueWait)
	r.addTail("streaming.queue_wait_tail_ms", st.queueWait)
	r.addP50("streaming.apply_p50_ms", st.applyMS)
	r.add("streaming.apply_busy_ratio", st.applySum.Seconds()/(phase.Seconds()*float64(shards)), len(st.applyMS))
	for _, name := range []string{"entropy", "clusters", "stability", "ami"} {
		r.addP50("analytics."+name+"_p50_ms", st.readMS[name])
	}
}

// amiEvery is fpserver's AMI refresh cadence, in records.
const amiEvery = 4096

// Registry counters a served run reads around its phase: the router's
// merges and merge-cache hits, and the single engine's AMI refreshes (a
// router's shard engines never refresh on their own, so that unlabeled
// series stays 0 on a router, as the merge counters do on one engine).
const (
	mergesTotal       = "shard_merges_total"
	mergeHitsTotal    = "shard_merge_cache_hits_total"
	amiRefreshesTotal = "streaming_ami_refreshes_total"
)

func (p *plant) counter(name string) *obs.Counter { return p.reg.Counter(name, "", nil) }

type counterValues struct {
	merges, mergeHits, amiRefreshes int64
}

func (p *plant) counters() counterValues {
	return counterValues{p.counter(mergesTotal).Value(), p.counter(mergeHitsTotal).Value(),
		p.counter(amiRefreshesTotal).Value()}
}

// maxGenLagMS is the generator health limit: a median send later than this
// after the due time means the host cannot hold the schedule.
const maxGenLagMS = 0.05

// writeStore writes recs to a fresh store at path, laid out for shards.
func writeStore(path string, shards int, recs []storage.Record) error {
	var st interface {
		Append(...storage.Record) error
		Close() error
	}
	var err error
	if shards == 1 {
		st, err = storage.Open(path, storage.Options{})
	} else {
		st, err = shard.OpenStores(path, shards, storage.Options{})
	}
	if err != nil {
		return err
	}
	for len(recs) > 0 {
		n := min(len(recs), 4096)
		if err := st.Append(recs[:n]...); err != nil {
			return errors.Join(err, st.Close())
		}
		recs = recs[n:]
	}
	return st.Close()
}
