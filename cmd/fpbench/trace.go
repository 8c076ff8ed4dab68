package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/collectserver"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/verify"
)

// Request classes of the served ledger.
const (
	classSession = "session"
	classSubmit  = "submit"
	classRead    = "read"
	classVerify  = "verify"
)

var ledgerClasses = []string{classSession, classSubmit, classRead, classVerify}

// tracer times the calls into each server layer from outside the program:
// a timing handler around the collectserver handler, wrappers around the
// store, analytics and verifier it is built with, and a span sink for the
// streaming engine's apply spans. Every record is joined afterwards to the
// client request that caused it, by trace id or by user id.
type tracer struct {
	mu       sync.Mutex
	handler  map[string]time.Duration // trace id → handler time
	enqueue  map[string]enqueueRec    // trace id → EnqueueContext call
	byUser   map[string]map[string][]time.Duration
	reads    map[string][]time.Duration // analytics method → call durations
	applies  []applyRec
	readMiss int // analytics reads during which the router merged
	requests []requestRec
	merges   *obs.Counter // the router's merge count; stays 0 on one engine
}

type enqueueRec struct {
	end time.Time
	dur time.Duration
}

type applyRec struct {
	traceID string
	start   time.Time
	dur     time.Duration
}

// requestRec is one client request as the client saw it.
type requestRec struct {
	class, traceID, user string
	total                time.Duration
}

func newTracer() *tracer {
	return &tracer{
		handler: map[string]time.Duration{},
		enqueue: map[string]enqueueRec{},
		byUser:  map[string]map[string][]time.Duration{},
		reads:   map[string][]time.Duration{},
	}
}

// ExportSpan receives the server's finished request span trees and the
// streaming engine's apply spans. The apply span has just ended, so its
// start is now minus its duration.
func (t *tracer) ExportSpan(sp *obs.Span) {
	if sp.Name() != "streaming.apply" {
		return
	}
	d := sp.Duration()
	rec := applyRec{traceID: sp.TraceID(), start: time.Now().Add(-d), dur: d}
	t.mu.Lock()
	t.applies = append(t.applies, rec)
	t.mu.Unlock()
}

// wrapHandler times the whole server handler per request, keyed by the
// trace id the client stamped on it.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		tc, _ := obs.Extract(r.Header)
		t.mu.Lock()
		t.handler[tc.TraceID] += d
		t.mu.Unlock()
	})
}

// childCall records a synchronous call the handler made for user.
func (t *tracer) childCall(kind, user string, d time.Duration) {
	t.mu.Lock()
	m := t.byUser[kind]
	if m == nil {
		m = map[string][]time.Duration{}
		t.byUser[kind] = m
	}
	m[user] = append(m[user], d)
	t.mu.Unlock()
}

// popChild returns user's oldest unclaimed call of kind. One user's
// requests never overlap, so their calls arrive in request order.
func (t *tracer) popChild(kind, user string) (time.Duration, bool) {
	q := t.byUser[kind][user]
	if len(q) == 0 {
		return 0, false
	}
	t.byUser[kind][user] = q[1:]
	return q[0], true
}

// clientRequest starts a client span for one request and returns the
// context carrying it and a func that records the request when it ends.
func (t *tracer) clientRequest(ctx context.Context, class, user string) (context.Context, func()) {
	sp := obs.NewTrace("client." + class)
	start := time.Now()
	return obs.ContextWithSpan(ctx, sp), func() {
		rec := requestRec{class: class, traceID: sp.TraceID(), user: user, total: time.Since(start)}
		t.mu.Lock()
		t.requests = append(t.requests, rec)
		t.mu.Unlock()
	}
}

// timedStore times RecordStore.Append.
type timedStore struct {
	collectserver.RecordStore
	t *tracer
}

func (s timedStore) Append(recs ...storage.Record) error {
	start := time.Now()
	err := s.RecordStore.Append(recs...)
	if len(recs) > 0 {
		s.t.childCall("append", recs[0].UserID, time.Since(start))
	}
	return err
}

// timedVerifier times Verifier.Enroll and Verifier.Verify.
type timedVerifier struct {
	collectserver.Verifier
	t *tracer
}

func (v timedVerifier) Enroll(recs []storage.Record) {
	start := time.Now()
	v.Verifier.Enroll(recs)
	if len(recs) > 0 {
		v.t.childCall("enroll", recs[0].UserID, time.Since(start))
	}
}

func (v timedVerifier) Verify(userID string, samples []verify.Sample) (verify.Decision, error) {
	start := time.Now()
	d, err := v.Verifier.Verify(userID, samples)
	v.t.childCall("verify", userID, time.Since(start))
	return d, err
}

// timedAnalytics times every Analytics method.
type timedAnalytics struct {
	collectserver.Analytics
	t *tracer
}

func (a timedAnalytics) EnqueueContext(ctx context.Context, recs []storage.Record) {
	start := time.Now()
	a.Analytics.EnqueueContext(ctx, recs)
	end := time.Now()
	tid := obs.SpanFromContext(ctx).TraceID()
	a.t.mu.Lock()
	a.t.enqueue[tid] = enqueueRec{end: end, dur: end.Sub(start)}
	a.t.mu.Unlock()
}

// timedRead times one analytics read. For reads served from the router's
// merged state (merged set) it also notes whether the router merged during
// the call, which tells read-driven merges from AMI-refresh ones.
func timedRead[T any](t *tracer, name string, merged bool, read func() T) T {
	var m0 int64
	if merged && t.merges != nil {
		m0 = t.merges.Value()
	}
	start := time.Now()
	v := read()
	d := time.Since(start)
	t.mu.Lock()
	t.reads[name] = append(t.reads[name], d)
	if merged && t.merges != nil && t.merges.Value() > m0 {
		t.readMiss++
	}
	t.mu.Unlock()
	return v
}

func (a timedAnalytics) Diversity() streaming.EntropySnapshot {
	return timedRead(a.t, "entropy", true, a.Analytics.Diversity)
}

func (a timedAnalytics) Clusters() streaming.ClusterSnapshot {
	return timedRead(a.t, "clusters", true, a.Analytics.Clusters)
}

func (a timedAnalytics) Stability() streaming.StabilitySnapshot {
	return timedRead(a.t, "stability", true, a.Analytics.Stability)
}

func (a timedAnalytics) AMI() *streaming.AMISnapshot {
	return timedRead(a.t, "ami", false, a.Analytics.AMI)
}

func (a timedAnalytics) Status() streaming.StatusSnapshot {
	return timedRead(a.t, "status", false, a.Analytics.Status)
}

// ledgerRow is one request class's mean time per request, split into the
// client–server transport, the handler's self time and its child calls.
type ledgerRow struct {
	Class       string             `json:"class"`
	Requests    int                `json:"requests"`
	TotalMS     float64            `json:"total_ms"`
	TransportMS float64            `json:"transport_ms"`
	SelfMS      float64            `json:"self_ms"`
	ChildrenMS  map[string]float64 `json:"children_ms,omitempty"`
}

// partsMS is the sum of the row's parts, which should equal TotalMS.
func (r ledgerRow) partsMS() float64 {
	s := r.TransportMS + r.SelfMS
	for _, v := range r.ChildrenMS {
		s += v
	}
	return s
}

// servedTrace is what the traced run derives from the tracer.
type servedTrace struct {
	ledger     []ledgerRow
	transport  []float64 // per request, ms
	sessionH   []float64 // session handler time, ms
	submitSelf []float64 // submit handler self time, ms
	appendMS   []float64
	enrollMS   []float64
	decisionMS []float64
	enqueueMS  []float64
	queueWait  []float64
	applyMS    []float64
	applySum   time.Duration
	readMS     map[string][]float64 // analytics method → ms
	readMiss   int
	// unjoined counts server-side records a client request should have
	// and lacks: its handler time, or a child call of its handler.
	unjoined int
}

// analyze joins every client request to its handler time and child calls.
// Read requests make exactly one analytics call each, so their child time
// is the class mean of the read calls rather than a per-request join.
func (t *tracer) analyze() servedTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := servedTrace{readMS: map[string][]float64{}, readMiss: t.readMiss}
	type acc struct {
		n              int
		total, handler float64
		children       map[string]float64
	}
	accs := map[string]*acc{}
	for _, c := range ledgerClasses {
		accs[c] = &acc{children: map[string]float64{}}
	}
	var readCalls float64
	for name, ds := range t.reads {
		for _, d := range ds {
			out.readMS[name] = append(out.readMS[name], ms(d))
			readCalls += ms(d)
		}
	}
	all := func(kind string) []float64 {
		var xs []float64
		for _, ds := range t.byUser[kind] {
			for _, d := range ds {
				xs = append(xs, ms(d))
			}
		}
		return xs
	}
	out.appendMS, out.enrollMS, out.decisionMS = all("append"), all("enroll"), all("verify")
	pop := func(kind, user string) time.Duration {
		d, ok := t.popChild(kind, user)
		if !ok {
			out.unjoined++
		}
		return d
	}
	for _, rq := range t.requests {
		a := accs[rq.class]
		h, ok := t.handler[rq.traceID]
		if !ok {
			out.unjoined++
		}
		a.n++
		a.total += ms(rq.total)
		a.handler += ms(h)
		out.transport = append(out.transport, ms(rq.total-h))
		switch rq.class {
		case classSession:
			out.sessionH = append(out.sessionH, ms(h))
		case classSubmit:
			ap := pop("append", rq.user)
			en := pop("enroll", rq.user)
			e, ok := t.enqueue[rq.traceID]
			if !ok {
				out.unjoined++
			}
			eq := e.dur
			a.children["store.append"] += ms(ap)
			a.children["analytics.enqueue"] += ms(eq)
			a.children["verify.enroll"] += ms(en)
			out.submitSelf = append(out.submitSelf, ms(h-ap-en-eq))
		case classVerify:
			d := pop("verify", rq.user)
			a.children["verify.decision"] += ms(d)
		}
	}
	accs[classRead].children["analytics.read"] = readCalls
	for _, c := range ledgerClasses {
		a := accs[c]
		if a.n == 0 {
			continue
		}
		n := float64(a.n)
		row := ledgerRow{Class: c, Requests: a.n, TotalMS: a.total / n,
			TransportMS: (a.total - a.handler) / n, ChildrenMS: map[string]float64{}}
		childSum := 0.0
		for k, v := range a.children {
			row.ChildrenMS[k] = v / n
			childSum += v
		}
		row.SelfMS = (a.handler - childSum) / n
		out.ledger = append(out.ledger, row)
	}

	for _, e := range t.enqueue {
		out.enqueueMS = append(out.enqueueMS, ms(e.dur))
	}
	for _, ap := range t.applies {
		out.applyMS = append(out.applyMS, ms(ap.dur))
		out.applySum += ap.dur
		if e, ok := t.enqueue[ap.traceID]; ok {
			// The consumer may pick a batch up before EnqueueContext has
			// returned to its caller; that is no wait at all.
			out.queueWait = append(out.queueWait, max(ms(ap.start.Sub(e.end)), 0))
		}
	}
	return out
}

// closes reports whether every ledger row's parts sum to its total within
// tol (a fraction of the total).
func closes(rows []ledgerRow, tol float64) error {
	for _, r := range rows {
		if r.TotalMS <= 0 || math.Abs(r.partsMS()-r.TotalMS) > tol*r.TotalMS {
			return fmt.Errorf("ledger row %s: parts %.4f ms, total %.4f ms", r.Class, r.partsMS(), r.TotalMS)
		}
	}
	return nil
}

// writeLedger prints the ledger as a table.
func writeLedger(w io.Writer, rows []ledgerRow) {
	fmt.Fprintf(w, "%-8s %8s %10s %10s %10s  %s\n", "class", "requests", "total_ms", "transport", "self", "children")
	for _, r := range rows {
		names := make([]string, 0, len(r.ChildrenMS))
		for k := range r.ChildrenMS {
			names = append(names, k)
		}
		sort.Strings(names)
		kids := ""
		for _, k := range names {
			kids += fmt.Sprintf("%s=%.4f ", k, r.ChildrenMS[k])
		}
		fmt.Fprintf(w, "%-8s %8d %10.4f %10.4f %10.4f  %s\n", r.Class, r.Requests, r.TotalMS, r.TransportMS, r.SelfMS, kids)
	}
}
