// Package collectserver implements the fingerprint-collection backend the
// paper's study site ran on (§2.2, an Angular + Firebase deployment): a
// consent-gated HTTP API that issues collection sessions, ingests batched
// elementary fingerprints, and exports the dataset for analysis.
//
// API (JSON over HTTP; every /api/v1 route speaks the typed envelope of
// api.go and carries X-API-Version). The authoritative, machine-readable
// surface is the route table in routes.go, served live at GET /api/v1;
// the highlights:
//
//	GET  /api/v1                     route catalog (methods, features, error codes)
//	GET  /api/v1/study               study metadata + consent text
//	POST /api/v1/sessions            begin a session (consent click) → token
//	POST /api/v1/fingerprints        submit a batch (session token required)
//	POST /api/v1/verify              authentication decision for a claimed user
//	GET  /api/v1/stats               record counts, ?vector= filterable
//	GET  /api/v1/export              NDJSON dump (admin token required)
//	GET  /api/v1/analytics/*         live analytics snapshots (streaming engine)
//	GET  /api/v1/analytics/verify    verification decision counters + calibration
package collectserver

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/obs/series"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
	"repro/internal/verify"
	"repro/internal/watch"
)

// Config parameterizes the server.
// RecordStore is the persistence surface the server writes to and reads
// back: a single storage.Store, or shard.Stores fanning appends across a
// per-shard segment chain. Append must be safe for concurrent use;
// All/WriteTo serve the stats and export routes.
type RecordStore interface {
	Append(recs ...storage.Record) error
	All() ([]storage.Record, error)
	WriteTo(w io.Writer) (int64, error)
	Count() int
}

// Analytics is the serving side of the live analytics plane: a single
// streaming.Engine, or shard.Router answering from a merged cross-shard
// snapshot. EnqueueContext must not block on the caller's critical path
// beyond queue backpressure.
type Analytics interface {
	EnqueueContext(ctx context.Context, recs []storage.Record)
	Diversity() streaming.EntropySnapshot
	Clusters() streaming.ClusterSnapshot
	Stability() streaming.StabilitySnapshot
	AMI() *streaming.AMISnapshot
	Status() streaming.StatusSnapshot
}

type Config struct {
	// Store receives accepted records. Required. Concrete implementations:
	// *storage.Store (single) and *shard.Stores (partitioned). Beware the
	// typed-nil trap: assign only a non-nil concrete value.
	Store RecordStore
	// AdminToken authorizes /api/v1/export. Empty disables export.
	AdminToken string
	// MaxBatch bounds records per submission (default 256).
	MaxBatch int
	// MaxIterations bounds the iteration index (default 100).
	MaxIterations int
	// SessionTTL expires idle sessions (default 30 minutes).
	SessionTTL time.Duration
	// MaxRecordsPerSession caps one session's total submissions
	// (default 10000 — far above the study's 210 per participant).
	MaxRecordsPerSession int
	// Logger receives request logs; nil disables logging.
	Logger *log.Logger
	// Now supplies time (tests override it); nil means time.Now.
	Now func() time.Time
	// SessionRatePerMin caps session creations per client IP per minute
	// (default 30; ≤ 0 keeps the default, use a huge value to disable).
	SessionRatePerMin float64
	// Registry receives the server's metrics and backs /metrics. Nil uses
	// obs.Default, so one scrape also covers the render/storage telemetry
	// of libraries sharing the process.
	Registry *obs.Registry
	// EnableDebug mounts /debug/pprof/* and /debug/vars on the handler.
	// Off by default: profiling endpoints leak operational detail and
	// belong behind an operator's opt-in.
	EnableDebug bool
	// MaxInFlight bounds concurrently served requests; excess load is shed
	// with 503 + Retry-After instead of queueing until collapse (default
	// 256; negative disables shedding).
	MaxInFlight int
	// SubmitRatePerSec token-buckets fingerprint submissions per client IP;
	// the overflow is shed with 429 + Retry-After (default 50/s, burst 2×;
	// use a huge value to effectively disable).
	SubmitRatePerSec float64
	// RequestTimeout caps how long one request's handler may run; the
	// deadline rides on the request context (default 15s).
	RequestTimeout time.Duration
	// IdempotencyWindow caps how many submission responses one session
	// replays for retried idempotency keys (default 512 most recent keys).
	IdempotencyWindow int
	// Analytics, when set, receives every accepted submission batch off
	// the request critical path (bounded queue, see streaming.Engine) and
	// backs the /api/v1/analytics/* routes. Nil disables them; as with
	// Store, assign only a non-nil concrete value.
	Analytics Analytics
	// Trace, when set, turns on distributed tracing: every request gets a
	// span that joins the client's traceparent header (obs.Extract) or
	// starts a fresh trace, submission handling hangs ingest/store.append
	// child spans under it, and finished request spans are exported here.
	Trace obs.SpanExporter
	// Watch, when set, backs GET /api/v1/analytics/alerts and the
	// plain-text GET /debug/health measurement-health endpoint.
	Watch *watch.Monitor
	// Series, when set, backs the flight-recorder query routes
	// GET /api/v1/obs/query and GET /api/v1/obs/series. The caller owns the
	// store's lifecycle (Start/Close).
	Series *series.Store
	// RenderAudit, when set, backs GET /debug/render/divergence with the
	// shadow auditor's flight-record dump.
	RenderAudit *vectors.ShadowAuditor
	// Diag, when set, backs the diagnostic-bundle routes
	// GET/POST /api/v1/obs/bundles[/{id}]. Nil keeps the routes registered
	// answering the stable diag_disabled code.
	Diag *diag.Capturer
	// Runtime, when set, contributes the runtime/resources section
	// (goroutines, heap in-use, last GC pause) to GET /debug/health.
	Runtime *diag.Sampler
	// Verifier, when set, turns on the authentication surface: accepted
	// submissions are enrolled into it and POST /api/v1/verify answers
	// decisions from it. Nil keeps the routes registered but answering the
	// stable verify_disabled code. Concrete implementations: *verify.Engine
	// (single) and *shard.Verifiers (the claimed user pins the owning
	// shard, so decisions are identical either way). As with Store, assign
	// only a non-nil concrete value.
	Verifier Verifier
	// VerifySLO is the decision-latency objective: verifications slower
	// than this increment fpserver_verify_slow_total, which the watch
	// verify-latency error-budget rule burns against (default 100ms).
	VerifySLO time.Duration
}

// Verifier is the authentication decision plane behind POST /api/v1/verify:
// a single verify.Engine or the sharded shard.Verifiers.
//
// Enroll must be read-your-writes: once it returns, every Verify that
// starts afterwards recognizes the enrolled hashes. The submit handler
// enrolls before it answers 202, so an acknowledged submission can be
// verified at once.
type Verifier interface {
	Enroll(recs []storage.Record)
	Verify(userID string, samples []verify.Sample) (verify.Decision, error)
	Stats() verify.StatsSnapshot
}

// Server is the collection backend. Create with New, mount via Handler.
type Server struct {
	cfg           Config
	limiter       *rateLimiter
	submitLimiter *rateLimiter
	inflight      chan struct{}
	met           *serverMetrics

	mu       sync.Mutex
	sessions map[string]*session
}

type session struct {
	id        string
	userID    string
	userAgent string
	created   time.Time
	lastSeen  time.Time
	records   int
	// seen caches submission responses by idempotency key so a client
	// retrying a lost ack replays the original outcome instead of
	// duplicating records; seenOrder evicts oldest-first.
	seen      map[string]SubmitResponse
	seenOrder []string
}

// remember caches resp for key, evicting the oldest cached key beyond the
// window. Caller holds the server mutex.
func (s *session) remember(key string, resp SubmitResponse, window int) {
	if s.seen == nil {
		s.seen = make(map[string]SubmitResponse)
	}
	if _, dup := s.seen[key]; !dup {
		s.seenOrder = append(s.seenOrder, key)
		if len(s.seenOrder) > window {
			delete(s.seen, s.seenOrder[0])
			s.seenOrder = s.seenOrder[1:]
		}
	}
	s.seen[key] = resp
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("collectserver: Config.Store is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 30 * time.Minute
	}
	if cfg.MaxRecordsPerSession <= 0 {
		cfg.MaxRecordsPerSession = 10000
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.SessionRatePerMin <= 0 {
		cfg.SessionRatePerMin = 30
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.SubmitRatePerSec <= 0 {
		cfg.SubmitRatePerSec = 50
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.IdempotencyWindow <= 0 {
		cfg.IdempotencyWindow = 512
	}
	if cfg.VerifySLO == 0 {
		cfg.VerifySLO = 100 * time.Millisecond
	}
	srv := &Server{cfg: cfg, sessions: make(map[string]*session)}
	srv.limiter = newRateLimiter(cfg.SessionRatePerMin/60, cfg.SessionRatePerMin, cfg.Now)
	srv.submitLimiter = newRateLimiter(cfg.SubmitRatePerSec, 2*cfg.SubmitRatePerSec, cfg.Now)
	if cfg.MaxInFlight > 0 {
		srv.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	srv.met = newServerMetrics(cfg.Registry)
	return srv, nil
}

// Handler returns the server's HTTP routes, registered from the route
// table in routes.go — the same table GET /api/v1 serves as the catalog.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routeTable() {
		h := rt.handler
		mux.HandleFunc(rt.Method+" "+rt.Path, func(w http.ResponseWriter, r *http.Request) {
			h(s, w, r)
		})
	}
	if s.cfg.EnableDebug {
		obs.RegisterDebug(mux)
	}
	return s.withMiddleware(mux)
}

// withMiddleware adds overload shedding, request deadlines, panic
// recovery, body limits, metrics and logging. All accounting happens in
// the deferred block so a panicking handler still shows up in the latency
// histogram and counts as a 5xx.
func (s *Server) withMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				// Saturated: shed rather than queue. Retry-After keeps
				// well-behaved clients from hammering a drowning server.
				s.met.shed("overload")
				w.Header().Set("Retry-After", "1")
				respondError(rec, http.StatusServiceUnavailable, CodeOverloaded, "server overloaded, retry later")
				s.met.request(routeLabel(r.URL.Path), rec.code, time.Since(start), r.ContentLength)
				return
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		var span *obs.Span
		if s.cfg.Trace != nil {
			// Join the caller's distributed trace when the request carries a
			// valid traceparent; otherwise this request roots a fresh one.
			if tc, ok := obs.Extract(r.Header); ok {
				span = obs.NewRemoteChild("http.request", tc)
			} else {
				span = obs.NewTrace("http.request")
			}
			span.SetAttr("method", r.Method)
			span.SetAttr("route", routeLabel(r.URL.Path))
			ctx = obs.ContextWithSpan(ctx, span)
		}
		r = r.WithContext(ctx)
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Inc()
				rec.code = http.StatusInternalServerError
				if !rec.wrote {
					respondError(rec, http.StatusInternalServerError, CodeInternal, "internal error")
				}
				if s.cfg.Logger != nil {
					s.cfg.Logger.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, p)
				}
			}
			s.met.request(routeLabel(r.URL.Path), rec.code, time.Since(start), r.ContentLength)
			if span != nil {
				span.SetAttr("status", rec.code)
				span.End()
				s.cfg.Trace.ExportSpan(span)
			}
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("%s %s %d (%s)", r.Method, r.URL.Path, rec.code,
					time.Since(start).Round(time.Microsecond))
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
		next.ServeHTTP(rec, r)
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StudyInfo is the consent-gate metadata served to participants.
type StudyInfo struct {
	Name        string   `json:"name"`
	Consent     string   `json:"consent"`
	Vectors     []string `json:"vectors"`
	Iterations  int      `json:"iterations"`
	ContactNote string   `json:"contact_note"`
}

func (s *Server) handleStudy(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, len(vectors.All))
	for i, v := range vectors.All {
		names[i] = v.String()
	}
	respondJSON(w, http.StatusOK, StudyInfo{
		Name: "Web Audio Fingerprinting Measurement Study",
		Consent: "This study extracts browser fingerprints (Web Audio, Canvas, " +
			"Font, User-Agent) from your browser. No other information is " +
			"collected. Participation begins only after you click consent.",
		Vectors:     names,
		Iterations:  30,
		ContactNote: "Contact the study operators to have your data removed.",
	})
}

// NewSessionRequest starts a collection session; the POST itself is the
// consent click.
type NewSessionRequest struct {
	UserID    string `json:"user_id"`
	UserAgent string `json:"user_agent"`
	Consent   bool   `json:"consent"`
}

// NewSessionResponse carries the issued session token.
type NewSessionResponse struct {
	SessionID string `json:"session_id"`
	Token     string `json:"token"`
}

func (s *Server) handleNewSession(w http.ResponseWriter, r *http.Request) {
	if !s.limiter.allow(clientIP(r)) {
		s.met.rateLimited.Inc()
		respondError(w, http.StatusTooManyRequests, CodeRateLimited, "session creation rate limit exceeded")
		return
	}
	var req NewSessionRequest
	if err := decodeJSON(r, &req); err != nil {
		respondError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if !req.Consent {
		respondError(w, http.StatusForbidden, CodeConsentRequired, "consent is required before collection")
		return
	}
	if req.UserID == "" {
		respondError(w, http.StatusBadRequest, CodeBadRequest, "user_id is required")
		return
	}
	tok, err := newToken()
	if err != nil {
		respondError(w, http.StatusInternalServerError, CodeInternal, "token generation failed")
		return
	}
	now := s.cfg.Now()
	sess := &session{
		id: "s-" + tok[:12], userID: req.UserID, userAgent: req.UserAgent,
		created: now, lastSeen: now,
	}
	s.mu.Lock()
	s.gcLocked(now)
	s.sessions[tok] = sess
	s.mu.Unlock()
	s.met.sessionsCreated.Inc()
	respondJSON(w, http.StatusCreated, NewSessionResponse{SessionID: sess.id, Token: tok})
}

// SubmitRequest is one fingerprint batch. IdempotencyKey, when set, makes
// retried submissions safe: a batch resubmitted under a key the session has
// already accepted replays the original acknowledgment instead of storing
// duplicate records.
type SubmitRequest struct {
	Token          string     `json:"token"`
	Records        []FPRecord `json:"records"`
	IdempotencyKey string     `json:"idempotency_key,omitempty"`
}

// FPRecord is the wire form of one elementary fingerprint.
type FPRecord struct {
	Vector    string            `json:"vector"`
	Iteration int               `json:"iteration"`
	Hash      string            `json:"hash"`
	Sum       float64           `json:"sum,omitempty"`
	Surfaces  map[string]string `json:"surfaces,omitempty"`
}

// SubmitResponse acknowledges an accepted batch.
type SubmitResponse struct {
	Accepted int `json:"accepted"`
	Total    int `json:"total_for_session"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.submitLimiter.allow(clientIP(r)) {
		s.met.shed("rate")
		w.Header().Set("Retry-After", "1")
		respondError(w, http.StatusTooManyRequests, CodeRateLimited, "submission rate limit exceeded")
		return
	}
	// Hang the ingest stage under the request span (nil-safe: untraced
	// servers carry no span and every span call below no-ops). The ingest
	// span becomes the context's active span so the streaming engine's
	// eventual apply joins this trace across the queue hand-off.
	ctx := r.Context()
	ingest := obs.SpanFromContext(ctx).StartChild("ingest")
	defer ingest.End()
	if ingest != nil {
		ctx = obs.ContextWithSpan(ctx, ingest)
	}
	var req SubmitRequest
	if err := decodeJSON(r, &req); err != nil {
		respondError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if len(req.Records) == 0 {
		respondError(w, http.StatusBadRequest, CodeBadRequest, "empty batch")
		return
	}
	if len(req.Records) > s.cfg.MaxBatch {
		respondError(w, http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Records), s.cfg.MaxBatch))
		return
	}

	now := s.cfg.Now()
	s.mu.Lock()
	sess, ok := s.sessions[req.Token]
	if ok && now.Sub(sess.lastSeen) > s.cfg.SessionTTL {
		delete(s.sessions, req.Token)
		ok = false
	}
	if !ok {
		s.mu.Unlock()
		respondError(w, http.StatusUnauthorized, CodeUnauthorized, "unknown or expired session token")
		return
	}
	if req.IdempotencyKey != "" {
		if cached, dup := sess.seen[req.IdempotencyKey]; dup {
			sess.lastSeen = now
			s.mu.Unlock()
			s.met.idempotentReplays.Inc()
			// A replayed key never reaches the store — and never reaches
			// the analytics engine either, matching exactly-once ingestion.
			respondJSON(w, http.StatusAccepted, cached)
			return
		}
	}
	if sess.records+len(req.Records) > s.cfg.MaxRecordsPerSession {
		s.mu.Unlock()
		respondError(w, http.StatusTooManyRequests, CodeQuotaExceeded, "session record quota exceeded")
		return
	}
	sess.lastSeen = now
	sess.records += len(req.Records)
	userID, sessionID, ua := sess.userID, sess.id, sess.userAgent
	total := sess.records
	s.mu.Unlock()

	recs := make([]storage.Record, 0, len(req.Records))
	for _, fr := range req.Records {
		if err := validateFPRecord(fr, s.cfg.MaxIterations); err != nil {
			respondError(w, http.StatusUnprocessableEntity, CodeInvalidRecord, err.Error())
			return
		}
		recs = append(recs, storage.Record{
			SessionID: sessionID, UserID: userID, Vector: fr.Vector,
			Iteration: fr.Iteration, Hash: fr.Hash, Sum: fr.Sum,
			UserAgent: ua, Surfaces: fr.Surfaces, ReceivedAt: now.UTC(),
		})
	}
	appendSpan := ingest.StartChild("store.append")
	err := s.cfg.Store.Append(recs...)
	appendSpan.SetAttr("records", len(recs))
	appendSpan.End()
	if err != nil {
		respondError(w, http.StatusInternalServerError, CodeStorageFailure, "storage failure")
		return
	}
	if s.cfg.Analytics != nil {
		// Off the critical path: hand the batch to the engine's bounded
		// queue. The context carries the ingest span, so a trace-configured
		// engine stitches its async apply onto this request's trace.
		s.cfg.Analytics.EnqueueContext(ctx, recs)
	}
	if s.cfg.Verifier != nil {
		// Enrollment keeps the verification history in lockstep with the
		// store: every accepted audio-vector record extends the user's
		// stored history (the engine skips auxiliary surfaces itself).
		// Neither consumer mutates recs, so sharing the slice is safe.
		s.cfg.Verifier.Enroll(recs)
	}
	ingest.SetAttr("accepted", len(recs))
	resp := SubmitResponse{Accepted: len(recs), Total: total}
	if req.IdempotencyKey != "" {
		// Cache only after the append succeeded: a failed attempt must stay
		// retryable under the same key. The session may have expired while
		// we wrote; then there is nothing to remember.
		s.mu.Lock()
		if sess2, still := s.sessions[req.Token]; still {
			sess2.remember(req.IdempotencyKey, resp, s.cfg.IdempotencyWindow)
		}
		s.mu.Unlock()
	}
	s.met.recordsAccepted.Add(int64(len(recs)))
	respondJSON(w, http.StatusAccepted, resp)
}

func validateFPRecord(fr FPRecord, maxIter int) error {
	if _, err := vectors.ParseID(fr.Vector); err != nil && fr.Vector != "MathJS" &&
		fr.Vector != "Canvas" && fr.Vector != "Fonts" && fr.Vector != "UserAgent" {
		return fmt.Errorf("unknown vector %q", fr.Vector)
	}
	if fr.Iteration < 0 || fr.Iteration >= maxIter {
		return fmt.Errorf("iteration %d out of range [0,%d)", fr.Iteration, maxIter)
	}
	return validateHash(fr.Hash)
}

// validateHash enforces the wire hash format shared by submission and
// verification: nonempty lowercase hex, at most 128 characters.
func validateHash(hash string) error {
	if len(hash) == 0 || len(hash) > 128 {
		return fmt.Errorf("hash length %d out of range", len(hash))
	}
	for _, c := range hash {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return fmt.Errorf("hash is not lowercase hex")
		}
	}
	return nil
}

// StatsResponse is the payload of GET /api/v1/stats. With ?vector=NAME the
// counts cover only that vector's records and Vector echoes the filter.
type StatsResponse struct {
	Records   int            `json:"records"`
	Users     int            `json:"users"`
	PerVector map[string]int `json:"per_vector"`
	Vector    string         `json:"vector,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("vector")
	recs, err := s.cfg.Store.All()
	if err != nil {
		respondError(w, http.StatusInternalServerError, CodeStorageFailure, "storage failure")
		return
	}
	perVector := map[string]int{}
	users := map[string]struct{}{}
	for _, rec := range recs {
		if filter != "" && rec.Vector != filter {
			continue
		}
		perVector[rec.Vector]++
		users[rec.UserID] = struct{}{}
	}
	total := 0
	for _, n := range perVector {
		total += n
	}
	if filter != "" && total == 0 {
		// Distinguish "no records yet" from "you asked for a vector that
		// can never exist" — the latter is a client bug worth a 400.
		if !knownVectorName(filter) {
			respondError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("unknown vector %q", filter))
			return
		}
	}
	respondJSON(w, http.StatusOK, StatsResponse{
		Records:   total,
		Users:     len(users),
		PerVector: perVector,
		Vector:    filter,
	})
}

// knownVectorName reports whether name is one of the seven audio vectors or
// an auxiliary surface accepted by validateFPRecord.
func knownVectorName(name string) bool {
	if _, err := vectors.ParseID(name); err == nil {
		return true
	}
	switch name {
	case "MathJS", "Canvas", "Fonts", "UserAgent":
		return true
	}
	return false
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AdminToken == "" {
		respondError(w, http.StatusForbidden, CodeExportDisabled, "export disabled")
		return
	}
	got := r.Header.Get("Authorization")
	want := "Bearer " + s.cfg.AdminToken
	if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
		respondError(w, http.StatusUnauthorized, CodeUnauthorized, "bad admin token")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := s.cfg.Store.WriteTo(w); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf("export: %v", err)
	}
}

// gcLocked drops expired sessions; caller holds s.mu.
func (s *Server) gcLocked(now time.Time) {
	for tok, sess := range s.sessions {
		if now.Sub(sess.lastSeen) > s.cfg.SessionTTL {
			delete(s.sessions, tok)
		}
	}
}

// ActiveSessions reports the live session count (monitoring).
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func newToken() (string, error) {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

func decodeJSON(r *http.Request, dst any) error {
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, "application/json") {
		return fmt.Errorf("unsupported content type %q", ct)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid JSON body: %v", err)
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// writeJSON serves the unversioned endpoints (/healthz) that predate the
// v1 envelope. Everything under /api/v1 goes through respondJSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
