// Package collectclient is the participant-side SDK for the collection
// backend: it performs the consent handshake, batches elementary
// fingerprints, and submits them with bounded exponential-backoff retries —
// the role the study site's in-browser TypeScript played.
package collectclient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/collectserver"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Client talks to one collection server. Safe for concurrent use.
type Client struct {
	base        string
	hc          *http.Client
	retries     int
	backoff     time.Duration
	idempotency bool
	brk         *breaker

	mu    sync.Mutex // guards rng
	rng   *rand.Rand
	stats clientStats
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets the per-request retry budget (default 3).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the initial backoff delay (default 100ms, doubling).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithBreaker adds a circuit breaker that opens after `threshold`
// consecutive failed attempts and fails fast for `cooldown` before letting
// a single half-open probe through. Disabled by default.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) {
		c.brk = &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
	}
}

// WithIdempotency toggles per-batch idempotency keys on submissions
// (default on). With keys attached, a retry whose original attempt did
// reach the server replays the ack instead of storing duplicates.
func WithIdempotency(enabled bool) Option { return func(c *Client) { c.idempotency = enabled } }

// New creates a client for the server at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:        baseURL,
		hc:          &http.Client{Timeout: 30 * time.Second},
		retries:     3,
		backoff:     100 * time.Millisecond,
		idempotency: true,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// contentKey derives an idempotency key from a scope (session token, user
// ID) and a payload's JSON encoding. Content-derived keys mean ANY
// resubmission of the same payload in the same scope — the in-request
// retry loop, but also an agent-level retry after a garbled ack — carries
// the same key, so the server can replay the original outcome instead of
// acting twice.
func contentKey(scope string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(scope))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// submitWire is collectserver.SubmitRequest with its records already
// encoded, so that Submit hashes and sends the same bytes.
type submitWire struct {
	Token          string          `json:"token"`
	Records        json.RawMessage `json:"records"`
	IdempotencyKey string          `json:"idempotency_key,omitempty"`
}

// Session is an authorized collection session.
type Session struct {
	ID    string
	Token string
	c     *Client
}

// StudyInfo fetches the study's consent metadata.
func (c *Client) StudyInfo(ctx context.Context) (*collectserver.StudyInfo, error) {
	var info collectserver.StudyInfo
	if err := c.do(ctx, http.MethodGet, "/api/v1/study", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// StartSession performs the consent handshake for userID.
func (c *Client) StartSession(ctx context.Context, userID, userAgent string) (*Session, error) {
	req := collectserver.NewSessionRequest{UserID: userID, UserAgent: userAgent, Consent: true}
	var resp collectserver.NewSessionResponse
	if err := c.do(ctx, http.MethodPost, "/api/v1/sessions", req, &resp); err != nil {
		return nil, fmt.Errorf("collectclient: start session: %w", err)
	}
	return &Session{ID: resp.SessionID, Token: resp.Token, c: c}, nil
}

// Submit sends one batch of fingerprints under the session.
func (s *Session) Submit(ctx context.Context, records []collectserver.FPRecord) error {
	if len(records) == 0 {
		return nil
	}
	raw, err := json.Marshal(records)
	if err != nil {
		return fmt.Errorf("collectclient: submit: marshal records: %w", err)
	}
	req := submitWire{Token: s.Token, Records: raw}
	if s.c.idempotency {
		// Fingerprint records are content-identified, so two identical
		// batches in one session are by definition the same batch.
		req.IdempotencyKey = contentKey(s.Token, raw)
	}
	var resp collectserver.SubmitResponse
	if err := s.c.do(ctx, http.MethodPost, "/api/v1/fingerprints", req, &resp); err != nil {
		return fmt.Errorf("collectclient: submit: %w", err)
	}
	if resp.Accepted != len(records) {
		return fmt.Errorf("collectclient: server accepted %d of %d records", resp.Accepted, len(records))
	}
	return nil
}

// SubmitChunked splits records into server-friendly batches.
func (s *Session) SubmitChunked(ctx context.Context, records []collectserver.FPRecord, chunk int) error {
	if chunk <= 0 {
		chunk = 128
	}
	for len(records) > 0 {
		n := min(chunk, len(records))
		if err := s.Submit(ctx, records[:n]); err != nil {
			return err
		}
		records = records[n:]
	}
	return nil
}

// httpStatusError reports a non-2xx response. apiCode carries the stable
// v1 error code when the server spoke the envelope, "" against a legacy
// (pre-envelope) server.
type httpStatusError struct {
	code       int
	apiCode    string
	body       string
	retryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

func (e *httpStatusError) Error() string {
	if e.apiCode != "" {
		return fmt.Sprintf("server returned %d (%s): %s", e.code, e.apiCode, e.body)
	}
	return fmt.Sprintf("server returned %d: %s", e.code, e.body)
}

// retryable reports whether the request should be retried: transport
// errors, 5xx, and 429 (the server shed us and told us when to come back)
// are; other 4xx are not.
func retryable(err error) bool {
	if se, ok := err.(*httpStatusError); ok {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return err != nil
}

// do issues one JSON request with retries and decodes the response.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("collectclient: marshal request: %w", err)
		}
	}
	delay := c.backoff
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.stats.retries.Add(1)
			mRetries.Inc()
			c.mu.Lock()
			jitter := time.Duration(c.rng.Int63n(int64(delay)/2 + 1))
			c.mu.Unlock()
			sleep := delay + jitter
			select {
			case <-time.After(sleep):
				c.stats.backoffNanos.Add(int64(sleep))
			case <-ctx.Done():
				c.stats.failures.Add(1)
				mFailures.Inc()
				return ctx.Err()
			}
			delay *= 2
		}
		if ok, wait := c.brk.allow(); !ok {
			// Fail fast: the whole point of an open breaker is not to
			// queue up behind a struggling server. The caller decides
			// whether to come back after `wait`.
			c.stats.failures.Add(1)
			mFailures.Inc()
			return fmt.Errorf("%w (server failing, retry in %v)", ErrCircuitOpen, wait)
		}
		lastErr = c.once(ctx, method, path, body, out)
		if lastErr == nil {
			c.brk.success()
			return nil
		}
		c.brk.failure()
		if code := ErrorCode(lastErr); code != "" {
			c.stats.lastErrCode.Store(code)
		}
		if !retryable(lastErr) {
			c.stats.failures.Add(1)
			mFailures.Inc()
			return lastErr
		}
		// A shed server's Retry-After is authoritative: never come back
		// sooner than it asked.
		if se, ok := lastErr.(*httpStatusError); ok && se.retryAfter > delay {
			delay = se.retryAfter
		}
	}
	c.stats.failures.Add(1)
	mFailures.Inc()
	return fmt.Errorf("collectclient: %s %s failed after %d attempts: %w",
		method, path, c.retries+1, lastErr)
}

// ErrCircuitOpen reports that the client's circuit breaker is open and the
// request was not sent. Callers detect it with errors.Is and back off.
var ErrCircuitOpen = errors.New("collectclient: circuit breaker open")

// StatusCode extracts the HTTP status behind a client error, or 0 when the
// error did not carry one (transport failure, breaker open, cancellation).
// Agents use it to tell an expired/garbled session (401 → re-handshake)
// from transient trouble.
func StatusCode(err error) int {
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// ErrorCode extracts the stable v1 error code (e.g. "rate_limited",
// "unauthorized") behind a client error, or "" when the server did not
// send an envelope or the error carried no HTTP response at all. Unlike
// messages, codes are part of the API contract and safe to branch on.
func ErrorCode(err error) string {
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.apiCode
	}
	return ""
}

func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	c.stats.requests.Add(1)
	mRequests.Inc()
	c.stats.bytesSent.Add(int64(len(body)))
	start := time.Now()
	defer func() { mLatency.Observe(time.Since(start).Seconds()) }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Distributed tracing: a caller whose context carries an obs span gets
	// its identity stamped onto the wire, so the server's ingest spans
	// join the same trace (DESIGN.md §11).
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		var ra time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
		se := &httpStatusError{
			code:       resp.StatusCode,
			body:       string(bytes.TrimSpace(msg)),
			retryAfter: ra,
		}
		// v1 envelope failure: lift out the stable code and human message.
		if env, ok := decodeEnvelope(msg); ok && env.Error != nil {
			se.apiCode = env.Error.Code
			se.body = env.Error.Message
		}
		return se
	}
	if out == nil {
		return nil
	}
	return decodeBody(resp.Body, out)
}

// decodeEnvelope parses raw as a v1 envelope. ok is false when the body is
// not an envelope at all — non-JSON error text, or a legacy (pre-envelope)
// server's bare payload. Both the error path (once) and the success path
// (decodeBody) branch on this one decoder, so envelope handling cannot
// drift between them.
func decodeEnvelope(raw []byte) (env collectserver.Envelope, ok bool) {
	if json.Unmarshal(raw, &env) != nil {
		return collectserver.Envelope{}, false
	}
	return env, env.Error != nil || env.Data != nil
}

// decodeBody unwraps a v1 success envelope {"data": ...} into out, falling
// back to decoding the whole body for legacy (pre-envelope) servers. The
// fallback is deliberate: during a rollout the fleet's agents upgrade
// before every server does. TestLegacyResponseShapes pins this behavior;
// remove both together once no legacy server remains.
func decodeBody(r io.Reader, out any) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if env, ok := decodeEnvelope(raw); ok {
		if env.Error != nil {
			// A 2xx with an error envelope is a server bug, but don't
			// silently decode garbage into out.
			return fmt.Errorf("collectclient: error envelope on success status: %s: %s",
				env.Error.Code, env.Error.Message)
		}
		return json.Unmarshal(env.Data, out)
	}
	return json.Unmarshal(raw, out)
}

// Verify asks the server for an authentication decision: does this set of
// elementary fingerprints vouch for the claimed user? Stable failure codes
// surface through ErrorCode — "unknown_user" for a claim with no stored
// history, "verify_disabled" against a server running without -verify.
// The idempotency key reuses the submission scheme (content-derived, so a
// retried request carries the same key); verification decisions are pure
// functions of stored history, making the key advisory.
func (c *Client) Verify(ctx context.Context, userID string, samples []collectserver.VerifySample) (*verify.Decision, error) {
	req := collectserver.VerifyRequest{UserID: userID, Samples: samples}
	if c.idempotency {
		raw, _ := json.Marshal(samples) // strings only: it cannot fail
		req.IdempotencyKey = contentKey(userID, raw)
	}
	var d verify.Decision
	if err := c.do(ctx, http.MethodPost, "/api/v1/verify", req, &d); err != nil {
		return nil, fmt.Errorf("collectclient: verify: %w", err)
	}
	return &d, nil
}
