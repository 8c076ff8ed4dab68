package collectclient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collectserver"
	"repro/internal/storage"
	"repro/internal/verify"
)

// realServer spins up a genuine collectserver for end-to-end client tests.
func realServer(t *testing.T) (*httptest.Server, *storage.Store) {
	t.Helper()
	st, err := storage.Open(filepath.Join(t.TempDir(), "fp.ndjson"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collectserver.New(collectserver.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })
	return ts, st
}

func TestEndToEndSubmission(t *testing.T) {
	ts, st := realServer(t)
	c := New(ts.URL)
	ctx := context.Background()

	info, err := c.StudyInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Vectors) != 7 {
		t.Errorf("study vectors = %v", info.Vectors)
	}

	sess, err := c.StartSession(ctx, "participant-1", "UA/1.0")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Token == "" || sess.ID == "" {
		t.Fatalf("session = %+v", sess)
	}

	recs := []collectserver.FPRecord{
		{Vector: "DC", Iteration: 0, Hash: "aa11"},
		{Vector: "FFT", Iteration: 0, Hash: "bb22"},
	}
	if err := sess.Submit(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if st.Count() != 2 {
		t.Errorf("server stored %d records", st.Count())
	}
	// Empty submit is a no-op.
	if err := sess.Submit(ctx, nil); err != nil {
		t.Errorf("empty submit: %v", err)
	}
}

func TestSubmitChunked(t *testing.T) {
	ts, st := realServer(t)
	c := New(ts.URL)
	sess, err := c.StartSession(context.Background(), "p1", "UA")
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]collectserver.FPRecord, 210) // the study's per-user volume
	for i := range recs {
		recs[i] = collectserver.FPRecord{Vector: "DC", Iteration: i % 30, Hash: "cc33"}
	}
	if err := sess.SubmitChunked(context.Background(), recs, 64); err != nil {
		t.Fatal(err)
	}
	if st.Count() != 210 {
		t.Errorf("stored %d records, want 210", st.Count())
	}
}

// TestRetriesOn5xx: transient server errors are retried until success.
func TestRetriesOn5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"session_id":"s-1","token":"tok"}`))
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	sess, err := c.StartSession(context.Background(), "u", "ua")
	if err != nil {
		t.Fatalf("expected success after retries: %v", err)
	}
	if sess.Token != "tok" {
		t.Errorf("token = %q", sess.Token)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server called %d times, want 3", got)
	}
}

// TestNoRetryOn4xx: client errors fail immediately.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(5), WithBackoff(time.Millisecond))
	if _, err := c.StartSession(context.Background(), "u", "ua"); err == nil {
		t.Fatal("expected error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("4xx retried: %d calls", got)
	}
}

// TestRetryBudgetExhausted: persistent failures surface after the budget.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond))
	if _, err := c.StartSession(context.Background(), "u", "ua"); err == nil {
		t.Fatal("expected failure")
	}
	if got := calls.Load(); got != 3 { // initial + 2 retries
		t.Errorf("calls = %d, want 3", got)
	}
}

// TestContextCancellation: a cancelled context aborts during backoff.
func TestContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(10), WithBackoff(time.Hour))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.StartSession(ctx, "u", "ua")
	if err == nil {
		t.Fatal("expected error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v — backoff not interruptible", elapsed)
	}
}

// TestSubmitAcceptanceMismatch: a lying server is detected.
func TestSubmitAcceptanceMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"accepted":1,"total_for_session":1}`))
	}))
	defer ts.Close()

	sess := &Session{ID: "s", Token: "t", c: New(ts.URL, WithRetries(0), WithBackoff(time.Millisecond))}
	err := sess.Submit(context.Background(), []collectserver.FPRecord{
		{Vector: "DC", Iteration: 0, Hash: "aa"},
		{Vector: "DC", Iteration: 1, Hash: "bb"},
	})
	if err == nil {
		t.Error("partial acceptance went unnoticed")
	}
}

// TestTelemetrySnapshot: the client's own counters track attempts, retries,
// backoff sleep and bytes sent.
func TestTelemetrySnapshot(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"session_id":"s-1","token":"tok"}`))
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if _, err := c.StartSession(context.Background(), "u", "ua"); err != nil {
		t.Fatalf("expected success after retries: %v", err)
	}
	tel := c.Telemetry()
	if tel.Requests != 3 {
		t.Errorf("Requests = %d, want 3", tel.Requests)
	}
	if tel.Retries != 2 {
		t.Errorf("Retries = %d, want 2", tel.Retries)
	}
	if tel.Failures != 0 {
		t.Errorf("Failures = %d, want 0", tel.Failures)
	}
	if tel.BackoffTotal <= 0 {
		t.Errorf("BackoffTotal = %v, want > 0", tel.BackoffTotal)
	}
	if tel.BytesSent <= 0 {
		t.Errorf("BytesSent = %d, want > 0", tel.BytesSent)
	}

	// A terminal failure increments Failures exactly once.
	down := httptest.NewServer(http.NotFoundHandler())
	defer down.Close()
	bad := New(down.URL, WithRetries(0), WithBackoff(time.Millisecond))
	if _, err := bad.StartSession(context.Background(), "u", "ua"); err == nil {
		t.Fatal("expected failure")
	}
	if f := bad.Telemetry().Failures; f != 1 {
		t.Errorf("Failures = %d, want 1", f)
	}
}

// TestSubmitWireBytes pins Submit's request body and idempotency key to
// json.Marshal of collectserver.SubmitRequest, with the key hashed over
// the records' own encoding.
func TestSubmitWireBytes(t *testing.T) {
	records := []collectserver.FPRecord{
		{Vector: "DC", Iteration: 0, Hash: "aa"},
		{Vector: "Hybrid", Iteration: 7, Hash: "0f1e", Sum: 35.10893253237009,
			Surfaces: map[string]string{"fonts": "<a&b>", "canvas": "c\u2028\xff"}},
		{Vector: "FM", Iteration: 1, Hash: "ff", Sum: -1e-7},
	}
	bodies := make(chan []byte, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies <- body
		io.WriteString(w, `{"accepted":3,"total_for_session":3}`)
	}))
	defer ts.Close()
	const token = "tok<1>"
	s := &Session{ID: "s1", Token: token, c: New(ts.URL, WithRetries(0))}
	if err := s.Submit(context.Background(), records); err != nil {
		t.Fatal(err)
	}
	encoded, err := json.Marshal(records)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append([]byte(token+"\x00"), encoded...))
	want, err := json.Marshal(collectserver.SubmitRequest{Token: token, Records: records,
		IdempotencyKey: hex.EncodeToString(sum[:16])})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-bodies; !bytes.Equal(got, want) {
		t.Errorf("request body\n got %s\nwant %s", got, want)
	}
}

// TestLegacyResponseShapes is the deprecation test for pre-envelope
// servers: the client must decode both the v1 {"data":...} envelope and
// the legacy flat body, and must lift stable error codes out of v1
// failures while tolerating legacy {"error":"text"} ones. Delete this
// test together with decodeBody's fallback once no legacy server remains.
func TestLegacyResponseShapes(t *testing.T) {
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/api/v1/sessions":
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, `{"session_id":"s1","token":"t1"}`)
		case "/api/v1/fingerprints":
			w.WriteHeader(http.StatusUnauthorized)
			io.WriteString(w, `{"error":"unknown or expired session token"}`)
		}
	}))
	defer legacy.Close()

	ctx := context.Background()
	c := New(legacy.URL, WithRetries(0))
	sess, err := c.StartSession(ctx, "u1", "UA/1.0")
	if err != nil {
		t.Fatalf("legacy flat session body: %v", err)
	}
	if sess.Token != "t1" || sess.ID != "s1" {
		t.Errorf("legacy session = %+v", sess)
	}
	err = sess.Submit(ctx, []collectserver.FPRecord{{Vector: "DC", Iteration: 0, Hash: "aa"}})
	if StatusCode(err) != http.StatusUnauthorized {
		t.Fatalf("legacy error: %v", err)
	}
	if ErrorCode(err) != "" {
		t.Errorf("legacy error carried a v1 code: %q", ErrorCode(err))
	}

	// The same calls against a v1 server must surface the stable code.
	ts, _ := realServer(t)
	c = New(ts.URL, WithRetries(0))
	sess, err = c.StartSession(ctx, "u1", "UA/1.0")
	if err != nil {
		t.Fatal(err)
	}
	bad := &Session{ID: sess.ID, Token: "wrong", c: c}
	err = bad.Submit(ctx, []collectserver.FPRecord{{Vector: "DC", Iteration: 0, Hash: "aa"}})
	if StatusCode(err) != http.StatusUnauthorized {
		t.Fatalf("v1 error: %v", err)
	}
	if got := ErrorCode(err); got != collectserver.CodeUnauthorized {
		t.Errorf("v1 error code = %q, want %q", got, collectserver.CodeUnauthorized)
	}
}

// TestVerifyEndToEnd drives the authentication path through the SDK:
// enroll via Submit, then Verify a genuine claim, an impostor claim, and
// the stable failure codes.
func TestVerifyEndToEnd(t *testing.T) {
	st, err := storage.Open(filepath.Join(t.TempDir(), "fp.ndjson"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collectserver.New(collectserver.Config{
		Store:    st,
		Verifier: verify.New(verify.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })

	c := New(ts.URL)
	ctx := context.Background()
	sess, err := c.StartSession(ctx, "alice", "UA/1.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(ctx, []collectserver.FPRecord{
		{Vector: "DC", Iteration: 0, Hash: "aa11"},
		{Vector: "FFT", Iteration: 0, Hash: "bb22"},
	}); err != nil {
		t.Fatal(err)
	}

	d, err := c.Verify(ctx, "alice", []collectserver.VerifySample{
		{Vector: "DC", Hash: "aa11"}, {Vector: "FFT", Hash: "bb22"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accept || d.Score != 1 {
		t.Errorf("genuine decision = %+v", d)
	}

	d, err = c.Verify(ctx, "alice", []collectserver.VerifySample{
		{Vector: "DC", Hash: "9999"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accept || d.Score != 0 {
		t.Errorf("impostor decision = %+v", d)
	}

	// Unknown user: a 404 with the stable code, not retried.
	_, err = c.Verify(ctx, "mallory", []collectserver.VerifySample{{Vector: "DC", Hash: "aa11"}})
	if ErrorCode(err) != "unknown_user" || StatusCode(err) != http.StatusNotFound {
		t.Errorf("unknown user: code=%q status=%d err=%v", ErrorCode(err), StatusCode(err), err)
	}
}

// TestVerifyDisabledCode: a server without -verify answers the stable
// verify_disabled code through ErrorCode.
func TestVerifyDisabledCode(t *testing.T) {
	ts, _ := realServer(t)
	c := New(ts.URL, WithRetries(0)) // 503 is retryable; don't wait it out
	_, err := c.Verify(context.Background(), "alice",
		[]collectserver.VerifySample{{Vector: "DC", Hash: "aa11"}})
	if ErrorCode(err) != "verify_disabled" {
		t.Errorf("disabled verify: code=%q err=%v", ErrorCode(err), err)
	}
}
