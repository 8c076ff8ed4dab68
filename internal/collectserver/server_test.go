package collectserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/storage"
)

type fixture struct {
	srv   *Server
	ts    *httptest.Server
	store *storage.Store
	now   time.Time
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	st, err := storage.Open(filepath.Join(t.TempDir(), "fp.ndjson"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{store: st, now: time.Unix(1616284800, 0)} // study start
	cfg := Config{
		Store:      st,
		AdminToken: "admin-secret",
		Now:        func() time.Time { return f.now },
		// Per-test registry so metric assertions never see counts from
		// other tests sharing obs.Default.
		Registry: obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	f.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() { f.ts.Close(); st.Close() })
	return f
}

func (f *fixture) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// decodeData unwraps the v1 success envelope {"data": ...} into dst and
// fails the test on a missing envelope or an error payload.
func decodeData(t *testing.T, body []byte, dst any) {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("envelope decode: %v (%s)", err, body)
	}
	if env.Error != nil {
		t.Fatalf("unexpected API error %s: %s", env.Error.Code, env.Error.Message)
	}
	if env.Data == nil {
		t.Fatalf("response has no data envelope: %s", body)
	}
	if err := json.Unmarshal(env.Data, dst); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) startSession(t *testing.T, user string) string {
	t.Helper()
	resp, body := f.post(t, "/api/v1/sessions",
		NewSessionRequest{UserID: user, UserAgent: "TestUA/1.0", Consent: true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-API-Version"); v != APIVersion {
		t.Fatalf("X-API-Version = %q, want %q", v, APIVersion)
	}
	var out NewSessionResponse
	decodeData(t, body, &out)
	return out.Token
}

func validRecord(it int) FPRecord {
	return FPRecord{Vector: "DC", Iteration: it, Hash: "deadbeef00", Sum: 12.5}
}

func TestHealthAndStudy(t *testing.T) {
	f := newFixture(t, nil)
	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Get(f.ts.URL + "/api/v1/study")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	var info StudyInfo
	decodeData(t, buf.Bytes(), &info)
	if len(info.Vectors) != 7 || info.Iterations != 30 {
		t.Errorf("study info = %+v", info)
	}
	if !strings.Contains(info.Consent, "consent") {
		t.Error("consent text missing")
	}
}

func TestConsentRequired(t *testing.T) {
	f := newFixture(t, nil)
	resp, body := f.post(t, "/api/v1/sessions",
		NewSessionRequest{UserID: "u1", Consent: false})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("no-consent session: %d %s", resp.StatusCode, body)
	}
	resp, _ = f.post(t, "/api/v1/sessions", NewSessionRequest{Consent: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user_id: %d", resp.StatusCode)
	}
}

func TestSubmitFlow(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.startSession(t, "u1")

	recs := []FPRecord{validRecord(0), {Vector: "FFT", Iteration: 0, Hash: "cafe01"}}
	resp, body := f.post(t, "/api/v1/fingerprints", SubmitRequest{Token: tok, Records: recs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var out SubmitResponse
	decodeData(t, body, &out)
	if out.Accepted != 2 || out.Total != 2 {
		t.Errorf("submit response = %+v", out)
	}

	stored, err := f.store.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 2 {
		t.Fatalf("stored %d records", len(stored))
	}
	if stored[0].UserID != "u1" || stored[0].UserAgent != "TestUA/1.0" {
		t.Errorf("record enrichment wrong: %+v", stored[0])
	}
	if !stored[0].ReceivedAt.Equal(f.now.UTC()) {
		t.Errorf("timestamp = %v, want %v", stored[0].ReceivedAt, f.now.UTC())
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.MaxBatch = 3; c.MaxIterations = 30 })
	tok := f.startSession(t, "u1")

	cases := []struct {
		name string
		req  SubmitRequest
		code int
	}{
		{"bad token", SubmitRequest{Token: "nope", Records: []FPRecord{validRecord(0)}}, http.StatusUnauthorized},
		{"empty batch", SubmitRequest{Token: tok}, http.StatusBadRequest},
		{"oversized batch", SubmitRequest{Token: tok, Records: []FPRecord{
			validRecord(0), validRecord(1), validRecord(2), validRecord(3)}}, http.StatusRequestEntityTooLarge},
		{"unknown vector", SubmitRequest{Token: tok, Records: []FPRecord{
			{Vector: "Telepathy", Iteration: 0, Hash: "aa"}}}, http.StatusUnprocessableEntity},
		// Vector names outside the paper's seven.
		{"vector Biquad Sweep", SubmitRequest{Token: tok, Records: []FPRecord{
			{Vector: "Biquad Sweep", Iteration: 0, Hash: "aa"}}}, http.StatusUnprocessableEntity},
		{"vector Shaper", SubmitRequest{Token: tok, Records: []FPRecord{
			{Vector: "Shaper", Iteration: 0, Hash: "aa"}}}, http.StatusUnprocessableEntity},
		{"iteration out of range", SubmitRequest{Token: tok, Records: []FPRecord{
			{Vector: "DC", Iteration: 30, Hash: "aa"}}}, http.StatusUnprocessableEntity},
		{"non-hex hash", SubmitRequest{Token: tok, Records: []FPRecord{
			{Vector: "DC", Iteration: 0, Hash: "XYZ!"}}}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, body := f.post(t, "/api/v1/fingerprints", c.req)
		if resp.StatusCode != c.code {
			t.Errorf("%s: got %d (%s), want %d", c.name, resp.StatusCode, body, c.code)
		}
	}
	if f.store.Count() != 0 {
		t.Errorf("rejected submissions persisted: %d", f.store.Count())
	}
}

func TestValidateHash(t *testing.T) {
	const notHex = "hash is not lowercase hex"
	for _, c := range []struct{ hash, err string }{
		{"", "hash length 0 out of range"},
		{"0123456789abcdef", ""},
		{strings.Repeat("f", 128), ""},
		{strings.Repeat("f", 129), "hash length 129 out of range"},
		{"ABCDEF", notHex},
		{"0a/", notHex}, // the bytes either side of 0-9 and a-f
		{"0a:", notHex},
		{"0a`", notHex},
		{"0ag", notHex},
		{"ab\u00e9", notHex},
		{"ab\xff", notHex},
	} {
		got := ""
		if err := validateHash(c.hash); err != nil {
			got = err.Error()
		}
		if got != c.err {
			t.Errorf("validateHash(%q) = %q, want %q", c.hash, got, c.err)
		}
	}
}

func TestAuxiliaryVectorNamesAccepted(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.startSession(t, "u1")
	for _, v := range []string{"MathJS", "Canvas", "Fonts", "UserAgent", "Hybrid", "Merged Signals"} {
		resp, body := f.post(t, "/api/v1/fingerprints", SubmitRequest{
			Token: tok, Records: []FPRecord{{Vector: v, Iteration: 0, Hash: "00ff"}}})
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("vector %q rejected: %d %s", v, resp.StatusCode, body)
		}
	}
}

func TestSessionExpiry(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.SessionTTL = time.Minute })
	tok := f.startSession(t, "u1")
	f.now = f.now.Add(2 * time.Minute)
	resp, _ := f.post(t, "/api/v1/fingerprints",
		SubmitRequest{Token: tok, Records: []FPRecord{validRecord(0)}})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("expired session accepted: %d", resp.StatusCode)
	}
}

func TestSessionQuota(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.MaxRecordsPerSession = 2 })
	tok := f.startSession(t, "u1")
	resp, _ := f.post(t, "/api/v1/fingerprints",
		SubmitRequest{Token: tok, Records: []FPRecord{validRecord(0), validRecord(1)}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ = f.post(t, "/api/v1/fingerprints",
		SubmitRequest{Token: tok, Records: []FPRecord{validRecord(2)}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("quota not enforced: %d", resp.StatusCode)
	}
}

// TestSessionQuotaIgnoresRejectedBatch: a batch rejected as invalid stores
// nothing, so it spends none of the session's quota.
func TestSessionQuotaIgnoresRejectedBatch(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.MaxRecordsPerSession = 2 })
	tok := f.startSession(t, "u1")
	bad := FPRecord{Vector: "Telepathy", Iteration: 0, Hash: "aa"}
	resp, body := f.post(t, "/api/v1/fingerprints",
		SubmitRequest{Token: tok, Records: []FPRecord{bad, bad}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid batch: %d %s", resp.StatusCode, body)
	}
	resp, body = f.post(t, "/api/v1/fingerprints",
		SubmitRequest{Token: tok, Records: []FPRecord{validRecord(0), validRecord(1)}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid batch after a rejected one: %d %s", resp.StatusCode, body)
	}
	var out SubmitResponse
	decodeData(t, body, &out)
	if out.Total != 2 || f.store.Count() != 2 {
		t.Errorf("total_for_session = %d, stored %d, want 2 and 2", out.Total, f.store.Count())
	}
}

// failingStore is a real store whose Append fails while fail is set.
type failingStore struct {
	*storage.Store
	fail atomic.Bool
}

func (s *failingStore) Append(recs ...storage.Record) error {
	if s.fail.Load() {
		return errors.New("disk full")
	}
	return s.Store.Append(recs...)
}

// TestSessionQuotaReleasedOnStoreFailure: a batch the store fails to append,
// and each idempotent retry of it, gives its quota reservation back.
func TestSessionQuotaReleasedOnStoreFailure(t *testing.T) {
	var fs *failingStore
	f := newFixture(t, func(c *Config) {
		c.MaxRecordsPerSession = 2
		fs = &failingStore{Store: c.Store.(*storage.Store)}
		c.Store = fs
	})
	tok := f.startSession(t, "u1")
	req := SubmitRequest{
		Token:          tok,
		Records:        []FPRecord{validRecord(0), validRecord(1)},
		IdempotencyKey: "batch-0001",
	}
	fs.fail.Store(true)
	for attempt := 0; attempt < 2; attempt++ {
		resp, body := f.post(t, "/api/v1/fingerprints", req)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d on a failing store: %d %s", attempt, resp.StatusCode, body)
		}
	}
	fs.fail.Store(false)
	resp, body := f.post(t, "/api/v1/fingerprints", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after the store recovered: %d %s", resp.StatusCode, body)
	}
	var out SubmitResponse
	decodeData(t, body, &out)
	if out.Total != 2 || f.store.Count() != 2 {
		t.Errorf("total_for_session = %d, stored %d, want 2 and 2", out.Total, f.store.Count())
	}
}

func TestStats(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.startSession(t, "u1")
	f.post(t, "/api/v1/fingerprints", SubmitRequest{Token: tok, Records: []FPRecord{
		validRecord(0), {Vector: "FFT", Iteration: 0, Hash: "aa"}, {Vector: "FFT", Iteration: 1, Hash: "ab"},
	}})
	resp, err := http.Get(f.ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	var stats StatsResponse
	decodeData(t, buf.Bytes(), &stats)
	if stats.Records != 3 || stats.Users != 1 || stats.PerVector["FFT"] != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestStatsVectorFilter(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.startSession(t, "u1")
	f.post(t, "/api/v1/fingerprints", SubmitRequest{Token: tok, Records: []FPRecord{
		validRecord(0), {Vector: "FFT", Iteration: 0, Hash: "aa"}, {Vector: "FFT", Iteration: 1, Hash: "ab"},
	}})

	// Regression: handleStats used to ignore its *http.Request entirely, so
	// ?vector= silently returned global counts.
	resp, err := http.Get(f.ts.URL + "/api/v1/stats?vector=FFT")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	var stats StatsResponse
	decodeData(t, buf.Bytes(), &stats)
	if stats.Records != 2 || stats.Users != 1 || stats.Vector != "FFT" {
		t.Errorf("filtered stats = %+v", stats)
	}
	if len(stats.PerVector) != 1 || stats.PerVector["FFT"] != 2 {
		t.Errorf("filtered per_vector = %+v", stats.PerVector)
	}

	// A known vector with no records yet is an empty result, not an error.
	resp, err = http.Get(f.ts.URL + "/api/v1/stats?vector=AM")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty known vector: %d %s", resp.StatusCode, buf.Bytes())
	}
	stats = StatsResponse{}
	decodeData(t, buf.Bytes(), &stats)
	if stats.Records != 0 || stats.Vector != "AM" {
		t.Errorf("empty-vector stats = %+v", stats)
	}

	// A vector name that can never exist is a client bug: bad_request.
	resp, err = http.Get(f.ts.URL + "/api/v1/stats?vector=Telepathy")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown vector filter: %d", resp.StatusCode)
	}
	var env Envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("unknown vector body = %s", buf.Bytes())
	}
	if env.Error.Code != CodeBadRequest {
		t.Errorf("error code = %q, want %q", env.Error.Code, CodeBadRequest)
	}
}

func TestExportAuth(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.startSession(t, "u1")
	f.post(t, "/api/v1/fingerprints", SubmitRequest{Token: tok, Records: []FPRecord{validRecord(0)}})

	// No token.
	resp, err := http.Get(f.ts.URL + "/api/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated export: %d", resp.StatusCode)
	}

	// Wrong token.
	req, _ := http.NewRequest(http.MethodGet, f.ts.URL+"/api/v1/export", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong-token export: %d", resp.StatusCode)
	}

	// Right token streams NDJSON.
	req.Header.Set("Authorization", "Bearer admin-secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("export content type %q", ct)
	}
	if !strings.Contains(buf.String(), `"user_id":"u1"`) {
		t.Errorf("export missing record: %q", buf.String())
	}
}

func TestExportDisabledWithoutAdminToken(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.AdminToken = "" })
	resp, err := http.Get(f.ts.URL + "/api/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("export without admin token configured: %d", resp.StatusCode)
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	f := newFixture(t, nil)
	resp, err := http.Post(f.ts.URL+"/api/v1/sessions", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d", resp.StatusCode)
	}
	resp, err = http.Post(f.ts.URL+"/api/v1/sessions", "text/plain", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong content type: %d", resp.StatusCode)
	}
}

func TestSessionGC(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.SessionTTL = time.Minute })
	for i := 0; i < 5; i++ {
		f.startSession(t, fmt.Sprintf("u%d", i))
	}
	if got := f.srv.ActiveSessions(); got != 5 {
		t.Fatalf("active sessions = %d", got)
	}
	f.now = f.now.Add(3 * time.Minute)
	f.startSession(t, "u-new") // triggers GC
	if got := f.srv.ActiveSessions(); got != 1 {
		t.Errorf("after GC: %d sessions, want 1", got)
	}
}

// TestSessionSweepOncePerTTL: a new session sweeps expired ones only when
// a TTL has passed since the last sweep. In between, an expired session
// stays in the table, but ActiveSessions leaves it out and its token is
// refused.
func TestSessionSweepOncePerTTL(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.SessionTTL = time.Minute })
	t0 := f.now
	at := func(d time.Duration) { f.now = t0.Add(d) }
	held := func() int {
		f.srv.mu.Lock()
		defer f.srv.mu.Unlock()
		return len(f.srv.sessions)
	}

	a := f.startSession(t, "a") // sweeps the empty table at t0
	at(30 * time.Second)
	b := f.startSession(t, "b")
	at(61 * time.Second)
	f.startSession(t, "c") // a TTL since t0: sweeps, dropping a
	if got := held(); got != 2 {
		t.Fatalf("after the sweep at 61s: %d sessions held, want 2 (b, c)", got)
	}

	at(100 * time.Second) // b expired at 90s; the last sweep was 39s ago
	f.startSession(t, "d")
	if got := held(); got != 3 {
		t.Errorf("at 100s: %d sessions held, want 3 (b not swept yet)", got)
	}
	if got := f.srv.ActiveSessions(); got != 2 {
		t.Errorf("at 100s: ActiveSessions = %d, want 2 (c, d)", got)
	}
	for _, tok := range []string{a, b} {
		resp, body := f.post(t, "/api/v1/fingerprints", SubmitRequest{Token: tok, Records: []FPRecord{validRecord(0)}})
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("expired token: %d %s, want 401", resp.StatusCode, body)
		}
	}

	at(130 * time.Second) // a TTL since the sweep at 61s: c (idle 69s) goes
	f.startSession(t, "e")
	if got, active := held(), f.srv.ActiveSessions(); got != 2 || active != 2 {
		t.Errorf("after the sweep at 130s: %d held, %d active, want 2 and 2 (d, e)", got, active)
	}
}

// TestSessionUserAgentShared: sessions whose requests carry equal
// User-Agents keep one string, not one decoded copy each, and the
// once-per-TTL sweep drops the table, so a later session keeps its own.
func TestSessionUserAgentShared(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.SessionTTL = time.Minute })
	t0 := f.now
	ua := func(tok string) *byte {
		f.srv.mu.Lock()
		defer f.srv.mu.Unlock()
		s := f.srv.sessions[tok].userAgent
		if s != "TestUA/1.0" {
			t.Fatalf("session User-Agent = %q", s)
		}
		return unsafe.StringData(s)
	}
	f.startSession(t, "a") // sweeps the empty table at t0
	shared := ua(f.startSession(t, "b"))
	f.now = t0.Add(30 * time.Second)
	if ua(f.startSession(t, "c")) != shared {
		t.Fatal("two sessions with one User-Agent hold separate strings")
	}

	f.now = t0.Add(61 * time.Second)
	if ua(f.startSession(t, "d")) != shared { // a TTL since t0: sweeps
		t.Error("the session that sweeps did not share the table's string")
	}
	f.srv.uaMu.Lock()
	held := len(f.srv.uas)
	f.srv.uaMu.Unlock()
	if held != 0 {
		t.Errorf("after the sweep the User-Agent table holds %d entries, want 0", held)
	}
	if ua(f.startSession(t, "e")) == shared {
		t.Error("a session created after the sweep shares a string the dropped table held")
	}
}

func TestNewRequiresStore(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without store succeeded")
	}
}
