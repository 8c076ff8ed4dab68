package collectserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestIdempotentReplay(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.startSession(t, "u1")
	req := SubmitRequest{
		Token:          tok,
		Records:        []FPRecord{validRecord(0), validRecord(1)},
		IdempotencyKey: "batch-0001",
	}
	resp, body := f.post(t, "/api/v1/fingerprints", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	var first SubmitResponse
	json.Unmarshal(body, &first)

	// The retry (same key) must replay the ack without re-storing.
	resp, body = f.post(t, "/api/v1/fingerprints", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("replayed submit: %d %s", resp.StatusCode, body)
	}
	var second SubmitResponse
	json.Unmarshal(body, &second)
	if first != second {
		t.Errorf("replay ack %+v differs from original %+v", second, first)
	}
	if got := f.store.Count(); got != 2 {
		t.Errorf("store has %d records after replay, want 2", got)
	}

	// A different key is a genuinely new batch.
	req.IdempotencyKey = "batch-0002"
	resp, _ = f.post(t, "/api/v1/fingerprints", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second batch: %d", resp.StatusCode)
	}
	if got := f.store.Count(); got != 4 {
		t.Errorf("store has %d records, want 4", got)
	}

	exp := scrapeMetrics(t, f)
	if got := sampleValue(exp, "fpserver_idempotent_replays_total", nil); got != 1 {
		t.Errorf("fpserver_idempotent_replays_total = %v, want 1", got)
	}
}

func TestIdempotencyWindowEviction(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.IdempotencyWindow = 2 })
	tok := f.startSession(t, "u1")
	submit := func(key string, it int) {
		t.Helper()
		resp, body := f.post(t, "/api/v1/fingerprints", SubmitRequest{
			Token: tok, Records: []FPRecord{validRecord(it)}, IdempotencyKey: key,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", key, resp.StatusCode, body)
		}
	}
	submit("k1", 0)
	submit("k2", 1)
	submit("k3", 2) // evicts k1
	submit("k1", 3) // no longer cached: stores again
	if got := f.store.Count(); got != 4 {
		t.Errorf("store has %d records, want 4 (k1 evicted and re-accepted)", got)
	}
	submit("k1", 3) // now cached: replayed
	if got := f.store.Count(); got != 4 {
		t.Errorf("store has %d records after replay, want 4", got)
	}
}

func TestSubmitRateLimitSheds(t *testing.T) {
	// Frozen clock: the bucket starts at burst (2×rate) and never refills,
	// so the third submission must be shed with 429 + Retry-After.
	f := newFixture(t, func(c *Config) { c.SubmitRatePerSec = 1 })
	tok := f.startSession(t, "u1")
	var last *http.Response
	codes := []int{}
	for i := 0; i < 3; i++ {
		resp, _ := f.post(t, "/api/v1/fingerprints",
			SubmitRequest{Token: tok, Records: []FPRecord{validRecord(i)}})
		codes = append(codes, resp.StatusCode)
		last = resp
	}
	want := []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	if last.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := f.store.Count(); got != 2 {
		t.Errorf("store has %d records, want 2", got)
	}
	exp := scrapeMetrics(t, f)
	if got := sampleValue(exp, "fpserver_shed_total", map[string]string{"reason": "rate"}); got != 1 {
		t.Errorf("fpserver_shed_total{reason=rate} = %v, want 1", got)
	}
}

func TestOverloadShedding(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.MaxInFlight = 1 })

	// waitInFlight waits until n requests hold in-flight slots: probing
	// earlier lets a probe take the slot first and the slow request be
	// shed, or finds the slot not yet released.
	waitInFlight := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); len(f.srv.inflight) != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("in-flight requests = %d, want %d", len(f.srv.inflight), n)
			}
		}
	}

	// Occupy the single in-flight slot with a request whose body never
	// finishes arriving, then probe with a second request.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/api/v1/sessions", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitInFlight(1)

	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated server answered %d, want a 503 shed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	pw.Close()
	<-done

	// With the slot released, requests flow again.
	waitInFlight(0)
	resp, err = http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-overload request: %d", resp.StatusCode)
	}
	exp := scrapeMetrics(t, f)
	if got := sampleValue(exp, "fpserver_shed_total", map[string]string{"reason": "overload"}); got < 1 {
		t.Errorf("fpserver_shed_total{reason=overload} = %v, want ≥ 1", got)
	}
}

func TestRequestDeadlineOnContext(t *testing.T) {
	f := newFixture(t, nil)
	sawDeadline := false
	h := f.srv.withMiddleware(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !sawDeadline {
		t.Error("request context carries no deadline")
	}
}
