package collectserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/verify"
)

// decodeAPIError unwraps the v1 error envelope and returns the stable code.
func decodeAPIError(t *testing.T, body []byte) string {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("envelope decode: %v (%s)", err, body)
	}
	if env.Error == nil {
		t.Fatalf("expected error envelope, got: %s", body)
	}
	return env.Error.Code
}

func TestVerifyDisabled(t *testing.T) {
	f := newFixture(t, nil)
	resp, body := f.post(t, "/api/v1/verify", VerifyRequest{
		UserID: "u1", Samples: []VerifySample{{Vector: "DC", Hash: "aa"}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify without -verify: %d %s", resp.StatusCode, body)
	}
	if code := decodeAPIError(t, body); code != CodeVerifyDisabled {
		t.Errorf("error code = %q, want %q", code, CodeVerifyDisabled)
	}
	resp, err := http.Get(f.ts.URL + "/api/v1/analytics/verify")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable ||
		decodeAPIError(t, buf.Bytes()) != CodeVerifyDisabled {
		t.Errorf("analytics/verify without -verify: %d %s", resp.StatusCode, buf.Bytes())
	}
}

// TestVerifyFlow drives the full authentication path over HTTP: enroll via
// the real submission API, then accept a genuine claim, reject an
// impostor, and answer stable codes for the failure modes.
func TestVerifyFlow(t *testing.T) {
	var reg *obs.Registry
	f := newFixture(t, func(cfg *Config) {
		cfg.Verifier = verify.New(verify.Config{})
		// 1ns SLO: every decision counts as slow, pinning the counter pair
		// the watch verify-latency rule reads.
		cfg.VerifySLO = time.Nanosecond
		reg = cfg.Registry
	})
	tok := f.startSession(t, "alice")
	resp, body := f.post(t, "/api/v1/fingerprints", SubmitRequest{Token: tok, Records: []FPRecord{
		{Vector: "DC", Iteration: 0, Hash: "aa01"},
		{Vector: "FFT", Iteration: 0, Hash: "ff01"},
		{Vector: "Canvas", Iteration: 0, Hash: "cc01"}, // aux surface: not enrolled
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}

	// Genuine: the stored hashes under the same user accept with score 1.
	resp, body = f.post(t, "/api/v1/verify", VerifyRequest{UserID: "alice", Samples: []VerifySample{
		{Vector: "DC", Hash: "aa01"}, {Vector: "FFT", Hash: "ff01"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("genuine verify: %d %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-API-Version"); v != APIVersion {
		t.Errorf("X-API-Version = %q", v)
	}
	var d verify.Decision
	decodeData(t, body, &d)
	if !d.Accept || d.Score != 1 || d.UserID != "alice" || len(d.Vectors) != 2 {
		t.Errorf("genuine decision = %+v", d)
	}

	// Impostor: unknown hashes under alice's name reject with score 0.
	resp, body = f.post(t, "/api/v1/verify", VerifyRequest{UserID: "alice", Samples: []VerifySample{
		{Vector: "DC", Hash: "bb99"}, {Vector: "FFT", Hash: "ee99"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("impostor verify: %d %s", resp.StatusCode, body)
	}
	decodeData(t, body, &d)
	if d.Accept || d.Score != 0 {
		t.Errorf("impostor decision = %+v", d)
	}

	// Unknown user → 404 unknown_user.
	resp, body = f.post(t, "/api/v1/verify", VerifyRequest{
		UserID: "mallory", Samples: []VerifySample{{Vector: "DC", Hash: "aa01"}}})
	if resp.StatusCode != http.StatusNotFound || decodeAPIError(t, body) != CodeUnknownUser {
		t.Errorf("unknown user: %d %s", resp.StatusCode, body)
	}

	// Malformed payloads → 400 bad_request.
	for _, req := range []VerifyRequest{
		{Samples: []VerifySample{{Vector: "DC", Hash: "aa01"}}}, // no user_id
		{UserID: "alice"}, // no samples
	} {
		resp, body = f.post(t, "/api/v1/verify", req)
		if resp.StatusCode != http.StatusBadRequest || decodeAPIError(t, body) != CodeBadRequest {
			t.Errorf("malformed %+v: %d %s", req, resp.StatusCode, body)
		}
	}

	// Invalid sample content → 422 invalid_record.
	for _, bad := range []VerifySample{
		{Vector: "NotAVector", Hash: "aa01"},
		{Vector: "Shaper", Hash: "aa01"}, // outside the paper's seven
		{Vector: "DC", Hash: "UPPERCASE"},
	} {
		resp, body = f.post(t, "/api/v1/verify",
			VerifyRequest{UserID: "alice", Samples: []VerifySample{bad}})
		if resp.StatusCode != http.StatusUnprocessableEntity || decodeAPIError(t, body) != CodeInvalidRecord {
			t.Errorf("invalid sample %+v: %d %s", bad, resp.StatusCode, body)
		}
	}

	// Analytics route reflects the decisions (2 scored + 1 unknown).
	resp, err := http.Get(f.ts.URL + "/api/v1/analytics/verify")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	var st verify.StatsSnapshot
	decodeData(t, buf.Bytes(), &st)
	if st.Users != 1 || st.Accepted != 1 || st.Rejected != 1 || st.UnknownUsers != 1 {
		t.Errorf("verify stats = %+v", st)
	}
	if st.Threshold != verify.DefaultThreshold {
		t.Errorf("threshold = %v", st.Threshold)
	}

	// Server-side latency counters: 3 decisions reached the engine, and the
	// 1ns SLO marks all of them slow.
	var mbuf strings.Builder
	if _, err := reg.WriteTo(&mbuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fpserver_verify_requests_total 3",
		"fpserver_verify_slow_total 3",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCatalog pins the machine-readable surface of GET /api/v1: it must
// mirror the route table exactly and every cataloged route must actually
// be mounted (anything unregistered would 404).
func TestCatalog(t *testing.T) {
	f := newFixture(t, nil)
	resp, err := http.Get(f.ts.URL + "/api/v1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog: %d %s", resp.StatusCode, buf.Bytes())
	}
	var cat CatalogResponse
	decodeData(t, buf.Bytes(), &cat)
	if cat.APIVersion != APIVersion {
		t.Errorf("api_version = %q", cat.APIVersion)
	}
	if len(cat.Routes) != len(routeTable()) {
		t.Fatalf("catalog has %d routes, table has %d", len(cat.Routes), len(routeTable()))
	}

	byPath := map[string]Route{}
	for _, rt := range cat.Routes {
		byPath[rt.Method+" "+rt.Path] = rt
	}
	vr, ok := byPath["POST /api/v1/verify"]
	if !ok || vr.Feature != "verify" || !vr.Envelope {
		t.Fatalf("verify route entry = %+v", vr)
	}
	for _, code := range []string{CodeUnknownUser, CodeVerifyDisabled, CodeBadRequest} {
		found := false
		for _, c := range vr.ErrorCodes {
			found = found || c == code
		}
		if !found {
			t.Errorf("verify route missing error code %q: %v", code, vr.ErrorCodes)
		}
	}

	// Drift check: every cataloged route answers something other than 404
	// under its own method (the mux 404s unregistered patterns).
	for _, rt := range cat.Routes {
		req, err := http.NewRequest(rt.Method, f.ts.URL+rt.Path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if rt.Method == "POST" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("cataloged route %s %s answers %d — not mounted?",
				rt.Method, rt.Path, resp.StatusCode)
		}
	}
}
