package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// postEnvelope POSTs req and returns the HTTP status plus the raw v1
// envelope halves, without failing on error statuses — verify tests assert
// on both.
func postEnvelope(t *testing.T, url string, req any) (status int, data json.RawMessage, errCode string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer r.Body.Close()
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	if env.Error != nil {
		errCode = env.Error.Code
	}
	return r.StatusCode, env.Data, errCode
}

// enrollUsers drives the real consent/session/submit API to store a fixed
// history: each user gets a stable per-user DC hash plus an FFT hash shared
// across the whole population (a fingerprint collision, like a default
// audio stack).
func enrollUsers(t *testing.T, base string, users []string) {
	t.Helper()
	for i, uid := range users {
		var sess struct {
			Token string `json:"token"`
		}
		postJSON(t, base+"/api/v1/sessions", map[string]any{
			"user_id": uid, "user_agent": "smoke", "consent": true,
		}, &sess)
		postJSON(t, base+"/api/v1/fingerprints", map[string]any{
			"token": sess.Token,
			"records": []map[string]any{
				{"vector": "DC", "iteration": 0, "hash": fmt.Sprintf("dc%02d", i)},
				{"vector": "FFT", "iteration": 0, "hash": "feedc0de"},
			},
		}, nil)
	}
}

// verifyProbes runs a fixed probe set against a running server and returns
// each probe's outcome as a comparable string (status + decision payload or
// error code).
func verifyProbes(t *testing.T, base string, users []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	probe := func(key, claimed string, samples []map[string]any) {
		status, data, code := postEnvelope(t, base+"/api/v1/verify", map[string]any{
			"user_id": claimed, "samples": samples,
		})
		out[key] = fmt.Sprintf("%d %s %s", status, code, data)
	}
	for i, uid := range users {
		// Genuine: the user's own stored hashes.
		probe("genuine/"+uid, uid, []map[string]any{
			{"vector": "DC", "hash": fmt.Sprintf("dc%02d", i)},
			{"vector": "FFT", "hash": "feedc0de"},
		})
		// Impostor: the next user's DC hash plus the shared FFT hash — a
		// partial collision that must score identically on every topology.
		probe("impostor/"+uid, uid, []map[string]any{
			{"vector": "DC", "hash": fmt.Sprintf("dc%02d", (i+1)%len(users))},
			{"vector": "FFT", "hash": "feedc0de"},
		})
	}
	probe("unknown", "nobody", []map[string]any{{"vector": "DC", "hash": "dc00"}})
	return out
}

// TestRunVerifySmoke boots `fpserver -verify`, enrolls history through the
// real submission API, and checks one accept, one reject, and the stable
// error codes — the ci.yml smoke in-process.
func TestRunVerifySmoke(t *testing.T) {
	store := filepath.Join(t.TempDir(), "fp.ndjson")
	base, logs, cancel, done := startServer(t, store, "-verify")
	users := []string{"alice", "bob"}
	enrollUsers(t, base, users)

	status, data, _ := postEnvelope(t, base+"/api/v1/verify", map[string]any{
		"user_id": "alice",
		"samples": []map[string]any{{"vector": "DC", "hash": "dc00"}, {"vector": "FFT", "hash": "feedc0de"}},
	})
	if status != http.StatusOK || !strings.Contains(string(data), `"accept":true`) {
		t.Errorf("genuine verify = %d %s", status, data)
	}
	status, data, _ = postEnvelope(t, base+"/api/v1/verify", map[string]any{
		"user_id": "alice",
		"samples": []map[string]any{{"vector": "DC", "hash": "9999"}, {"vector": "FFT", "hash": "8888"}},
	})
	if status != http.StatusOK || !strings.Contains(string(data), `"accept":false`) {
		t.Errorf("impostor verify = %d %s", status, data)
	}
	status, _, code := postEnvelope(t, base+"/api/v1/verify", map[string]any{
		"user_id": "nobody", "samples": []map[string]any{{"vector": "DC", "hash": "dc00"}},
	})
	if status != http.StatusNotFound || code != "unknown_user" {
		t.Errorf("unknown user = %d %q", status, code)
	}
	status, _, code = postEnvelope(t, base+"/api/v1/verify", map[string]any{
		"user_id": "alice", "samples": []map[string]any{},
	})
	if status != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("empty samples = %d %q", status, code)
	}

	// The analytics route reflects the decisions.
	resp, err := http.Get(base + "/api/v1/analytics/verify")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(body.String(), `"accepted":1`) ||
		!strings.Contains(body.String(), `"rejected":1`) {
		t.Errorf("analytics/verify = %d %s", resp.StatusCode, body.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down")
	}
	if !strings.Contains(logs.String(), "verify plane (1 shard(s))") {
		t.Errorf("verify bootstrap log missing:\n%s", logs.String())
	}

	// Restart over the same store: the history must bootstrap from disk and
	// keep answering the same accept.
	base, logs, cancel, done = startServer(t, store, "-verify")
	defer cancel()
	if !strings.Contains(logs.String(), "enrolled 2 users from 4 records") {
		t.Errorf("restart bootstrap log missing:\n%s", logs.String())
	}
	status, data, _ = postEnvelope(t, base+"/api/v1/verify", map[string]any{
		"user_id": "alice",
		"samples": []map[string]any{{"vector": "DC", "hash": "dc00"}, {"vector": "FFT", "hash": "feedc0de"}},
	})
	if status != http.StatusOK || !strings.Contains(string(data), `"accept":true`) {
		t.Errorf("restarted genuine verify = %d %s", status, data)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("restarted run returned %v\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("restarted server never shut down")
	}
}

// TestRunVerifyShardedDifferential: the binary-level acceptance gate — the
// same enrolled history answers byte-identical verification envelopes with
// -shards 1 and -shards 3, and with -shards 3 -analytics, where the verify
// plane interns through the interner the analytics plane shares.
func TestRunVerifyShardedDifferential(t *testing.T) {
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	runs := [][]string{
		{"-shards", "1", "-verify"},
		{"-shards", "3", "-verify"},
		{"-shards", "3", "-analytics", "-verify"},
	}
	results := make([]map[string]string, len(runs))
	for i, args := range runs {
		store := filepath.Join(t.TempDir(), "fp.ndjson")
		base, _, cancel, done := startServer(t, store, args...)
		enrollUsers(t, base, users)
		results[i] = verifyProbes(t, base, users)
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%v run returned %v", args, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server never shut down")
		}
	}
	for i, args := range runs[1:] {
		for key, want := range results[0] {
			if got := results[i+1][key]; got != want {
				t.Errorf("probe %s diverges:\n %v: %s\n %v: %s", key, runs[0], want, args, got)
			}
		}
	}
}

// TestRunVerifyCalibrationFlag: a sweep calibration file supplies the
// engine's threshold and is served back on the analytics route.
func TestRunVerifyCalibrationFlag(t *testing.T) {
	cal := filepath.Join(t.TempDir(), "cal.json")
	if err := os.WriteFile(cal, []byte(`{"calibration":{
		"points":[{"threshold":0,"far":1,"frr":0},{"threshold":0.6,"far":0.1,"frr":0.1}],
		"eer":0.1,"eer_threshold":0.6,"genuine_trials":10,"impostor_trials":10},
		"users":5,"epochs":4,"enroll_epochs":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "fp.ndjson")
	base, logs, cancel, done := startServer(t, store, "-verify", "-verify-calibration", cal)
	resp, err := http.Get(base + "/api/v1/analytics/verify")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), `"threshold":0.6`) ||
		!strings.Contains(body.String(), `"eer":0.1`) {
		t.Errorf("calibrated analytics/verify = %s", body.String())
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down")
	}

	// The calibration flags demand -verify.
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-verify-threshold", "0.5"}, &buf); err == nil {
		t.Error("-verify-threshold without -verify accepted")
	}
}
