package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunSmoke boots the real server on an ephemeral port, probes it over
// HTTP, and shuts it down through context cancellation — the binary's whole
// lifecycle in-process.
func TestRunSmoke(t *testing.T) {
	store := filepath.Join(t.TempDir(), "fp.ndjson")
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	defer func() { onListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	var logs syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-store", store,
			"-max-inflight", "64",
			"-rate", "1000",
			"-max-segment", "65536",
			"-analytics",
		}, &logs)
	}()

	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before listening: %v\n%s", err, logs.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}

	base := fmt.Sprintf("http://%s", addr)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/api/v1/analytics/entropy")
	if err != nil {
		t.Fatalf("analytics: %v", err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("analytics entropy = %d %s", resp.StatusCode, body.String())
	}
	if v := resp.Header.Get("X-API-Version"); v != "1" {
		t.Errorf("analytics X-API-Version = %q", v)
	}
	if !strings.Contains(body.String(), `"data"`) {
		t.Errorf("analytics body not enveloped: %s", body.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down after cancel")
	}
	if !strings.Contains(logs.String(), "listening on") {
		t.Errorf("startup log missing: %s", logs.String())
	}
}

// syncBuf is a mutex-guarded log buffer: tests read it while the server
// goroutine is still logging (e.g. right after startServer returns, before
// the "listening on" line lands).
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServer boots run() on an ephemeral port with the given extra flags
// and returns the base URL, the log buffer, a cancel func, and the done
// channel carrying run's error.
func startServer(t *testing.T, store string, extra ...string) (string, *syncBuf, context.CancelFunc, chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })

	ctx, cancel := context.WithCancel(context.Background())
	logs := &syncBuf{}
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-store", store}, extra...)
	go func() { done <- run(ctx, args, logs) }()

	select {
	case a := <-addrCh:
		return fmt.Sprintf("http://%s", a), logs, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("server exited before listening: %v\n%s", err, logs.String())
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server never started listening")
	}
	return "", nil, nil, nil
}

func postJSON(t *testing.T, url string, req, resp any) {
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
		Data json.RawMessage `json:"data"`
	}
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	if r.StatusCode >= 300 {
		t.Fatalf("POST %s = %d", url, r.StatusCode)
	}
	if resp != nil {
		if err := json.Unmarshal(env.Data, resp); err != nil {
			t.Fatalf("POST %s: decode data: %v", url, err)
		}
	}
}

// TestRunShardedSmoke exercises the full sharded lifecycle: boot with
// -shards 3 -analytics, ingest fingerprints for users that land on
// different shards through the real consent/session/submit API, read the
// merged analytics, shut down, verify the per-shard store files landed on
// disk, then restart over the same files and check every record survived
// into both the store count and the rebuilt analytics plane.
func TestRunShardedSmoke(t *testing.T) {
	store := filepath.Join(t.TempDir(), "fp.ndjson")

	base, _, cancel, done := startServer(t, store, "-shards", "3", "-analytics")
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for i, uid := range users {
		var sess struct {
			Token string `json:"token"`
		}
		postJSON(t, base+"/api/v1/sessions", map[string]any{
			"user_id": uid, "user_agent": "smoke", "consent": true,
		}, &sess)
		var ack struct {
			Accepted int `json:"accepted"`
		}
		postJSON(t, base+"/api/v1/fingerprints", map[string]any{
			"token": sess.Token,
			"records": []map[string]any{
				{"vector": "DC", "iteration": 1, "hash": fmt.Sprintf("aa%d", i%2)},
				{"vector": "FFT", "iteration": 1, "hash": fmt.Sprintf("bb%d", i)},
			},
		}, &ack)
		if ack.Accepted != 2 {
			t.Fatalf("user %s: accepted = %d, want 2", uid, ack.Accepted)
		}
	}

	resp, err := http.Get(base + "/api/v1/analytics/status")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics status = %d %s", resp.StatusCode, body.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down after cancel")
	}

	populated := 0
	for i := 0; i < 3; i++ {
		fi, err := os.Stat(fmt.Sprintf("%s.shard%d", store, i))
		if err != nil {
			t.Fatalf("shard %d store file missing: %v", i, err)
		}
		if fi.Size() > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("only %d of 3 shard files populated; routing did not spread %d users", populated, len(users))
	}
	if _, err := os.Stat(store); err == nil {
		t.Errorf("unsharded store file %s exists in sharded mode", store)
	}

	// Restart over the same files: every record must come back.
	base, logs, cancel, done := startServer(t, store, "-shards", "3", "-analytics")
	defer cancel()
	want := fmt.Sprintf("3 shards, %d existing records", 2*len(users))
	if !strings.Contains(logs.String(), want) {
		t.Errorf("restart log missing %q:\n%s", want, logs.String())
	}
	resp, err = http.Get(base + "/api/v1/analytics/status")
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics status after restart = %d", resp.StatusCode)
	}
	wantRecs := fmt.Sprintf(`"records":%d`, 2*len(users))
	if !strings.Contains(body.String(), wantRecs) {
		t.Errorf("restarted analytics status missing %s: %s", wantRecs, body.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("restarted run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("restarted server never shut down")
	}
}

// TestRunShardsFlagErrors: invalid shard configurations fail fast.
func TestRunShardsFlagErrors(t *testing.T) {
	var logs bytes.Buffer
	if err := run(context.Background(), []string{"-shards", "0"}, &logs); err == nil {
		t.Error("-shards 0 accepted")
	}
	if err := run(context.Background(), []string{"-shards", "2", "-watch"}, &logs); err == nil {
		t.Error("-shards 2 -watch accepted")
	}
}

// TestRunRejectsOrphanFlags: a flag that only qualifies another is an
// error without it, returned before the store is opened or anything is
// served. The context bounds a run that would serve instead.
func TestRunRejectsOrphanFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-series-interval", "1s"}, "-series-interval requires -series"},
		{[]string{"-series-capacity", "5"}, "-series-capacity requires -series"},
		{[]string{"-series=false", "-series-capacity", "5"}, "-series-capacity requires -series"},
		{[]string{"-verify-threshold", "0.5"}, "-verify-threshold requires -verify"},
		{[]string{"-verify-calibration", "cal.json"}, "-verify-calibration requires -verify"},
		{[]string{"-diag-dir", "bundles"}, "-diag-dir requires -diag"},
		{[]string{"-diag-cpu-seconds", "1"}, "-diag-cpu-seconds requires -diag"},
		{[]string{"-diag-cooldown", "1m"}, "-diag-cooldown requires -diag"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "fp.ndjson")
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-store", store}, tc.args...)
			if err := run(ctx, args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
			if _, err := os.Stat(store); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("store file after a rejected flag: stat err = %v, want not exist", err)
			}
		})
	}
}

// TestRunFlagError: an unknown flag is a clean error, not an os.Exit.
func TestRunFlagError(t *testing.T) {
	var logs bytes.Buffer
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &logs); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunBadStorePath: an unopenable store path surfaces as an error.
func TestRunBadStorePath(t *testing.T) {
	var logs bytes.Buffer
	err := run(context.Background(), []string{
		"-store", filepath.Join(t.TempDir(), "no", "such", "dir", "fp.ndjson"),
	}, &logs)
	if err == nil {
		t.Fatal("bad store path accepted")
	}
}
