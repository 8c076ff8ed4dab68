package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
)

// TestRunDiagSmoke boots the binary with -diag, takes an on-demand capture
// over HTTP, and checks both the API surface and the on-disk ring — the
// exact flow an operator follows when something looks off.
func TestRunDiagSmoke(t *testing.T) {
	dir := t.TempDir()
	bundles := filepath.Join(dir, "ring")
	base, logs, cancel, done := startServer(t, filepath.Join(dir, "fp.ndjson"),
		"-diag", "-diag-dir", bundles)
	defer cancel()

	// The always-on sampler feeds /debug/health and /metrics.
	resp, err := http.Get(base + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(health), "runtime goroutines: ") {
		t.Errorf("/debug/health missing runtime section:\n%s", health)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "runtime_heap_inuse_bytes") {
		t.Errorf("/metrics missing runtime_heap_inuse_bytes")
	}

	// Manual capture through the API lands in the ring.
	presp, err := http.Post(base+"/api/v1/obs/bundles", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusCreated {
		t.Fatalf("POST bundles: %d %s", presp.StatusCode, pbody)
	}
	var env struct {
		Data diag.Manifest `json:"data"`
	}
	if err := json.Unmarshal(pbody, &env); err != nil {
		t.Fatal(err)
	}
	if env.Data.ID == "" || env.Data.Reason != diag.ReasonManual {
		t.Fatalf("capture manifest = %+v", env.Data)
	}
	mans, err := diag.ListBundles(bundles)
	if err != nil || len(mans) != 1 || mans[0].ID != env.Data.ID {
		t.Fatalf("on-disk ring = %v, %v", mans, err)
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
	if !strings.Contains(logs.String(), "diag bundles to ") {
		t.Errorf("startup log missing diag line:\n%s", logs.String())
	}
}

// TestDiagFlagValidation pins -diag-cpu-seconds requiring -diag.
func TestDiagFlagValidation(t *testing.T) {
	err := run(context.Background(), []string{
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(t.TempDir(), "fp.ndjson"),
		"-diag-cpu-seconds", "1",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-diag-cpu-seconds requires -diag") {
		t.Fatalf("err = %v, want -diag-cpu-seconds requires -diag", err)
	}
}
