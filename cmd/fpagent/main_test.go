package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collectserver"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/vectors"
)

// startCollector runs an in-process collection backend for the agent to
// talk to.
func startCollector(t *testing.T) (*httptest.Server, *storage.Store) {
	t.Helper()
	st, err := storage.Open(filepath.Join(t.TempDir(), "fp.ndjson"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collectserver.New(collectserver.Config{
		Store:             st,
		SubmitRatePerSec:  1e6,
		SessionRatePerMin: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })
	return ts, st
}

// TestRunSmoke drives the whole agent — sample, render, submit — against a
// real in-process server and checks every record landed.
func TestRunSmoke(t *testing.T) {
	ts, st := startCollector(t)
	var logs bytes.Buffer
	err := run(context.Background(), []string{
		"-server", ts.URL,
		"-users", "3",
		"-iterations", "2",
		"-parallel", "2",
	}, &logs)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	want := 3 * 2 * 7 // users × iterations × vectors
	if got := st.Count(); got != want {
		t.Errorf("stored %d records, want %d", got, want)
	}
	if !strings.Contains(logs.String(), "telemetry:") {
		t.Errorf("telemetry report missing:\n%s", logs.String())
	}
}

// TestRunWithFaults rehearses chaos through the -faults flag: with drops
// and 5xx injected, retries still land every record exactly once.
func TestRunWithFaults(t *testing.T) {
	ts, st := startCollector(t)
	var logs bytes.Buffer
	err := run(context.Background(), []string{
		"-server", ts.URL,
		"-users", "2",
		"-iterations", "2",
		"-parallel", "1",
		"-faults", "seed=3,drop=0.05,http500=0.05",
	}, &logs)
	if err != nil {
		t.Fatalf("run under faults: %v\n%s", err, logs.String())
	}
	want := 2 * 2 * 7
	if got := st.Count(); got != want {
		t.Errorf("stored %d records under faults, want %d", got, want)
	}
	if !strings.Contains(logs.String(), "fault injection active") {
		t.Errorf("fault banner missing:\n%s", logs.String())
	}
}

// TestRunFlagErrors: bad flags and bad fault specs are clean errors.
func TestRunFlagErrors(t *testing.T) {
	var logs bytes.Buffer
	if err := run(context.Background(), []string{"-not-a-flag"}, &logs); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-faults", "garbage==1"}, &logs); err == nil {
		t.Error("bad fault spec accepted")
	}
}

// TestRunRejectsOrphanCooldown: -breaker-cooldown without a breaker is an
// error, returned before anything is rendered or submitted.
func TestRunRejectsOrphanCooldown(t *testing.T) {
	ts, st := startCollector(t)
	for _, args := range [][]string{
		{"-breaker-cooldown", "1s"},
		{"-breaker-threshold", "0", "-breaker-cooldown", "1s"},
	} {
		var logs bytes.Buffer
		err := run(context.Background(), append([]string{
			"-server", ts.URL, "-users", "1", "-iterations", "1",
		}, args...), &logs)
		if err == nil || !strings.Contains(err.Error(), "-breaker-cooldown requires -breaker-threshold") {
			t.Errorf("%v: err = %v, want -breaker-cooldown requires -breaker-threshold", args, err)
		}
	}
	if n := st.Count(); n != 0 {
		t.Errorf("%d records stored after rejected flags, want 0", n)
	}
}

// TestRunIdempotencyDisabled: the -idempotency=false escape hatch still
// completes a clean (fault-free) run.
func TestRunIdempotencyDisabled(t *testing.T) {
	ts, st := startCollector(t)
	var logs bytes.Buffer
	err := run(context.Background(), []string{
		"-server", ts.URL,
		"-users", "1",
		"-iterations", "1",
		"-idempotency=false",
	}, &logs)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	if got := st.Count(); got != 7 {
		t.Errorf("stored %d records, want 7", got)
	}
}

// TestRunMatchesStudy: every stored record carries the hash the study
// simulation gives the same (user, vector, iteration) at the same seed, so
// a collected campaign and a simulated one are the same dataset.
func TestRunMatchesStudy(t *testing.T) {
	ts, st := startCollector(t)
	var logs bytes.Buffer
	if err := run(context.Background(), []string{
		"-server", ts.URL,
		"-users", "6",
		"-iterations", "3",
		"-seed", "11",
	}, &logs); err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	ds, err := study.RunContext(context.Background(), study.Config{Seed: 11, Users: 6, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 3 * len(vectors.All); len(recs) != want {
		t.Fatalf("stored %d records, want %d", len(recs), want)
	}
	user := map[string]int{}
	for i, id := range ds.Users {
		user[id] = i
	}
	for _, r := range recs {
		v, err := vectors.ParseID(r.Vector)
		if err != nil {
			t.Fatal(err)
		}
		u, ok := user[r.UserID]
		if !ok {
			t.Fatalf("record for unknown user %q", r.UserID)
		}
		if want := ds.Obs[v][u][r.Iteration]; r.Hash != want {
			t.Errorf("user %s %v iteration %d: hash %s, study has %s", r.UserID, v, r.Iteration, r.Hash, want)
		}
	}
}
