package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke runs a miniature end-to-end study — simulate, analyze,
// persist, checkpoint — entirely in-process.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "main.ndjson")
	ckpt := filepath.Join(dir, "ckpt.ndjson")
	var stdout, logs bytes.Buffer
	err := run(context.Background(), []string{
		"-users", "12",
		"-iterations", "2",
		"-followup-users", "0",
		"-evolution-users", "0",
		"-ablation=false",
		"-out", out,
		"-checkpoint", ckpt,
	}, &stdout, &logs)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	for _, want := range []string{"Table 1", "Table 2"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("dataset not written: %v", err)
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Errorf("checkpoint not written: %v", err)
	}
	if !strings.Contains(logs.String(), "main study complete") {
		t.Errorf("log missing completion line:\n%s", logs.String())
	}
}

// TestRunTraceToErrw: -trace prints the stage tree to the logs writer,
// the one run was given, not to the process's stderr.
func TestRunTraceToErrw(t *testing.T) {
	var stdout, logs bytes.Buffer
	err := run(context.Background(), []string{
		"-users", "8",
		"-iterations", "2",
		"-followup-users", "0",
		"-evolution-users", "0",
		"-ablation=false",
		"-trace",
	}, &stdout, &logs)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	if !strings.Contains(logs.String(), "study.run") {
		t.Errorf("trace tree missing from the logs writer:\n%s", logs.String())
	}
}

// TestRunFlagError: an unknown flag is a clean error, not an os.Exit.
func TestRunFlagError(t *testing.T) {
	var stdout, logs bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &stdout, &logs); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunRejectsNonPositivePopulation: study.Config validation surfaces as
// an error instead of a crash.
func TestRunRejectsNonPositivePopulation(t *testing.T) {
	var stdout, logs bytes.Buffer
	err := run(context.Background(), []string{"-users", "0"}, &stdout, &logs)
	if err == nil {
		t.Fatal("zero users accepted")
	}
}

// TestRunVerifySweep runs the -verify-sweep mode at miniature scale and
// checks the printed operating curve plus the persisted calibration JSON.
func TestRunVerifySweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cal.json")
	var stdout, logs bytes.Buffer
	err := run(context.Background(), []string{
		"-verify-sweep",
		"-users", "40",
		"-verify-epochs", "4",
		"-verify-samples", "1",
		"-verify-enroll", "2",
		"-verify-out", out,
	}, &stdout, &logs)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	for _, want := range []string{"Verification threshold sweep", "FAR", "FRR", "EER "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("calibration not written: %v", err)
	}
	var res struct {
		Calibration struct {
			Points       []struct{ Threshold float64 }
			EERThreshold float64 `json:"eer_threshold"`
		} `json:"calibration"`
		Users int `json:"users"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("calibration JSON: %v", err)
	}
	if res.Users != 40 || len(res.Calibration.Points) != 101 {
		t.Errorf("calibration = users %d, %d points", res.Users, len(res.Calibration.Points))
	}
	if !strings.Contains(logs.String(), "calibration written to") {
		t.Errorf("log missing calibration line:\n%s", logs.String())
	}
}

// TestRunRejectsOrphanFlags: a flag that only acts alongside another is an
// error without it, not silently ignored.
func TestRunRejectsOrphanFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shadow-out", "audit.json"}, "-shadow-out requires -shadow"},
		{[]string{"-verify-epochs", "4"}, "-verify-epochs requires -verify-sweep"},
		{[]string{"-verify-samples", "1"}, "-verify-samples requires -verify-sweep"},
		{[]string{"-verify-enroll", "2"}, "-verify-enroll requires -verify-sweep"},
		{[]string{"-verify-out", "cal.json"}, "-verify-out requires -verify-sweep"},
		{[]string{"-verify-sweep", "-iterations", "5"}, "-iterations has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-followup-users", "0"}, "-followup-users has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-followup-seed", "7"}, "-followup-seed has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-out", "main.ndjson"}, "-out has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-followup-out", "f.ndjson"}, "-followup-out has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-checkpoint", "ckpt"}, "-checkpoint has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-ablation=false"}, "-ablation has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-evolution-users", "0"}, "-evolution-users has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-trace-json", "trace.json"}, "-trace-json has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-trace"}, "-trace has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-progress"}, "-progress has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-shadow", "2"}, "-shadow has no effect with -verify-sweep"},
		{[]string{"-verify-sweep", "-shadow-out", "audit.json"}, "-shadow-out has no effect with -verify-sweep"},
	} {
		var stdout, logs bytes.Buffer
		err := run(context.Background(), tc.args, &stdout, &logs)
		if err == nil || err.Error() != tc.want {
			t.Errorf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
}
