package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/study"
)

// writeFixtureDataset simulates a small study and persists it the way
// fpstudy -out does.
func writeFixtureDataset(t *testing.T) string {
	t.Helper()
	ds, err := study.Run(study.Config{Seed: 7, Users: 10, Iterations: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.ndjson")
	st, err := storage.Open(path, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(ds.ToRecords(time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC))...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSingleExperiment re-analyzes a stored dataset in-process.
func TestRunSingleExperiment(t *testing.T) {
	path := writeFixtureDataset(t)
	var stdout, logs bytes.Buffer
	err := run(context.Background(), []string{"-data", path, "-exp", "table2"}, &stdout, &logs)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	if !strings.Contains(stdout.String(), "Table 2") {
		t.Errorf("table 2 missing from output:\n%s", stdout.String())
	}
}

// TestRunList prints the experiment catalogue without needing data.
func TestRunList(t *testing.T) {
	var stdout, logs bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &stdout, &logs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "table2", "ablation"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

// TestRunRecoverFlag salvages a dataset with a torn tail before analysis.
func TestRunRecoverFlag(t *testing.T) {
	path := writeFixtureDataset(t)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"session_id":"s","user_id":"torn","vector":"DC","iter`)
	f.Close()

	var stdout, logs bytes.Buffer
	err = run(context.Background(), []string{"-data", path, "-exp", "table2", "-recover"}, &stdout, &logs)
	if err != nil {
		t.Fatalf("run with -recover: %v\n%s", err, logs.String())
	}
	if !strings.Contains(logs.String(), "recovery dropped") {
		t.Errorf("recovery log missing:\n%s", logs.String())
	}
}

// TestRunExportTelemetry: -export writes the analysis span tree plus at
// least one registry snapshot as NDJSON — the same parity fpstudy and
// fpserver have.
func TestRunExportTelemetry(t *testing.T) {
	path := writeFixtureDataset(t)
	exportPath := filepath.Join(t.TempDir(), "telemetry.ndjson")
	var stdout, logs bytes.Buffer
	err := run(context.Background(),
		[]string{"-data", path, "-exp", "table2", "-export", exportPath}, &stdout, &logs)
	if err != nil {
		t.Fatalf("run with -export: %v\n%s", err, logs.String())
	}
	raw, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	spans, metrics := 0, 0
	var sawRoot, sawLoad bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Type    string `json:"type"`
			Service string `json:"service"`
			Name    string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON telemetry line %q: %v", line, err)
		}
		if rec.Service != "fpanalyze" {
			t.Fatalf("line service = %q, want fpanalyze", rec.Service)
		}
		switch rec.Type {
		case "span":
			spans++
			sawRoot = sawRoot || rec.Name == "fpanalyze"
			sawLoad = sawLoad || rec.Name == "load-dataset"
		case "metrics":
			metrics++
		default:
			t.Fatalf("unknown telemetry line type %q", rec.Type)
		}
	}
	if spans < 2 || !sawRoot || !sawLoad {
		t.Fatalf("span lines = %d (root %v, load %v), want the analysis tree", spans, sawRoot, sawLoad)
	}
	if metrics == 0 {
		t.Fatal("no metrics snapshot in the export")
	}
}

// TestRunErrors: missing -data and unknown flags fail cleanly.
func TestRunErrors(t *testing.T) {
	var stdout, logs bytes.Buffer
	if err := run(context.Background(), nil, &stdout, &logs); err == nil {
		t.Error("missing -data accepted")
	}
	if err := run(context.Background(), []string{"-nope"}, &stdout, &logs); err == nil {
		t.Error("unknown flag accepted")
	}
}
