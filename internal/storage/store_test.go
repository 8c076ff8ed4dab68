package storage

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func tempStore(t *testing.T, opts Options) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fp.ndjson")
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func rec(user string, it int) Record {
	return Record{
		SessionID: "s-1", UserID: user, Vector: "DC", Iteration: it,
		Hash: "abc123", ReceivedAt: time.Unix(1700000000, 0).UTC(),
	}
}

func TestAppendAndAll(t *testing.T) {
	s := tempStore(t, Options{})
	if s.Count() != 0 {
		t.Fatalf("fresh store count = %d", s.Count())
	}
	if err := s.Append(rec("u1", 0), rec("u1", 1), rec("u2", 0)); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 3 {
		t.Errorf("count = %d, want 3", s.Count())
	}
	recs, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].UserID != "u1" || recs[2].UserID != "u2" {
		t.Errorf("All() = %+v", recs)
	}
	if !recs[0].ReceivedAt.Equal(time.Unix(1700000000, 0).UTC()) {
		t.Errorf("timestamp mangled: %v", recs[0].ReceivedAt)
	}
}

func TestValidation(t *testing.T) {
	s := tempStore(t, Options{})
	bad := []Record{
		{Vector: "DC", Hash: "x"},                             // no user
		{UserID: "u", Hash: "x"},                              // no vector
		{UserID: "u", Vector: "DC"},                           // no hash
		{UserID: "u", Vector: "DC", Hash: "x", Iteration: -1}, // negative
	}
	for i, r := range bad {
		if err := s.Append(r); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if s.Count() != 0 {
		t.Errorf("invalid records persisted: count = %d", s.Count())
	}
}

func TestReopenCountsExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.ndjson")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(rec("u", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 10 {
		t.Errorf("reopened count = %d, want 10", s2.Count())
	}
	if err := s2.Append(rec("u", 10)); err != nil {
		t.Fatal(err)
	}
	recs, _ := s2.All()
	if len(recs) != 11 {
		t.Errorf("after reopen+append: %d records", len(recs))
	}
}

func TestCorruptAndTornLinesSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.ndjson")
	content := `{"session_id":"s","user_id":"u1","vector":"DC","iteration":0,"hash":"aa","received_at":"2021-03-01T00:00:00Z"}
this is not json
{"user_id":"","vector":"DC","hash":"aa","received_at":"2021-03-01T00:00:00Z"}
{"session_id":"s","user_id":"u2","vector":"FFT","iteration":1,"hash":"bb","received_at":"2021-03-01T00:00:00Z"}
{"session_id":"s","user_id":"u3","vector":"DC","iter`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Count() != 2 {
		t.Errorf("count = %d, want 2 valid records", s.Count())
	}
	recs, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].UserID != "u1" || recs[1].UserID != "u2" {
		t.Errorf("All() = %+v", recs)
	}
}

// TestFailedAppendWritesNothing checks that a batch with a record
// json.Marshal refuses leaves no part of itself behind: not in Count, not
// in All, not in the file a reopen reads.
func TestFailedAppendWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.ndjson")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, bad := range []func(*Record){
		func(r *Record) { r.Sum = math.NaN() },
		func(r *Record) { r.Sum = math.Inf(-1) },
		func(r *Record) { r.ReceivedAt = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		func(r *Record) { r.ReceivedAt = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		r := rec("bad", 1)
		bad(&r)
		if err := s.Append(rec("leaked", 0), r); err == nil {
			t.Fatalf("Append accepted %+v", r)
		}
	}
	if err := s.Append(rec("u1", 0)); err != nil {
		t.Fatal(err)
	}
	recs, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 || len(recs) != 1 || recs[0].UserID != "u1" {
		t.Fatalf("Count() = %d, All() = %+v; want only u1", s.Count(), recs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 1 {
		t.Errorf("reopened Count() = %d, want 1", s2.Count())
	}
}

func TestConcurrentAppends(t *testing.T) {
	s := tempStore(t, Options{})
	var wg sync.WaitGroup
	const goroutines, each = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Append(rec(fmt.Sprintf("u%d", g), i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Count() != goroutines*each {
		t.Errorf("count = %d, want %d", s.Count(), goroutines*each)
	}
	recs, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*each {
		t.Errorf("All() = %d records (interleaved writes corrupted lines?)", len(recs))
	}
}

func TestWriteTo(t *testing.T) {
	s := tempStore(t, Options{SyncEveryAppend: true})
	if err := s.Append(rec("u1", 0), rec("u2", 0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("WriteTo wrote nothing")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Errorf("export has %d lines, want 2", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Errorf("non-JSON export line: %q", l)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "fp.ndjson")
	s, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := rec("user", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Iteration = i
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendBatch appends the campaign's batch of 128 records with
// a user agent (the storage.append layer, fsync off).
func BenchmarkAppendBatch(b *testing.B) {
	path := filepath.Join(b.TempDir(), "fp.ndjson")
	s, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := make([]Record, 128)
	for i := range batch {
		batch[i] = rec("user", i)
		batch[i].UserAgent = "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/96.0"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(batch...); err != nil {
			b.Fatal(err)
		}
	}
}
