package storage

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreScan feeds arbitrary bytes as a store file: Open must never
// panic, must count only valid records, All must agree with Count, and
// Recover must agree with a full re-read of the file.
func FuzzStoreScan(f *testing.F) {
	valid := []byte(`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","received_at":"2021-03-01T00:00:00Z"}`)
	f.Add(valid)
	f.Add([]byte("not json at all\n{{{{"))
	f.Add([]byte("{\"user_id\":\"u\"}\n\x00\x01\x02"))
	f.Add([]byte(""))

	// CRC-framed lines: intact, corrupted payload, torn mid-line, torn
	// mid-tag, and a malformed tag — the fault classes Recover must absorb.
	crcLine := append(appendCRC(nil, valid), '\n')
	f.Add(crcLine)
	flipped := append([]byte(nil), crcLine...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add(append(append([]byte(nil), crcLine...), crcLine[:len(crcLine)/2]...))
	f.Add(crcLine[:len(crcLine)-5])
	f.Add(append(append([]byte(nil), valid...), []byte("\t#czzzzzzzz\n")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(path, Options{})
		if err != nil {
			return // I/O-level failure is acceptable; panics are not
		}
		defer s.Close()
		recs, err := s.All()
		if err != nil {
			return
		}
		if len(recs) != s.Count() {
			t.Fatalf("All() returned %d records, Count() = %d", len(recs), s.Count())
		}
		for _, r := range recs {
			if r.Validate() != nil {
				t.Fatalf("invalid record surfaced from scan: %+v", r)
			}
		}
		// The store must remain appendable after ingesting garbage.
		if err := s.Append(Record{UserID: "u", Vector: "DC", Hash: "aa"}); err != nil {
			t.Fatalf("append after fuzz data: %v", err)
		}
		// Recover from the open-time walk must cut where a full re-read
		// of a twin store cuts.
		twin := filepath.Join(t.TempDir(), "fuzz.ndjson")
		if err := os.WriteFile(twin, data, 0o644); err != nil {
			t.Skip()
		}
		o, err := Open(twin, Options{})
		if err != nil {
			t.Fatalf("twin open: %v", err)
		}
		defer o.Close()
		if err := o.Append(Record{UserID: "u", Vector: "DC", Hash: "aa"}); err != nil {
			t.Fatalf("twin append: %v", err)
		}
		got, err := s.Recover()
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		want, err := oracleRecover(o)
		if err != nil {
			t.Fatalf("rescan recover: %v", err)
		}
		if got != want || s.Count() != o.Count() {
			t.Fatalf("Recover = %+v (count %d), a full re-read gives %+v (count %d)", got, s.Count(), want, o.Count())
		}
	})
}
