package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// oracleCount is Open's count as a full scan of every file produces it.
func oracleCount(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	if err := s.scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// oracleRecover is Recover as it was before the open-time walk: it reads
// the whole active file back, cuts at the first bad line and rescans every
// sealed segment to rebuild the count.
func oracleRecover(s *Store) (RecoverReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return RecoverReport{}, err
	}
	raw, err := os.ReadFile(s.path)
	if err != nil {
		return RecoverReport{}, err
	}
	var good int64
	activeRecords := 0
	for off := int64(0); off < int64(len(raw)); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break
		}
		var rec Record
		if !parseLine(raw[off:off+int64(nl)], &rec) {
			break
		}
		off += int64(nl) + 1
		good = off
		activeRecords++
	}
	dropped := int64(len(raw)) - good
	if dropped > 0 {
		if err := s.f.Truncate(good); err != nil {
			return RecoverReport{}, err
		}
		s.segBytes = good
	}
	total := activeRecords
	for _, seg := range s.sealed {
		if err := scanFile(seg, func(Record) error { total++; return nil }); err != nil {
			return RecoverReport{}, err
		}
	}
	s.count = total
	return RecoverReport{SalvagedRecords: total, DroppedBytes: dropped, TruncatedAt: good}, nil
}

func crcLine(r Record) string {
	b, _ := json.Marshal(&r)
	return string(appendCRC(b, b)) + "\n"
}

func legacyLine(r Record) string {
	b, _ := json.Marshal(&r)
	return string(b) + "\n"
}

func seqRec(user string, seq int64) Record {
	r := rec(user, 0)
	r.Seq = seq
	return r
}

// dirFiles returns every file under dir by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestOnePassOpenMatchesRescan checks the open-time walk and the
// incremental Recover against the full rescans they replace: for each
// starting layout and Open/Append/seal/Recover sequence, Count, MaxSeq,
// every RecoverReport, All and the bytes on disk must match.
func TestOnePassOpenMatchesRescan(t *testing.T) {
	good := crcLine(seqRec("u1", 3)) + crcLine(seqRec("u2", 9))
	flipped := []byte(crcLine(seqRec("bad", 4)))
	flipped[12] ^= 0x20
	cases := []struct {
		name  string
		files map[string]string // file name under the store dir → contents
		opts  Options
		ops   []string // "append:<n>" or "recover"
	}{
		{name: "empty store", ops: []string{"recover", "append:2", "recover"}},
		{name: "clean file", files: map[string]string{"fp.ndjson": good}, ops: []string{"recover"}},
		{
			name: "torn tail",
			files: map[string]string{"fp.ndjson": good +
				"{\"user_id\":\"ghost\",\"vector\":\"DC\",\"hash\":\"zz\tq}\n" +
				`{"session_id":"s","user_id":"torn","vector":"DC","iter`},
			ops: []string{"recover", "append:1", "recover"},
		},
		{
			name:  "CRC mismatch mid-file",
			files: map[string]string{"fp.ndjson": crcLine(seqRec("u0", 1)) + string(flipped) + good},
			ops:   []string{"recover", "recover"},
		},
		{
			name:  "legacy lines without CRC",
			files: map[string]string{"fp.ndjson": legacyLine(seqRec("l1", 5)) + legacyLine(rec("l2", 1)) + good},
			ops:   []string{"recover", "append:2", "recover"},
		},
		{
			name:  "unterminated legacy last line",
			files: map[string]string{"fp.ndjson": good + strings.TrimSuffix(legacyLine(seqRec("l9", 40)), "\n")},
			ops:   []string{"recover", "append:1", "recover"},
		},
		{
			name:  "unterminated line completed by an append",
			files: map[string]string{"fp.ndjson": good + strings.TrimSuffix(legacyLine(rec("l9", 0)), "\n")},
			ops:   []string{"append:2", "recover", "append:1", "recover"},
		},
		{
			name: "CRLF line endings",
			files: map[string]string{"fp.ndjson": strings.TrimSuffix(legacyLine(rec("w1", 0)), "\n") + "\r\n" +
				strings.TrimSuffix(crcLine(rec("w2", 0)), "\n") + "\r\n" + good},
			ops: []string{"recover"},
		},
		{
			name:  "appends between Open and Recover",
			files: map[string]string{"fp.ndjson": good},
			ops:   []string{"append:3", "recover", "append:2", "append:1", "recover"},
		},
		{
			name:  "appends after a torn tail",
			files: map[string]string{"fp.ndjson": good + `{"user_id":"to`},
			ops:   []string{"append:3", "recover", "append:1", "recover"},
		},
		{
			name:  "seal between Open and Recover",
			files: map[string]string{"fp.ndjson": good + string(flipped) + good},
			opts:  Options{MaxSegmentBytes: 1024},
			ops:   []string{"append:8", "recover", "append:9", "recover"},
		},
		{
			name:  "seal after an unterminated line was completed",
			files: map[string]string{"fp.ndjson": good + strings.TrimSuffix(legacyLine(rec("l9", 0)), "\n")},
			opts:  Options{MaxSegmentBytes: 1024},
			ops:   []string{"append:1", "append:8", "recover"},
		},
		{
			name: "sealed segments plus an active file",
			files: map[string]string{
				"fp.ndjson.000001": good + string(flipped) + crcLine(seqRec("s1", 77)),
				"fp.ndjson.000002": legacyLine(rec("s2", 0)) + `{"torn":`,
				"fp.ndjson":        good + string(flipped) + good,
			},
			opts: Options{MaxSegmentBytes: 1 << 20},
			ops:  []string{"recover", "append:2", "recover"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dirs := [2]string{t.TempDir(), t.TempDir()} // walked, oracle
			var stores [2]*Store
			for i, dir := range dirs {
				for name, body := range tc.files {
					if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				s, err := Open(filepath.Join(dir, "fp.ndjson"), tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				stores[i] = s
			}
			s, o := stores[0], stores[1]
			if got, want := s.Count(), oracleCount(t, o); got != want {
				t.Fatalf("Open count = %d, a full scan counts %d", got, want)
			}
			var wantSeq int64
			recs, err := o.All()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				wantSeq = max(wantSeq, r.Seq)
			}
			if got := s.MaxSeq(); got != wantSeq {
				t.Errorf("MaxSeq at Open = %d, a full scan finds %d", got, wantSeq)
			}
			appended := 0
			for _, op := range tc.ops {
				if n, ok := strings.CutPrefix(op, "append:"); ok {
					k, _ := strconv.Atoi(n)
					batch := make([]Record, k)
					for i := range batch {
						batch[i] = seqRec(fmt.Sprintf("a%d", appended), int64(100+appended))
						appended++
					}
					for _, st := range stores {
						if err := st.Append(batch...); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				got, err := s.Recover()
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleRecover(o)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("after %v: Recover = %+v, the rescan gives %+v", op, got, want)
				}
				if s.Count() != o.Count() {
					t.Errorf("after %v: Count = %d, the rescan gives %d", op, s.Count(), o.Count())
				}
			}
			gotAll, err := s.All()
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := o.All()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotAll, wantAll) {
				t.Errorf("All differs: %d records vs %d", len(gotAll), len(wantAll))
			}
			if got, want := dirFiles(t, dirs[0]), dirFiles(t, dirs[1]); !reflect.DeepEqual(got, want) {
				t.Errorf("bytes on disk differ:\n got %q\nwant %q", got, want)
			}
		})
	}
}
