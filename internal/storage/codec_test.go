package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"
)

// storeScanCorpus returns every line of FuzzStoreScan's checked-in corpus,
// CRC tags cut off.
func storeScanCorpus(f *testing.F) [][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzStoreScan", "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no FuzzStoreScan corpus: %v", err)
	}
	var lines [][]byte
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" and one []byte("...") line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, line := range strings.Split(data, "\n") {
			payload, _, _ := strings.Cut(line, "\t")
			lines = append(lines, []byte(payload))
		}
	}
	return lines
}

// checkDecode fails t unless decodeRecord agrees with json.Unmarshal on
// payload: both fail, or both give the same record.
func checkDecode(t *testing.T, payload []byte) {
	t.Helper()
	var got, want Record
	gotErr := decodeRecord(payload, &got)
	wantErr := json.Unmarshal(payload, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decode %q: error %v, json.Unmarshal's %v", payload, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", payload, got, want)
	}
}

// FuzzRecordCodec holds the record codec to encoding/json in both
// directions: fuzzed Record fields must encode to json.Marshal's bytes or
// fail with its error, and fuzzed payloads, the fields spliced unescaped
// into the canonical shape, and every encoded line must decode to
// json.Unmarshal's record or fail where it fails.
func FuzzRecordCodec(f *testing.F) {
	add := func(payload []byte, r Record, surfaces string) {
		_, zone := r.ReceivedAt.Zone()
		f.Add(payload, r.SessionID, r.UserID, r.Vector, r.Iteration, r.Hash, r.Sum, r.UserAgent, surfaces,
			r.ReceivedAt.Unix(), int64(r.ReceivedAt.Nanosecond()), zone, r.Seq)
	}
	base := Record{SessionID: "s-1", UserID: "u1", Vector: "DC", Iteration: 3, Hash: "abc123",
		ReceivedAt: time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)}
	for _, line := range storeScanCorpus(f) {
		add(line, base, "")
	}
	for _, payload := range []string{
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","sum":1E5,"user_agent":"ua","surfaces":{"b":"2","a":"1","b":"3"},"received_at":"2021-03-01T00:00:00.5+02:00","seq":7}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","surfaces":{},"received_at":"2021-03-01T00:00:00Z"}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","surfaces":null,"received_at":"2021-03-01T00:00:00Z"}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":1.0,"hash":"aa","received_at":"2021-03-01T00:00:00Z"}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":01,"hash":"aa","received_at":"2021-03-01T00:00:00Z"}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":-0,"hash":"aa","sum":-0,"received_at":"2021-03-01T00:00:00Z","seq":9223372036854775808}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"a\u0061","received_at":"2021-03-01T00:00:00Z"}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","received_at":null}`,
		`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","received_at":"2021-03-01T00:00:00Z"} `,
		`{"user_id":"u","session_id":"s","vector":"DC","iteration":0,"hash":"aa","received_at":"2021-03-01T00:00:00Z"}`,
		`{"session_id": "s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","received_at":"2021-03-01T00:00:00Z","extra":1}`,
		"{\"session_id\":\"s\xff\",\"user_id\":\"\u2028é\",\"vector\":\"DC\",\"iteration\":0,\"hash\":\"aa\",\"received_at\":\"2021-03-01T00:00:00Z\"}",
		`null`,
	} {
		add([]byte(payload), base, "")
	}

	// Encoder boundaries: float format cut-overs, odd strings, years and
	// zone offsets time.Time.MarshalJSON refuses.
	for _, sum := range []float64{124.04347527516074, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21, math.Nextafter(1e21, 0), -1e21, 123456789.125,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := base
		r.Sum = sum
		add(nil, r, "")
	}
	for _, s := range []string{"", "<a&b>", `quote" back\`, "\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029",
		"\xff\xfe invalid", "héllo ✓", "\ufffd"} {
		r := base
		r.SessionID, r.UserAgent = s, s
		add(nil, r, s+"\x00v\x00canvas\x00"+s)
	}
	for _, at := range []time.Time{
		time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2021, 6, 1, 0, 0, 0, 1, time.FixedZone("", 24*3600)),
		time.Date(2021, 6, 1, 0, 0, 0, 0, time.FixedZone("", -(23*3600+59*60))),
		time.Date(2021, 6, 1, 0, 0, 0, 0, time.FixedZone("", 100*3600)),
		time.Date(2021, 6, 1, 0, 0, 0, 0, time.FixedZone("", 3600+30)),
	} {
		r := base
		r.ReceivedAt = at
		add(nil, r, "")
	}
	for _, n := range []int64{1, -5, math.MaxInt64, math.MinInt64} {
		r := base
		r.Iteration, r.Seq = int(n), n
		add(nil, r, "")
	}

	f.Fuzz(func(t *testing.T, payload []byte, session, user, vector string, iteration int, hash string,
		sum float64, ua, surfaces string, sec, nsec int64, zone int, seq int64) {
		checkDecode(t, payload)

		r := Record{SessionID: session, UserID: user, Vector: vector, Iteration: iteration, Hash: hash,
			Sum: sum, UserAgent: ua, ReceivedAt: time.Unix(sec, nsec).In(time.FixedZone("", zone)), Seq: seq}
		if surfaces != "" {
			kv := strings.Split(surfaces, "\x00")
			if len(kv)%2 == 1 {
				kv = append(kv, "")
			}
			r.Surfaces = map[string]string{}
			for i := 0; i < len(kv); i += 2 {
				r.Surfaces[kv[i]] = kv[i+1]
			}
		}
		// The same fields spliced in unescaped: payloads of the canonical
		// shape whenever no string needs escaping, near misses otherwise.
		checkDecode(t, []byte(fmt.Sprintf(`{"session_id":"%s","user_id":"%s","vector":"%s","iteration":%d,"hash":"%s",`+
			`"sum":%s,"user_agent":"%s","surfaces":{"%s":"%s"},"received_at":"%s","seq":%d}`,
			session, user, vector, iteration, hash, strconv.FormatFloat(sum, 'g', -1, 64), ua, surfaces, hash,
			r.ReceivedAt.Format(time.RFC3339Nano), seq)))

		const prefix = "line\n"
		got, gotErr := appendRecord([]byte(prefix), &r)
		want, wantErr := json.Marshal(&r)
		switch {
		case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("encode %#v: error %v, json.Marshal's %v", r, gotErr, wantErr)
		case gotErr != nil && string(got) != prefix:
			t.Fatalf("failed encode changed dst to %q", got)
		case gotErr == nil && !bytes.Equal(got, append([]byte(prefix), want...)):
			t.Fatalf("encode %#v:\n got %s\nwant %s%s", r, got, prefix, want)
		case gotErr == nil:
			checkDecode(t, want)
		}
	})
}

// TestCanonicalLinesParseWithoutFallback pins that the lines a store
// writes for ordinary records take the canonical parse, not the
// encoding/json fallback, decode as json.Unmarshal decodes them, and fit
// the buffer Append sizes for them.
func TestCanonicalLinesParseWithoutFallback(t *testing.T) {
	at := time.Date(2021, 6, 1, 12, 30, 0, 250, time.UTC)
	widest := Record{Iteration: math.MinInt64, Sum: -1.2345678901234567e-06, Seq: math.MinInt64,
		ReceivedAt: time.Date(2021, 6, 1, 0, 0, 0, 999999999, time.FixedZone("", -(23*3600+59*60)))}
	for _, r := range []Record{
		widest,
		rec("u1", 0),
		{SessionID: "preload", UserID: "user-0007", Vector: "Hybrid", Iteration: 29, Hash: strings.Repeat("0f", 32),
			Sum: 35.10893253237009, UserAgent: "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/96.0",
			Surfaces: map[string]string{"fonts": "f1", "canvas": "c9"}, ReceivedAt: at, Seq: 146510},
		{UserID: "ünï", Vector: "FM", Hash: "ab", Sum: -1.5e-9, UserAgent: "Safari ✓", ReceivedAt: at.In(time.FixedZone("", -5*3600))},
	} {
		line, err := appendRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseCanonical(line); !ok {
			t.Errorf("canonical parse refused %s", line)
		}
		checkDecode(t, line)
		if n := len(line) + crcTagLen + 1; n > lineSizeHint(&r) {
			t.Errorf("stored line of %s is %d bytes, lineSizeHint %d", line, n, lineSizeHint(&r))
		}
	}
}

// TestScanSharesStringsAsUnmarshalDecodes: every record a scan returns
// equals json.Unmarshal's for its line, canonical or escaped, across
// repeated and distinct strings and several receive times and zones; the
// walk's records share each repeated string, and no two share a Surfaces
// map.
func TestScanSharesStringsAsUnmarshalDecodes(t *testing.T) {
	at := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	ats := []time.Time{at, at, at.Add(time.Second), at.In(time.FixedZone("", 2*3600)),
		at.In(time.FixedZone("", 2*3600)), at.In(time.FixedZone("", -5*3600)), at, at.Add(time.Nanosecond)}
	var file []byte
	for i := 0; i < 40; i++ {
		r := Record{SessionID: fmt.Sprintf("s%d", i/8), UserID: fmt.Sprintf("user-%d", i/4),
			Vector: []string{"DC", "FFT", "Hybrid"}[i%3], Iteration: i, Hash: fmt.Sprintf("%064x", i%5),
			Sum: float64(i%3) / 7, UserAgent: "Mozilla/5.0 (X11) Firefox/96.0",
			Surfaces: map[string]string{"canvas": fmt.Sprintf("c%d", i%2), "fonts": "f"}, ReceivedAt: ats[i%len(ats)]}
		switch i % 6 {
		case 3:
			r.UserAgent = `Opera <12> & "beta"` // escaped: the json.Unmarshal fallback
		case 5:
			r.Surfaces = nil
		}
		payload, err := appendRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		file = append(appendCRC(append(file, payload...), payload), '\n')
	}
	// Legacy lines that only the fallback reads, holding strings the
	// canonical lines hold too.
	file = append(file, `{"user_id":"user-0","session_id":"s0","vector":"DC","iteration":1,"hash":"h",`+
		`"received_at":"2021-06-01T12:00:00Z"}`+"\n"...)
	file = append(file, `{"session_id":"s\u0030","user_id":"user-1","vector":"FFT","iteration":2,"hash":"h",`+
		`"surfaces":{"canvas":"c0"},"received_at":"2021-06-01T14:00:00+02:00"}`+"\n"...)
	path := filepath.Join(t.TempDir(), "fp.ndjson")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for _, line := range bytes.Split(bytes.TrimSuffix(file, []byte("\n")), []byte("\n")) {
		payload, _ := splitCRC(line)
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan and json.Unmarshal differ:\n got %v\nwant %v", got, want)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(got[0].UserID, got[2].UserID) || !same(got[0].Hash, got[5].Hash) || !same(got[1].UserAgent, got[38].UserAgent) ||
		!same(got[0].Surfaces["fonts"], got[1].Surfaces["fonts"]) {
		t.Error("a string the walk read before was allocated again")
	}
	got[0].Surfaces["canvas"] = "changed"
	for i := 1; i < len(got); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("changing record 0's surfaces changed record %d to %v", i, got[i])
		}
	}
}

// TestPlainMatchesByteLoop holds plain's eight-bytes-at-a-time test to
// the byte loop: each rejected byte, bytes beside the rejected ranges, a
// valid multi-byte rune and invalid UTF-8, at every offset of strings of
// 0 to 24 bytes.
func TestPlainMatchesByteLoop(t *testing.T) {
	byteLoop := func(s []byte) bool {
		for _, c := range s {
			if c < ' ' || c == '\\' {
				return false
			}
		}
		return utf8.Valid(s)
	}
	inserts := []string{"", "\x00", "\x1f", `\`, " ", "[", "]", "\x7f", "\x80", "\x9f", "\xa0", "\xdc",
		"é", "✓", "😀", "\xff", "\xe2\x9c", "\xed\xa0\x80"}
	for n := 0; n <= 24; n++ {
		for at := 0; at <= n; at++ {
			for _, ins := range inserts {
				if at+len(ins) > n {
					continue
				}
				s := bytes.Repeat([]byte("a"), n)
				copy(s[at:], ins)
				if got, want := plain(s), byteLoop(s); got != want {
					t.Errorf("plain(%q) = %v, the byte loop gives %v", s, got, want)
				}
			}
		}
	}
}

var sinkRecord Record

// BenchmarkParseLine times one stored line's CRC check, decode and
// validation, the per-line cost of Open's walk and of All (the
// setup.store_open_s and setup.store_read_s layers), in a walk that has
// read the line's strings and receive time before, as it has for most
// lines of a stored history.
func BenchmarkParseLine(b *testing.B) {
	r := Record{SessionID: "preload", UserID: "user-0007", Vector: "Hybrid", Iteration: 29,
		Hash: strings.Repeat("0f", 32), UserAgent: "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/96.0",
		ReceivedAt: time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC), Seq: 146510}
	payload, err := appendRecord(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	line := appendCRC(payload, payload)
	var lines lineCache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRecord = Record{}
		if !lines.parseLine(line, &sinkRecord) {
			b.Fatal("line refused")
		}
	}
}
