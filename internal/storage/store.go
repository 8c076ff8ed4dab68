// Package storage persists collected fingerprint observations as an
// append-only NDJSON log — the role Cloud Firebase played for the paper's
// collection site. One JSON object per line, CRC-checked against torn and
// corrupt writes, fsync-able with group commit, rotatable into sealed
// segments, safely readable while being appended, and recoverable up to the
// first torn write after a crash.
//
// On-disk format: each appended line is "<json>\t#c<crc32c-hex8>". The CRC
// covers the JSON bytes; legacy lines without the suffix (older stores,
// exports) remain readable. Exports (WriteTo) strip the suffix so the wire
// format stays plain NDJSON.
//
// Segments: with Options.MaxSegmentBytes set, the active file at Path is
// sealed (fsynced, then renamed to Path.NNNNNN) once it exceeds the limit,
// and a fresh active file is started. Readers iterate sealed segments in
// order, then the active file.
package storage

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record is one collected elementary fingerprint observation.
type Record struct {
	// SessionID identifies the collection session that produced the record.
	SessionID string `json:"session_id"`
	// UserID is the participant identifier.
	UserID string `json:"user_id"`
	// Vector is the fingerprinting vector name (vectors.ID.String form).
	Vector string `json:"vector"`
	// Iteration is the 0-based repetition index.
	Iteration int `json:"iteration"`
	// Hash is the elementary fingerprint (hex digest).
	Hash string `json:"hash"`
	// Sum is the scalar summary reported alongside the hash.
	Sum float64 `json:"sum,omitempty"`
	// UserAgent is the submitting browser's UA header.
	UserAgent string `json:"user_agent,omitempty"`
	// Surfaces carries auxiliary fingerprints (canvas, fonts, mathjs, …).
	Surfaces map[string]string `json:"surfaces,omitempty"`
	// ReceivedAt is the server receive time (UTC).
	ReceivedAt time.Time `json:"received_at"`
	// Seq is the global arrival sequence number a sharded store stamps at
	// append time (internal/shard.Stores), letting a cross-shard read
	// reconstruct the original submission order. Zero (omitted from JSON)
	// on unsharded stores, so a -shards 1 deployment's files stay
	// byte-identical to pre-sharding ones.
	Seq int64 `json:"seq,omitempty"`
}

// Validate reports whether the record is well-formed enough to store.
func (r *Record) Validate() error {
	switch {
	case r.UserID == "":
		return errors.New("storage: record missing user_id")
	case r.Vector == "":
		return errors.New("storage: record missing vector")
	case r.Hash == "":
		return errors.New("storage: record missing hash")
	case r.Iteration < 0:
		return fmt.Errorf("storage: negative iteration %d", r.Iteration)
	}
	return nil
}

// castagnoli is the CRC-32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcTagLen is len("\t#c") + 8 hex digits.
const crcTagLen = 3 + 8

// appendCRC appends the on-disk checksum suffix for payload to dst.
func appendCRC(dst, payload []byte) []byte {
	var hexbuf [8]byte
	sum := crc32.Checksum(payload, castagnoli)
	hex.Encode(hexbuf[:], []byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	dst = append(dst, '\t', '#', 'c')
	return append(dst, hexbuf[:]...)
}

// splitCRC separates a stored line into its JSON payload and verifies the
// CRC suffix when present. Lines without a tab are legacy plain NDJSON and
// pass through unverified. A present-but-wrong suffix means corruption.
func splitCRC(line []byte) (payload []byte, ok bool) {
	i := bytes.LastIndexByte(line, '\t')
	if i < 0 {
		return line, true
	}
	payload, tag := line[:i], line[i+1:]
	if len(tag) != crcTagLen-1 || tag[0] != '#' || tag[1] != 'c' {
		return nil, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], tag[2:]); err != nil {
		return nil, false
	}
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, false
	}
	return payload, true
}

// parseLine decodes one stored line of c's walk into a record. It reports
// ok=false for torn, corrupt, CRC-mismatched or invalid lines.
func (c *lineCache) parseLine(line []byte, rec *Record) bool {
	payload, ok := splitCRC(line)
	if !ok {
		mCorruptLines.Inc()
		return false
	}
	if err := c.decodeRecord(payload, rec); err != nil {
		mCorruptLines.Inc()
		return false
	}
	return rec.Validate() == nil
}

// Store is an append-only NDJSON record log. Safe for concurrent use.
type Store struct {
	path    string
	maxSeg  int64
	durable bool

	// mu serializes buffered writes, rotation and counters. Append
	// encodes its batch before taking it, and fsync happens outside it
	// (group commit via syncMu), so concurrent appenders are not convoyed
	// behind the encoder or the disk.
	mu         sync.Mutex
	f          *os.File
	w          *bufio.Writer
	count      int
	segBytes   int64
	sealed     []string // sealed segment paths, oldest first
	seq        uint64   // append batches flushed so far
	maxSeq     int64    // highest Record.Seq read at Open or appended since
	sealedRecs int      // valid records in the sealed segments
	activeRecs int      // valid records in the active file, as a scan counts them

	// The active file's salvage point, kept from the last walk so Recover
	// need not re-read the log: [0, salvage) holds salvaged complete valid
	// lines. torn means the line at salvage is bad, so nothing after it can
	// move the point; otherwise bytes past salvage are still unwalked.
	salvage  int64
	salvaged int
	torn     bool
	// tail is the active file's unterminated last line at Open (tailOK: it
	// parses) until an Append completes it or Recover drops it.
	tail   []byte
	tailOK bool

	syncMu    sync.Mutex
	syncedSeq uint64 // append batches known durable (guarded by syncMu)
}

// Options configures Open.
type Options struct {
	// SyncEveryAppend makes every Append batch durable before returning.
	// Appends are group-committed: concurrent batches share one fsync.
	SyncEveryAppend bool
	// MaxSegmentBytes seals the active file into a read-only segment once
	// it exceeds this size (0 disables rotation).
	MaxSegmentBytes int64
}

// Open opens (creating if needed) the store at path and walks every file
// once: it counts the records across sealed segments and the active file,
// notes the highest Seq, and finds the active file's salvage point for
// Recover. Trailing partial lines (crash artifacts) are tolerated and
// ignored; call Recover to physically truncate them.
func Open(path string, opts Options) (*Store, error) {
	sealed, err := sealedSegments(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	s := &Store{
		path: path, maxSeg: opts.MaxSegmentBytes, durable: opts.SyncEveryAppend,
		f: f, w: bufio.NewWriter(f), segBytes: st.Size(), sealed: sealed,
	}
	for _, seg := range sealed {
		if err := scanFile(seg, func(r Record) error {
			s.sealedRecs++
			s.maxSeq = max(s.maxSeq, r.Seq)
			return nil
		}); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := s.walkOpen(st.Size()); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read %s: %w", path, err)
	}
	s.count = s.sealedRecs + s.activeRecs
	return s, nil
}

// walkOpen walks the active file's first size bytes through the fd Open
// holds, decoding each line once for two readings: a scan's (every valid
// line counts, a final unterminated one included) and Recover's (the
// salvage prefix ends at the first bad or unterminated line).
func (s *Store) walkOpen(size int64) error {
	if size == 0 {
		return nil
	}
	var lines lineCache
	return walkLines(io.NewSectionReader(s.f, 0, size), maxLineBytes, func(line []byte, terminated bool) bool {
		// A scan drops one '\r' before the '\n'; Recover keeps it, which
		// breaks a CRC tag but not a legacy line's JSON.
		payload, cr := bytes.CutSuffix(line, []byte{'\r'})
		var rec Record
		ok := lines.parseLine(payload, &rec)
		if ok {
			s.activeRecs++
			s.maxSeq = max(s.maxSeq, rec.Seq)
		}
		if !terminated {
			s.tail, s.tailOK = bytes.Clone(line), ok
			return false
		}
		if s.torn || !ok || cr && bytes.IndexByte(payload, '\t') >= 0 {
			s.torn = true
		} else {
			s.salvage += int64(len(line)) + 1
			s.salvaged++
		}
		return true
	})
}

// maxLineBytes bounds one stored line for the store's readers: scans,
// exports and Open's walk.
const maxLineBytes = 8 * 1024 * 1024

// walkLines streams r's lines through fn, each without its '\n' and with
// whether it had one (only a final line can lack it), until fn returns
// false. A line longer than maxLine fails the walk.
func walkLines(r io.Reader, maxLine int, fn func(line []byte, terminated bool) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(maxLine, 64*1024)), maxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	for sc.Scan() {
		line, terminated := bytes.CutSuffix(sc.Bytes(), []byte{'\n'})
		if !fn(line, terminated) {
			return nil
		}
	}
	return sc.Err()
}

// sealedSegments lists path's sealed segment files, oldest first.
func sealedSegments(path string) ([]string, error) {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil, fmt.Errorf("storage: glob segments: %w", err)
	}
	var sealed []string
	for _, m := range matches {
		if isSegmentName(path, m) {
			sealed = append(sealed, m)
		}
	}
	sort.Strings(sealed)
	return sealed, nil
}

// isSegmentName reports whether candidate is path + "." + 6 digits.
func isSegmentName(path, candidate string) bool {
	suffix, ok := strings.CutPrefix(candidate, path+".")
	if !ok || len(suffix) != 6 {
		return false
	}
	for i := 0; i < len(suffix); i++ {
		if suffix[i] < '0' || suffix[i] > '9' {
			return false
		}
	}
	return true
}

// Path returns the active file path.
func (s *Store) Path() string { return s.path }

// MaxSeq returns the highest Record.Seq among the records read at Open
// and appended since, or 0 when none carries one. Recover does not lower
// it.
func (s *Store) MaxSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq
}

// Count returns the number of records (excluding any corrupt lines).
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Append validates and persists records atomically with respect to other
// Append calls. It encodes the whole batch before writing any of it, so a
// record that fails to validate or encode leaves nothing on disk. With
// SyncEveryAppend, the batch is durable on return; concurrent batches
// share fsyncs (group commit), so appenders serialize only on the
// in-memory write, not the disk flush.
func (s *Store) Append(recs ...Record) error {
	size := 0
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			return err
		}
		size += lineSizeHint(&recs[i])
	}
	buf := make([]byte, 0, size)
	firstLen := 0
	for i := range recs {
		start := len(buf)
		var err error
		if buf, err = appendRecord(buf, &recs[i]); err != nil {
			return fmt.Errorf("storage: marshal: %w", err)
		}
		buf = appendCRC(buf, buf[start:])
		buf = append(buf, '\n')
		if i == 0 {
			firstLen = len(buf)
		}
	}
	s.mu.Lock()
	if _, err := s.w.Write(buf); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("storage: write: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("storage: flush: %w", err)
	}
	for i := range recs {
		s.maxSeq = max(s.maxSeq, recs[i].Seq)
	}
	s.count += len(recs)
	s.activeRecs += len(recs)
	if s.tail != nil && firstLen > 0 {
		// The first line completed the unterminated line Open found: a
		// scan now reads the two as one line.
		var rec Record
		merged := append(s.tail, buf[:firstLen-1]...)
		s.activeRecs += b2i(new(lineCache).parseLine(merged, &rec)) - b2i(s.tailOK) - 1
		s.tail = nil
	}
	s.segBytes += int64(len(buf))
	s.seq++
	mySeq := s.seq
	f := s.f
	if s.maxSeg > 0 && s.segBytes >= s.maxSeg {
		if err := s.sealLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.mu.Unlock()

	mAppendBatches.Inc()
	mAppendRecords.Add(int64(len(recs)))
	mAppendBytes.Add(int64(len(buf)))
	if s.durable {
		return s.syncTo(mySeq, f)
	}
	return nil
}

// syncTo makes every batch up to seq durable. If a concurrent appender (or
// a seal) already synced past seq, the fsync is skipped — that is the group
// commit: one disk flush covers every batch flushed to the OS before it.
func (s *Store) syncTo(seq uint64, f *os.File) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.syncedSeq >= seq {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	s.syncedSeq = seq
	return nil
}

// sealLocked rotates the active file into a read-only segment. Caller
// holds s.mu; the buffered writer is already flushed. The segment is
// fsynced before the rename so sealed data is always durable.
func (s *Store) sealLocked() error {
	s.syncMu.Lock()
	if err := s.f.Sync(); err != nil {
		s.syncMu.Unlock()
		return fmt.Errorf("storage: seal sync: %w", err)
	}
	s.syncedSeq = s.seq
	s.syncMu.Unlock()
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("storage: seal close: %w", err)
	}
	seg := fmt.Sprintf("%s.%06d", s.path, len(s.sealed)+1)
	if err := os.Rename(s.path, seg); err != nil {
		return fmt.Errorf("storage: seal rename: %w", err)
	}
	s.sealed = append(s.sealed, seg)
	s.sealedRecs += s.activeRecs
	s.activeRecs, s.salvage, s.salvaged, s.torn, s.tail = 0, 0, 0, false, nil
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: reopen after seal: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.segBytes = 0
	mSegmentsSealed.Inc()
	return nil
}

// files snapshots the paths a reader should visit: sealed segments oldest
// first, then the active file.
func (s *Store) files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.sealed...)
	return append(out, s.path)
}

// scanFile streams every valid record of one file through fn. Corrupt,
// torn and CRC-mismatched lines are skipped. The records share the
// strings and receive times the file repeats (lineCache).
func scanFile(path string, fn func(Record) error) error {
	rf, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: reopen %s: %w", path, err)
	}
	defer rf.Close()
	sc := bufio.NewScanner(rf)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	var lines lineCache
	for sc.Scan() {
		var rec Record
		if !lines.parseLine(sc.Bytes(), &rec) {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// scan streams every valid record (all segments, then the active file)
// through fn. Caller must hold no lock; scan opens its own handles so it
// can run during appends.
func (s *Store) scan(fn func(Record) error) error {
	for _, path := range s.files() {
		if err := scanFile(path, fn); err != nil {
			return err
		}
	}
	return nil
}

// All loads every record from disk.
func (s *Store) All() ([]Record, error) {
	if err := s.flush(); err != nil {
		return nil, err
	}
	out := make([]Record, 0, s.Count())
	err := s.scan(func(r Record) error { out = append(out, r); return nil })
	return out, err
}

func (s *Store) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// WriteTo streams the dataset as plain NDJSON to w (the export endpoint's
// body): CRC suffixes are stripped and corrupt lines dropped, so the wire
// format stays pure JSON-per-line regardless of the on-disk format.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	if err := s.flush(); err != nil {
		return 0, err
	}
	var n int64
	bw := bufio.NewWriter(w)
	for _, path := range s.files() {
		rf, err := os.Open(path)
		if err != nil {
			return n, err
		}
		sc := bufio.NewScanner(rf)
		sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
		for sc.Scan() {
			payload, ok := splitCRC(sc.Bytes())
			if !ok || len(payload) == 0 {
				continue
			}
			if _, err := bw.Write(payload); err != nil {
				rf.Close()
				return n, err
			}
			if err := bw.WriteByte('\n'); err != nil {
				rf.Close()
				return n, err
			}
			n += int64(len(payload)) + 1
		}
		err = sc.Err()
		rf.Close()
		if err != nil {
			return n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	mExports.Inc()
	mExportBytes.Add(n)
	return n, nil
}

// RecoverReport describes what Recover salvaged.
type RecoverReport struct {
	// SalvagedRecords is the store-wide record count after recovery.
	SalvagedRecords int
	// DroppedBytes is how much of the active file's tail was truncated.
	DroppedBytes int64
	// TruncatedAt is the active-file offset recovery cut at (its size when
	// nothing was dropped).
	TruncatedAt int64
}

// Recover salvages the active file up to the first torn or corrupt write:
// everything before the first bad line is kept, the bad line and everything
// after it is physically truncated (write-ahead-log semantics — a torn
// write means nothing after it can be trusted), and the record count is
// rebuilt. Safe to call on a live store between appends.
//
// Recover reads only the active-file bytes past the salvage point of the
// last walk (Open's, a previous Recover's, or a seal's fresh file), and
// none once a bad line has fixed the point. Sealed segments are immutable,
// so their record count is the one kept since Open.
func (s *Store) Recover() (RecoverReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return RecoverReport{}, err
	}
	st, err := s.f.Stat()
	if err != nil {
		return RecoverReport{}, fmt.Errorf("storage: recover stat: %w", err)
	}
	size := st.Size()
	if !s.torn && size > s.salvage {
		rest := size - s.salvage
		var lines lineCache
		// Recover bounds no line's length: any unread byte may be salvaged.
		err := walkLines(io.NewSectionReader(s.f, s.salvage, rest), int(rest)+1, func(line []byte, terminated bool) bool {
			var rec Record
			if !terminated || !lines.parseLine(line, &rec) {
				s.torn = true
				return false
			}
			s.salvage += int64(len(line)) + 1
			s.salvaged++
			return true
		})
		if err != nil {
			return RecoverReport{}, fmt.Errorf("storage: recover read: %w", err)
		}
	}
	dropped := size - s.salvage
	if dropped > 0 {
		if err := s.f.Truncate(s.salvage); err != nil {
			return RecoverReport{}, fmt.Errorf("storage: recover truncate: %w", err)
		}
		s.segBytes = s.salvage
		mTruncatedBytes.Add(dropped)
	}
	s.torn, s.tail = false, nil
	s.activeRecs = s.salvaged
	s.count = s.sealedRecs + s.salvaged
	mRecoveredRecords.Add(int64(s.salvaged))
	return RecoverReport{SalvagedRecords: s.count, DroppedBytes: dropped, TruncatedAt: s.salvage}, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Close flushes and closes the backing file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
