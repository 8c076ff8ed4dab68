package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// The record codec writes and reads a stored line's JSON payload without
// reflection. appendRecord writes exactly the bytes json.Marshal writes.
// decodeRecord parses only the shape appendRecord emits for plain strings
// and hands every other payload (legacy, escaped, spaced, reordered or
// unknown keys) to json.Unmarshal, so a store accepts the same lines and
// returns the same records as one decoded by encoding/json alone.
// FuzzRecordCodec holds both directions to encoding/json.

// appendRecord appends r's JSON encoding to dst: the bytes json.Marshal(r)
// returns, or its error with dst unchanged.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	if b, ok := appendCanonical(dst, r); ok {
		return b, nil
	}
	// A NaN or infinite Sum, or a ReceivedAt RFC 3339 cannot express:
	// json.Marshal reports the error.
	b, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// lineSizeHint bounds from above the length of r's stored line when none
// of its strings needs escaping: its strings, its keys, the widest
// numbers and time they can take, and the CRC tag.
func lineSizeHint(r *Record) int {
	n := len(`{"session_id":"","user_id":"","vector":"","iteration":-9223372036854775808,"hash":"",`+
		`"received_at":"2006-01-02T15:04:05.999999999+07:00"}`) + crcTagLen + len("\n") +
		len(r.SessionID) + len(r.UserID) + len(r.Vector) + len(r.Hash)
	if r.Sum != 0 {
		n += len(`,"sum":-0.0000012345678901234567`)
	}
	if r.UserAgent != "" {
		n += len(`,"user_agent":""`) + len(r.UserAgent)
	}
	if len(r.Surfaces) > 0 {
		n += len(`,"surfaces":{}`)
		for k, v := range r.Surfaces {
			n += len(`"":"",`) + len(k) + len(v)
		}
	}
	if r.Seq != 0 {
		n += len(`,"seq":-9223372036854775808`)
	}
	return n
}

// appendCanonical appends r as json.Marshal encodes it: fields in
// declaration order, omitempty fields left out at their zero value. It
// reports false for the values json.Marshal refuses.
func appendCanonical(b []byte, r *Record) ([]byte, bool) {
	b = append(b, `{"session_id":`...)
	b = appendString(b, r.SessionID)
	b = append(b, `,"user_id":`...)
	b = appendString(b, r.UserID)
	b = append(b, `,"vector":`...)
	b = appendString(b, r.Vector)
	b = append(b, `,"iteration":`...)
	b = strconv.AppendInt(b, int64(r.Iteration), 10)
	b = append(b, `,"hash":`...)
	b = appendString(b, r.Hash)
	if r.Sum != 0 {
		if math.IsNaN(r.Sum) || math.IsInf(r.Sum, 0) {
			return b, false
		}
		b = append(b, `,"sum":`...)
		b = appendFloat(b, r.Sum)
	}
	if r.UserAgent != "" {
		b = append(b, `,"user_agent":`...)
		b = appendString(b, r.UserAgent)
	}
	if len(r.Surfaces) > 0 {
		b = append(b, `,"surfaces":`...)
		b = appendSurfaces(b, r.Surfaces)
	}
	b = append(b, `,"received_at":"`...)
	n := len(b)
	b = r.ReceivedAt.AppendFormat(b, time.RFC3339Nano)
	if !strictRFC3339(b[n:]) {
		return b, false
	}
	b = append(b, '"')
	if r.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, r.Seq, 10)
	}
	return append(b, '}'), true
}

// strictRFC3339 reports whether t, a time formatted as RFC3339Nano, is
// one time.Time.MarshalJSON accepts: a four-digit year and a zone offset
// under 24 hours.
func strictRFC3339(t []byte) bool {
	if len(t) < len("0000-00-00T00:00:00Z") || t[4] != '-' {
		return false
	}
	if t[len(t)-1] == 'Z' {
		return true
	}
	sign, hh := t[len(t)-len("+07:00")], t[len(t)-len("07:00"):]
	return (sign == '+' || sign == '-') && 10*(hh[0]-'0')+(hh[1]-'0') < 24
}

// appendFloat appends f as encoding/json writes a float64: like %g, but
// with exponents only below 1e-6 and from 1e21 on, and unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// appendSurfaces appends m as encoding/json writes a map[string]string:
// keys sorted.
func appendSurfaces(b []byte, m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = appendString(b, m[k])
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes a string with HTML
// escaping on: <, > and & as \u00XX, invalid UTF-8 as \ufffd, and U+2028
// and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// A lineCache holds what one walk of a store file shares between the
// records it decodes: every distinct string its canonical lines have
// held, and the last received_at literal with its parsed time, which a
// submission's records repeat. Records still own their Surfaces maps.
// The zero value is ready to use; a walk keeps one for its lines and
// drops it with them.
type lineCache struct {
	strs map[string]string
	at   []byte
	atT  time.Time
}

// decodeRecord fills r, which must be zero, as json.Unmarshal(payload, r)
// does.
func (c *lineCache) decodeRecord(payload []byte, r *Record) error {
	if rec, ok := c.parseCanonical(payload); ok {
		*r = rec
		return nil
	}
	return json.Unmarshal(payload, r)
}

// parseCanonical parses a payload of the shape appendRecord emits: its key
// order, optional keys absent or present, no whitespace, strings without
// escapes or control bytes and in valid UTF-8, and JSON number literals,
// integers for the integer fields. It reports false for any other
// payload. Every payload it accepts is valid JSON that json.Unmarshal
// decodes to the same record.
func (c *lineCache) parseCanonical(p []byte) (Record, bool) {
	var r Record
	d := recordDecoder{p: p, c: c}
	d.lit(`{"session_id":`)
	r.SessionID = d.str()
	d.lit(`,"user_id":`)
	r.UserID = d.str()
	d.lit(`,"vector":`)
	r.Vector = d.str()
	d.lit(`,"iteration":`)
	r.Iteration = int(d.int(strconv.IntSize))
	d.lit(`,"hash":`)
	r.Hash = d.str()
	if d.opt(`,"sum":`) {
		r.Sum = d.float()
	}
	if d.opt(`,"user_agent":`) {
		r.UserAgent = d.str()
	}
	if d.opt(`,"surfaces":{`) {
		r.Surfaces = d.surfaces()
	}
	d.lit(`,"received_at":`)
	d.time(&r.ReceivedAt)
	if d.opt(`,"seq":`) {
		r.Seq = d.int(64)
	}
	d.lit("}")
	return r, !d.bad && d.i == len(p)
}

// recordDecoder reads a payload left to right. The first byte that does
// not fit the canonical shape sets bad, and every later step is a no-op.
type recordDecoder struct {
	p   []byte
	i   int
	bad bool
	c   *lineCache
}

// opt consumes s if the payload continues with it.
func (d *recordDecoder) opt(s string) bool {
	if d.bad || len(d.p)-d.i < len(s) || string(d.p[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s, which the payload must continue with.
func (d *recordDecoder) lit(s string) {
	if !d.opt(s) {
		d.bad = true
	}
}

// quoted consumes a string literal that needs no unquoting and returns it
// with its quotes.
func (d *recordDecoder) quoted() []byte {
	if !d.bad && d.i < len(d.p) && d.p[d.i] == '"' {
		if n := bytes.IndexByte(d.p[d.i+1:], '"'); n >= 0 && plain(d.p[d.i+1:d.i+1+n]) {
			q := d.p[d.i : d.i+n+2]
			d.i += n + 2
			return q
		}
	}
	d.bad = true
	return nil
}

// plain reports whether string content s reads as itself: no escape, no
// control byte, valid UTF-8. It tests eight bytes at a time: for a word
// x, (x - 0x2020…) &^ x has a high bit set exactly when some byte of x
// is below ' ', and (y - 0x0101…) &^ y exactly when some byte of y is
// zero, which in y = x ^ 0x5c5c… is a backslash in x.
func plain(s []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	var high uint64
	i := 0
	for ; len(s)-i >= 8; i += 8 {
		x := binary.LittleEndian.Uint64(s[i:])
		bs := x ^ '\\'*ones
		if ((x-' '*ones)&^x|(bs-ones)&^bs)&highs != 0 {
			return false
		}
		high |= x
	}
	for _, c := range s[i:] {
		if c < ' ' || c == '\\' {
			return false
		}
		high |= uint64(c)
	}
	return high&highs == 0 || utf8.Valid(s)
}

// str consumes a string literal and returns its content, the walk's copy
// when an earlier line held the same bytes. The map index with a
// converted key allocates nothing.
func (d *recordDecoder) str() string {
	q := d.quoted()
	if d.bad {
		return ""
	}
	b := q[1 : len(q)-1]
	if s, ok := d.c.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.c.strs == nil {
		d.c.strs = map[string]string{}
	}
	d.c.strs[s] = s
	return s
}

// time decodes a string literal through time.Time's UnmarshalJSON, the
// method json.Unmarshal calls with the same bytes, or takes the walk's
// last parsed time when the literal repeats it.
func (d *recordDecoder) time(t *time.Time) {
	q := d.quoted()
	switch {
	case d.bad:
	case bytes.Equal(q, d.c.at):
		*t = d.c.atT
	case t.UnmarshalJSON(q) != nil:
		d.bad = true
	default:
		d.c.at, d.c.atT = append(d.c.at[:0], q...), *t
	}
}

// number consumes a JSON number literal.
func (d *recordDecoder) number() []byte {
	if d.bad {
		return nil
	}
	p, i := d.p, d.i
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		i = digits(p, i)
	default:
		d.bad = true
		return nil
	}
	if i < len(p) && p[i] == '.' {
		if i = digits(p, i+1); p[i-1] == '.' {
			d.bad = true
			return nil
		}
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		j := digits(p, i)
		if j == i {
			d.bad = true
			return nil
		}
		i = j
	}
	lit := p[d.i:i]
	d.i = i
	return lit
}

// digits returns the index of the first non-digit byte of p at or after i.
func digits(p []byte, i int) int {
	for i < len(p) && '0' <= p[i] && p[i] <= '9' {
		i++
	}
	return i
}

// int decodes an integer literal that fits bits, as json.Unmarshal's
// strconv.ParseInt does; a fraction, exponent or overflow is not canonical.
func (d *recordDecoder) int(bits int) int64 {
	lit := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *recordDecoder) float() float64 {
	lit := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

// surfaces decodes an object of strings whose '{' is consumed. Like
// json.Unmarshal, a repeated key keeps its last value.
func (d *recordDecoder) surfaces() map[string]string {
	m := map[string]string{}
	if d.opt("}") {
		return m
	}
	for !d.bad {
		k := d.str()
		d.lit(":")
		m[k] = d.str()
		if d.opt("}") {
			return m
		}
		d.lit(",")
	}
	return nil
}
