package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is a minimal parser for the Prometheus text exposition format
// (the subset WriteTo emits). The exposition tests golden-parse /metrics
// output through it, and operational tooling can diff two scrapes without
// pulling in a client library.

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the sample name (histogram samples keep their _bucket/_sum/
	// _count suffix).
	Name string
	// Labels holds the label pairs, including histogram "le".
	Labels map[string]string
	// Value is the sample value.
	Value float64
	// Type is the declaring family's kind ("counter", "gauge",
	// "histogram"). Registry.Snapshot always fills it; the text parser
	// leaves it empty (use Exposition.Types there). Consumers needing
	// cumulative semantics (the series store's delta queries) treat
	// counter and histogram samples as monotonic.
	Type string
}

// Exposition is a parsed scrape: declared type per family plus every
// sample in input order.
type Exposition struct {
	// Types maps family name → declared TYPE (counter, gauge, histogram).
	Types map[string]string
	// Help maps family name → HELP text.
	Help map[string]string
	// Samples lists every value line in input order.
	Samples []Sample
}

// ParseExposition parses Prometheus text-format input, validating the
// structure WriteTo promises: TYPE before samples, well-formed label
// blocks, numeric values, and cumulative histogram buckets ending in
// le="+Inf" with a consistent _count.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: make(map[string]string), Help: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := exp.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, ok := exp.Types[familyOf(s.Name)]; !ok {
			return nil, fmt.Errorf("line %d: sample %s precedes its # TYPE", lineNo, s.Name)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := exp.validateHistograms(); err != nil {
		return nil, err
	}
	return exp, nil
}

func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if prev, ok := e.Types[fields[2]]; ok && prev != fields[3] {
			return fmt.Errorf("family %s re-declared as %s (was %s)", fields[2], fields[3], prev)
		}
		e.Types[fields[2]] = fields[3]
	case "HELP":
		if len(fields) == 4 {
			e.Help[fields[2]] = fields[3]
		}
	}
	return nil
}

// familyOf strips histogram sample suffixes back to the declared family
// name.
func familyOf(sample string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suffix); ok {
			return base
		}
	}
	return sample
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("expected 'name value', got %q", line)
		}
		s.Name, rest = fields[0], fields[1]
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func validMetricName(name string) bool {
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseLabels(block string, into map[string]string) error {
	rest := block
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label block %q", block)
		}
		key := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", block)
		}
		val, n, err := readQuoted(rest)
		if err != nil {
			return fmt.Errorf("label %s in %q: %w", key, block, err)
		}
		into[key] = val
		rest = rest[n:]
		rest = strings.TrimPrefix(rest, ",")
	}
	return nil
}

// readQuoted consumes a leading double-quoted string (with \\, \n, \"
// escapes) and returns its value and the bytes consumed.
func readQuoted(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated quoted string")
}

// validateHistograms checks every histogram family: buckets cumulative,
// terminal le="+Inf" bucket present and equal to _count.
func (e *Exposition) validateHistograms() error {
	type hist struct {
		buckets []Sample
		count   map[string]float64 // labelKey (sans le) → _count value
	}
	hists := map[string]*hist{}
	for fam, typ := range e.Types {
		if typ == "histogram" {
			hists[fam] = &hist{count: map[string]float64{}}
		}
	}
	for _, s := range e.Samples {
		fam := familyOf(s.Name)
		h, ok := hists[fam]
		if !ok {
			continue
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			h.buckets = append(h.buckets, s)
		case strings.HasSuffix(s.Name, "_count"):
			h.count[labelKeyWithoutLE(s.Labels)] = s.Value
		}
	}
	for fam, h := range hists {
		bySeries := map[string][]Sample{}
		var order []string
		for _, b := range h.buckets {
			k := labelKeyWithoutLE(b.Labels)
			if _, seen := bySeries[k]; !seen {
				order = append(order, k)
			}
			bySeries[k] = append(bySeries[k], b)
		}
		for _, k := range order {
			buckets := bySeries[k]
			last := buckets[len(buckets)-1]
			if last.Labels["le"] != "+Inf" {
				return fmt.Errorf("histogram %s{%s}: missing le=\"+Inf\" terminal bucket", fam, k)
			}
			prev := -1.0
			for _, b := range buckets {
				if b.Value < prev {
					return fmt.Errorf("histogram %s{%s}: non-cumulative buckets", fam, k)
				}
				prev = b.Value
			}
			if c, ok := h.count[k]; ok && c != last.Value {
				return fmt.Errorf("histogram %s{%s}: _count %v != +Inf bucket %v", fam, k, c, last.Value)
			}
		}
	}
	return nil
}

func labelKeyWithoutLE(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}
