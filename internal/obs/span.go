package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one timed stage of a pipeline run. Spans form a tree: study
// rendering, collation, the analysis sweeps and report rendering each hang
// off the run's root span, giving a machine-readable stage-timing profile
// (WriteJSON) and a human-readable one (WriteText).
//
// All methods are safe on a nil *Span (they no-op), so instrumented code
// can run untraced without branching at every call site.
type Span struct {
	name  string
	start time.Time

	// Propagation identity (immutable after creation): traceID is shared
	// by every span of one logical trace — across processes, via the
	// traceparent header — spanID names this span, and parent names the
	// span it hangs under ("" for roots). See propagation.go.
	traceID string
	spanID  string
	parent  string

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one span annotation, in insertion order.
type Attr struct {
	Key   string
	Value any
}

// NewTrace starts a root span with a fresh trace identity. End it before
// exporting.
func NewTrace(name string) *Span {
	return &Span{name: name, start: time.Now(), traceID: newTraceID(), spanID: newSpanID()}
}

// StartChild starts a sub-span under s, inheriting its trace identity.
// Safe to call from multiple goroutines (parallel stages each open their
// own child).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), traceID: s.traceID, spanID: newSpanID(), parent: s.spanID}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// TraceID returns the span's 32-hex-digit trace identity ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's 16-hex-digit identity ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// ParentSpanID returns the span id this span hangs under — the in-process
// parent, or the remote caller's span for NewRemoteChild spans ("" for
// roots).
func (s *Span) ParentSpanID() string {
	if s == nil {
		return ""
	}
	return s.parent
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Name returns the span's stage name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns end−start for finished spans and now−start for running
// ones.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Children returns a snapshot of the direct sub-spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span in the tree (pre-order) whose name matches,
// or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if got := c.Find(name); got != nil {
			return got
		}
	}
	return nil
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child of the context's active span (or a new root when the
// context carries none) and returns a context with the child active.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	var sp *Span
	if parent != nil {
		sp = parent.StartChild(name)
	} else {
		sp = NewTrace(name)
	}
	return ContextWithSpan(ctx, sp), sp
}

// SpanJSON is the exported form of a span tree.
type SpanJSON struct {
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"`
	DurationUS int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// Export snapshots the span tree.
func (s *Span) Export() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	out := SpanJSON{
		Name:       s.name,
		StartUS:    s.start.UnixMicro(),
		DurationUS: s.durationLocked().Microseconds(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Export())
	}
	return out
}

func (s *Span) durationLocked() time.Duration {
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// WriteJSON writes the span tree as indented JSON.
func (s *Span) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Export())
}

// WriteText writes an indented stage-timing report: one line per span with
// duration, share of the root's wall time, and attributes.
func (s *Span) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	root := s.Duration()
	if root <= 0 {
		root = time.Nanosecond
	}
	return s.writeText(w, 0, root)
}

func (s *Span) writeText(w io.Writer, depth int, root time.Duration) error {
	d := s.Duration()
	width := 36 - 2*depth
	if width < 1 {
		width = 1
	}
	line := fmt.Sprintf("%s%-*s %10s %6.1f%%",
		strings.Repeat("  ", depth), width, s.name,
		d.Round(time.Microsecond), 100*float64(d)/float64(root))
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	if len(attrs) > 0 {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = fmt.Sprintf("%s=%v", a.Key, a.Value)
		}
		line += "  " + strings.Join(parts, " ")
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := c.writeText(w, depth+1, root); err != nil {
			return err
		}
	}
	return nil
}

// StageDurations flattens the tree into name → summed duration across all
// spans sharing a name (sweep cells, per-vector collations). Useful for
// diffing two trace files.
func (s *Span) StageDurations() map[string]time.Duration {
	out := make(map[string]time.Duration)
	s.accumulate(out)
	return out
}

func (s *Span) accumulate(out map[string]time.Duration) {
	if s == nil {
		return
	}
	out[s.name] += s.Duration()
	for _, c := range s.Children() {
		c.accumulate(out)
	}
}
