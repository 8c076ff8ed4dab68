package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// SpanExporter consumes finished spans. The obs *Exporter is the file-
// backed implementation; pipeline packages (collectserver, streaming,
// study) accept the interface so tests can substitute an in-memory sink.
type SpanExporter interface {
	ExportSpan(*Span)
}

// ExportConfig parameterizes NewExporter.
type ExportConfig struct {
	// Path is the NDJSON output file, rotated in place (Path → Path+".1")
	// beyond MaxFileBytes. Ignored when Sink is set.
	Path string
	// Sink overrides the file with a caller-supplied writer — the
	// pluggable seam (tests wedge it with a faultinject.Writer to prove
	// the exporter never blocks ingestion).
	Sink io.Writer
	// Registry is flushed as periodic metrics lines and receives the
	// exporter's own drop/volume counters. Nil uses Default.
	Registry *Registry
	// Interval is the metrics-flush period (default 15s; negative
	// disables periodic flushing — Close still writes a final snapshot).
	Interval time.Duration
	// MaxFileBytes rotates the file beyond this size (default 64 MiB;
	// only applies to Path-backed exporters).
	MaxFileBytes int64
	// Buffer bounds the span queue (default 256). A full queue drops the
	// span — counted, never blocking the caller.
	Buffer int
	// Service tags every line's resource (OTLP's service.name); default
	// "repro".
	Service string
}

// Exporter writes telemetry — completed span trees and registry metric
// snapshots — as NDJSON lines with OTLP-compatible field naming, to a
// rotating file or a pluggable sink. ExportSpan is non-blocking and
// bounded: a wedged or slow sink costs drops (counted on the registry),
// never ingestion throughput.
type Exporter struct {
	reg      *Registry
	interval time.Duration
	maxBytes int64
	service  string
	path     string

	spans chan *Span
	quit  chan struct{}
	done  chan struct{}

	mu      sync.Mutex // guards sink/file/written across worker and Close
	sink    io.Writer
	file    *os.File
	written int64

	closeOnce sync.Once

	batchesWritten *Counter
	droppedFull    *Counter
	droppedWrite   *Counter
	metricFlushes  *Counter
	bytesOut       *Counter
}

// spanRecord is the exported form of one span, one NDJSON line. Field
// names follow the OTLP/JSON span encoding (camelCase, unix-nano
// timestamps) so downstream tooling written against OTLP field names can
// consume the file.
type spanRecord struct {
	Type              string         `json:"type"`
	Service           string         `json:"service"`
	Name              string         `json:"name"`
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	StartTimeUnixNano int64          `json:"startTimeUnixNano"`
	EndTimeUnixNano   int64          `json:"endTimeUnixNano"`
	Attributes        map[string]any `json:"attributes,omitempty"`
}

// metricsRecord is one periodic registry snapshot, one NDJSON line.
type metricsRecord struct {
	Type         string         `json:"type"`
	Service      string         `json:"service"`
	TimeUnixNano int64          `json:"timeUnixNano"`
	Metrics      []metricSample `json:"metrics"`
}

type metricSample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// NewExporter opens the sink and starts the export worker.
func NewExporter(cfg ExportConfig) (*Exporter, error) {
	if cfg.Registry == nil {
		cfg.Registry = Default
	}
	if cfg.Interval == 0 {
		cfg.Interval = 15 * time.Second
	}
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = 64 << 20
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	if cfg.Service == "" {
		cfg.Service = "repro"
	}
	e := &Exporter{
		reg:      cfg.Registry,
		interval: cfg.Interval,
		maxBytes: cfg.MaxFileBytes,
		service:  cfg.Service,
		path:     cfg.Path,
		spans:    make(chan *Span, cfg.Buffer),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		sink:     cfg.Sink,
		batchesWritten: cfg.Registry.Counter("obs_export_batches_written_total",
			"Span trees fully written by the telemetry exporter.", nil),
		droppedFull: cfg.Registry.Counter("obs_export_batches_dropped_total",
			"Span trees lost by the telemetry exporter, by reason.",
			Labels{"reason": "buffer_full"}),
		droppedWrite: cfg.Registry.Counter("obs_export_batches_dropped_total",
			"Span trees lost by the telemetry exporter, by reason.",
			Labels{"reason": "write_error"}),
		metricFlushes: cfg.Registry.Counter("obs_export_metric_flushes_total",
			"Registry snapshots flushed by the telemetry exporter.", nil),
		bytesOut: cfg.Registry.Counter("obs_export_bytes_total",
			"Telemetry bytes written by the exporter.", nil),
	}
	if e.sink == nil {
		if cfg.Path == "" {
			return nil, fmt.Errorf("obs: ExportConfig needs Path or Sink")
		}
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		e.file, e.sink, e.written = f, f, st.Size()
	}
	go e.loop()
	return e, nil
}

// ExportSpan enqueues a finished span tree for export. It never blocks:
// when the buffer is full the tree is dropped and counted. Nil spans and
// spans without a trace identity are ignored.
func (e *Exporter) ExportSpan(sp *Span) {
	if sp == nil || sp.TraceID() == "" {
		return
	}
	select {
	case e.spans <- sp:
	default:
		e.droppedFull.Inc()
	}
}

// FlushMetrics writes one registry snapshot line immediately.
func (e *Exporter) FlushMetrics() error {
	samples := e.reg.Snapshot()
	rec := metricsRecord{
		Type:         "metrics",
		Service:      e.service,
		TimeUnixNano: time.Now().UnixNano(),
		Metrics:      make([]metricSample, len(samples)),
	}
	for i, s := range samples {
		ms := metricSample{Name: s.Name, Value: s.Value}
		if len(s.Labels) > 0 {
			ms.Labels = s.Labels
		}
		rec.Metrics[i] = ms
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := e.writeLine(line); err != nil {
		return err
	}
	e.metricFlushes.Inc()
	return nil
}

// Close stops the worker, drains buffered spans, flushes a final metrics
// snapshot, and closes the file. Safe to call more than once.
func (e *Exporter) Close() error {
	e.closeOnce.Do(func() { close(e.quit) })
	<-e.done
	// A span enqueued between the worker's final drain and now would
	// otherwise vanish unaccounted; count it as a buffer drop.
	for {
		select {
		case <-e.spans:
			e.droppedFull.Inc()
			continue
		default:
		}
		break
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.file != nil {
		err := e.file.Close()
		e.file = nil
		e.sink = io.Discard
		return err
	}
	return nil
}

func (e *Exporter) loop() {
	defer close(e.done)
	var tick *time.Ticker
	var tickC <-chan time.Time
	if e.interval > 0 {
		tick = time.NewTicker(e.interval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case sp := <-e.spans:
			e.writeSpanTree(sp)
		case <-tickC:
			_ = e.FlushMetrics()
		case <-e.quit:
			for {
				select {
				case sp := <-e.spans:
					e.writeSpanTree(sp)
				default:
					_ = e.FlushMetrics()
					return
				}
			}
		}
	}
}

// writeSpanTree writes one line per span in the tree. The tree is written
// atomically from the exporter's perspective: a write error drops the
// whole tree (counted once) rather than leaving half a trace behind.
func (e *Exporter) writeSpanTree(sp *Span) {
	lines, err := e.spanLines(sp, nil)
	if err == nil {
		for _, line := range lines {
			if err = e.writeLine(line); err != nil {
				break
			}
		}
	}
	if err != nil {
		e.droppedWrite.Inc()
		return
	}
	e.batchesWritten.Inc()
}

// spanLines flattens a span tree into marshaled NDJSON lines.
func (e *Exporter) spanLines(sp *Span, out [][]byte) ([][]byte, error) {
	rec := spanRecord{
		Type:              "span",
		Service:           e.service,
		Name:              sp.Name(),
		TraceID:           sp.TraceID(),
		SpanID:            sp.SpanID(),
		ParentSpanID:      sp.ParentSpanID(),
		StartTimeUnixNano: sp.start.UnixNano(),
	}
	sp.mu.Lock()
	if !sp.end.IsZero() {
		rec.EndTimeUnixNano = sp.end.UnixNano()
	}
	if len(sp.attrs) > 0 {
		rec.Attributes = make(map[string]any, len(sp.attrs))
		for _, a := range sp.attrs {
			rec.Attributes[a.Key] = a.Value
		}
	}
	sp.mu.Unlock()
	line, err := json.Marshal(rec)
	if err != nil {
		return out, err
	}
	out = append(out, line)
	for _, c := range sp.Children() {
		if out, err = e.spanLines(c, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// writeLine appends one newline-terminated line to the sink, rotating a
// path-backed file beyond the size limit.
func (e *Exporter) writeLine(line []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.file != nil && e.written+int64(len(line))+1 > e.maxBytes && e.written > 0 {
		if err := e.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := e.sink.Write(append(line, '\n'))
	e.written += int64(n)
	e.bytesOut.Add(int64(n))
	return err
}

// rotateLocked seals the current file as path+".1" (replacing any prior
// rotation) and starts a fresh one. Caller holds e.mu.
func (e *Exporter) rotateLocked() error {
	if err := e.file.Close(); err != nil {
		return err
	}
	if err := os.Rename(e.path, e.path+".1"); err != nil {
		return err
	}
	f, err := os.OpenFile(e.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		e.sink = io.Discard
		e.file = nil
		return err
	}
	e.file, e.sink, e.written = f, f, 0
	return nil
}
