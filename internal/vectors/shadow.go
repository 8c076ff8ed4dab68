package vectors

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/webaudio"
)

// Shadow auditing: the block DSP engine's bit-identity to the per-sample
// reference engine is a correctness invariant every entropy number in the
// study rests on. The differential test suite enforces it at test time; the
// ShadowAuditor enforces it continuously in production by re-rendering a
// deterministic 1-in-N sample of cache-miss renders through BOTH engines in
// lockstep and comparing every node's output down to the Float32bits. A
// divergence is attributed to a specific compiled op, quantum and sample,
// exported as a counter the watch layer alerts on, and retained in a bounded
// ring of flight records dumpable at /debug/render/divergence.

// FlightRecord is one confirmed engine divergence with everything needed to
// reproduce it: the platform-class key, the vector and capture state, and
// the op-level attribution from the lockstep comparison.
type FlightRecord struct {
	// Time is when the divergence was observed.
	Time time.Time `json:"time"`
	// StackKey identifies the audio stack (trait corner) being rendered.
	StackKey string `json:"stack_key"`
	// Vector is the fingerprinting vector whose graph diverged.
	Vector string `json:"vector"`
	// Offset is the capture offset of the sampled render.
	Offset int `json:"capture_offset"`
	// SampleRate is the runner's context rate.
	SampleRate float64 `json:"sample_rate"`
	// Engines names the pair compared (got vs want).
	Engines string `json:"engines"`
	// Divergence locates the first mismatch: op index in the compiled
	// program, node label, quantum, sample and the differing bits.
	Divergence webaudio.Divergence `json:"divergence"`
}

// ShadowConfig parameterizes NewShadowAuditor.
type ShadowConfig struct {
	// Every samples 1 render in Every cache misses (deterministically, by
	// key hash — the same key is always or never audited). Default 8;
	// 1 audits everything.
	Every int
	// RingSize bounds retained flight records (default 64, oldest evicted).
	RingSize int
	// Registry receives the audit metrics; nil uses obs.Default.
	Registry *obs.Registry
	// MaxQuanta caps the lockstep window per audit (default: the sampled
	// render's own length, which DC bounds at 40 and the FFT family at
	// captureBaseQuanta+offset).
	MaxQuanta int
}

// ShadowAuditor re-renders sampled production renders through the block and
// reference engines in lockstep and records any bit divergence. Safe for
// concurrent use.
type ShadowAuditor struct {
	every     int
	ringSize  int
	maxQuanta int

	checks   *obs.Counter
	diverged *obs.Counter
	errs     *obs.Counter
	reg      *obs.Registry

	mu   sync.Mutex
	ring []FlightRecord
	next int
	full bool
}

// NewShadowAuditor builds an auditor and registers its metrics.
func NewShadowAuditor(cfg ShadowConfig) *ShadowAuditor {
	if cfg.Every <= 0 {
		cfg.Every = 8
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	return &ShadowAuditor{
		every:     cfg.Every,
		ringSize:  cfg.RingSize,
		maxQuanta: cfg.MaxQuanta,
		reg:       cfg.Registry,
		checks: cfg.Registry.Counter("vectors_shadow_checks_total",
			"production renders re-rendered through the lockstep engine comparison", nil),
		diverged: cfg.Registry.Counter("vectors_render_divergence_total",
			"confirmed block-vs-reference engine divergences", nil),
		errs: cfg.Registry.Counter("vectors_shadow_errors_total",
			"shadow audits that failed to build or render the probe graphs", nil),
	}
}

// Sampled reports whether (stackKey, id, offset) falls in the audit sample.
// Deterministic: the decision depends only on the key, so re-renders of the
// same key are audited consistently and a study run's audit set is
// reproducible.
func (a *ShadowAuditor) Sampled(stackKey string, id ID, offset int) bool {
	if a.every <= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(stackKey))
	fmt.Fprintf(h, "|%d|%d", int(id), offset)
	return h.Sum64()%uint64(a.every) == 0
}

// MaybeAudit runs the lockstep audit if the key is sampled. Called
// synchronously from the cache miss path: the audit re-renders the graph
// twice, so sampling (ShadowConfig.Every) is the cost control.
func (a *ShadowAuditor) MaybeAudit(stackKey string, r *Runner, id ID, offset int) {
	if !a.Sampled(stackKey, id, offset) {
		return
	}
	a.Audit(stackKey, r, id, offset)
}

// Audit re-renders (id, offset) on r's audio stack under the block and
// reference engines in lockstep and records the first divergence, if any.
// Returns the divergence record for callers that want it (nil when the
// engines agree).
func (a *ShadowAuditor) Audit(stackKey string, r *Runner, id ID, offset int) *FlightRecord {
	a.checks.Inc()
	got, quanta, err := r.probe(id, offset, webaudio.EngineBlock)
	if err != nil {
		a.errs.Inc()
		return nil
	}
	want, _, err := r.probe(id, offset, webaudio.EngineReference)
	if err != nil {
		a.errs.Inc()
		return nil
	}
	if a.maxQuanta > 0 && quanta > a.maxQuanta {
		quanta = a.maxQuanta
	}
	div, err := webaudio.LockstepCompare(got, want, quanta)
	if err != nil {
		a.errs.Inc()
		return nil
	}
	if div == nil {
		return nil
	}
	a.diverged.Inc()
	a.observeDivergence(div)
	rec := FlightRecord{
		Time:       time.Now().UTC(),
		StackKey:   stackKey,
		Vector:     id.String(),
		Offset:     offset,
		SampleRate: r.rate,
		Engines:    "block vs reference",
		Divergence: *div,
	}
	a.mu.Lock()
	if len(a.ring) < a.ringSize {
		a.ring = append(a.ring, rec)
	} else {
		a.ring[a.next] = rec
		a.full = true
	}
	a.next = (a.next + 1) % a.ringSize
	a.mu.Unlock()
	return &rec
}

// divergenceOffsetBuckets cover the absolute frame offset of a first
// divergence: within the first quantum, early in the render, or deep into
// the capture window (the FFT family renders 96+ quanta ≈ 12k frames).
func divergenceOffsetBuckets() []float64 {
	return []float64{128, 256, 512, 1024, 2048, 4096, 8192, 16384}
}

// observeDivergence records where in the render the op class first broke.
func (a *ShadowAuditor) observeDivergence(d *webaudio.Divergence) {
	op := d.Op
	if i := strings.IndexByte(op, ':'); i >= 0 {
		op = op[:i]
	}
	a.reg.Histogram("vectors_divergence_first_offset_frames",
		"absolute frame offset of the first diverging sample, by op class",
		divergenceOffsetBuckets(), obs.Labels{"op": op}).
		Observe(float64(d.Quantum*webaudio.RenderQuantum + d.Sample))
}

// Records returns the retained flight records, oldest first.
func (a *ShadowAuditor) Records() []FlightRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FlightRecord, 0, len(a.ring))
	if a.full {
		out = append(out, a.ring[a.next:]...)
		out = append(out, a.ring[:a.next]...)
		return out
	}
	return append(out, a.ring...)
}

// ShadowSummary is the flight-recorder dump served by Handler.
type ShadowSummary struct {
	// SampleEvery is the configured 1-in-N audit rate.
	SampleEvery int `json:"sample_every"`
	// Checks counts completed lockstep audits.
	Checks int64 `json:"checks"`
	// Divergences counts confirmed engine mismatches.
	Divergences int64 `json:"divergences"`
	// Errors counts audits that failed before comparison.
	Errors int64 `json:"errors"`
	// Records lists retained flight records, oldest first.
	Records []FlightRecord `json:"records"`
}

// Summary snapshots the auditor's state.
func (a *ShadowAuditor) Summary() ShadowSummary {
	return ShadowSummary{
		SampleEvery: a.every,
		Checks:      a.checks.Value(),
		Divergences: a.diverged.Value(),
		Errors:      a.errs.Value(),
		Records:     a.Records(),
	}
}

// Handler serves the flight-recorder dump (GET → ShadowSummary JSON).
func (a *ShadowAuditor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Summary())
	})
}

// probe builds the vector's graph on a fresh context pinned to engine e and
// returns the context plus the production render's quantum count — the
// lockstep window that covers exactly what a real render executes.
func (r *Runner) probe(id ID, offset int, e webaudio.Engine) (*webaudio.Context, int, error) {
	if id == DC {
		oc := webaudio.NewOfflineContext(dcRenderFrames, 44100, r.traits)
		oc.SetEngine(e)
		buildDCGraph(oc.Context)
		return oc.Context, dcRenderQuanta, nil
	}

	rt := webaudio.NewRealtimeSim(r.rate, r.traits)
	rt.SetEngine(e)
	if _, err := buildLiveGraph(rt, id); err != nil {
		return nil, 0, err
	}
	return rt.Context, captureBaseQuanta + offset, nil
}
