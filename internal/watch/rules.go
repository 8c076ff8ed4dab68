// Package watch is the measurement-health layer over the live pipeline:
// streaming detectors that watch the incremental analytics (internal/
// streaming) and the metrics registry (internal/obs) for the failure
// modes that silently ruin a fingerprinting study — a vector's entropy
// collapsing (a browser update flattening a fingerprint surface, or a
// stuck renderer submitting one hash for everyone), the collation graph
// churning (cluster structure thrashing instead of stabilizing), and the
// ingest error budget burning (the server turning away the population).
//
// A Monitor evaluates a declarative rule table at fixed applied-record
// intervals, driven by the engine's per-batch observer hook rather than
// wall-clock timers, so a seeded replay produces the identical alert
// sequence every run — the property the golden tests pin.
package watch

// Rule kinds: each selects one detector in monitor.go.
const (
	// KindEntropyCollapse tracks per-row normalized entropy from the
	// engine's live diversity table with an EWMA mean/variance and fires
	// when a value falls more than ZMax floored standard deviations below
	// the smoothed mean — the "everyone suddenly hashes alike" failure.
	KindEntropyCollapse = "entropy_collapse"
	// KindClusterChurn tracks per-vector cluster-count movement between
	// evaluations and fires when merges outpace population growth:
	// |Δclusters − Δusers| per applied record above MaxChurn.
	KindClusterChurn = "cluster_churn"
	// KindErrorBudget reads two counter series from the metrics registry
	// (errors and totals) and fires when the inter-evaluation error rate
	// burns the SLO's budget faster than MaxBurn — the standard
	// burn-rate alert, driven by record progress instead of wall time.
	KindErrorBudget = "error_budget"
)

// Rule is one declarative watcher. Zero fields take the documented
// defaults in normalize(); unused fields for a kind are ignored.
type Rule struct {
	// Name identifies the rule in alerts, metrics and logs. Required.
	Name string
	// Kind selects the detector (Kind* constants). Required.
	Kind string
	// Vector restricts entropy/churn rules to one diversity/cluster row
	// by name ("" watches every row, one alert subject per row).
	Vector string
	// Every evaluates the rule once per Every applied records
	// (default 64).
	Every int
	// For requires this many consecutive breaching evaluations before a
	// pending alert fires (default 1: fire on first breach).
	For int

	// MinSamples is how many evaluations the EWMA must absorb before
	// z-scores are trusted (entropy rules only; default 8).
	MinSamples int
	// Alpha is the EWMA smoothing factor in (0,1] (default 0.3).
	Alpha float64
	// ZMax is the collapse threshold in floored standard deviations
	// (default 4).
	ZMax float64

	// MaxChurn is the churn-rate threshold in cluster moves per applied
	// record (churn rules only; default 0.5).
	MaxChurn float64

	// ErrorMetric / TotalMetric name the registry counter families an
	// error-budget rule reads; series are summed over every sample whose
	// labels contain ErrorLabels / TotalLabels as a subset.
	ErrorMetric string
	TotalMetric string
	ErrorLabels map[string]string
	TotalLabels map[string]string
	// SLO is the success objective in (0,1), e.g. 0.99 (default 0.99);
	// the error budget is 1−SLO.
	SLO float64
	// MaxBurn is the burn-rate threshold: 1.0 means errors arrive exactly
	// at the rate that exhausts the budget (default 1).
	MaxBurn float64
}

// normalize fills a rule's defaulted fields in place.
func (r *Rule) normalize() {
	if r.Every <= 0 {
		r.Every = 64
	}
	if r.For <= 0 {
		r.For = 1
	}
	if r.MinSamples <= 0 {
		r.MinSamples = 8
	}
	if r.Alpha <= 0 || r.Alpha > 1 {
		r.Alpha = 0.3
	}
	if r.ZMax <= 0 {
		r.ZMax = 4
	}
	if r.MaxChurn <= 0 {
		r.MaxChurn = 0.5
	}
	if r.SLO <= 0 || r.SLO >= 1 {
		r.SLO = 0.99
	}
	if r.MaxBurn <= 0 {
		r.MaxBurn = 1
	}
}

// DefaultRules is the stock rule table a `fpserver -watch` run uses: one
// entropy watcher over every diversity row, one churn watcher over every
// vector, and an ingest error-budget watcher over the server's request
// counters (5xx responses against all responses on the submission route).
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "entropy-collapse",
			Kind: KindEntropyCollapse,
			For:  2,
		},
		{
			Name: "cluster-churn",
			Kind: KindClusterChurn,
			For:  2,
		},
		{
			Name:        "ingest-error-budget",
			Kind:        KindErrorBudget,
			ErrorMetric: "fpserver_requests_total",
			ErrorLabels: map[string]string{"route": "/api/v1/fingerprints", "class": "5xx"},
			TotalMetric: "fpserver_requests_total",
			TotalLabels: map[string]string{"route": "/api/v1/fingerprints"},
		},
		{
			// Burn-rate alert over the verification decision latency SLO:
			// fpserver increments the slow counter for every decision served
			// over Config.VerifySLO, so a sustained slow fraction above 1%
			// (SLO 0.99) burns the budget and fires. Inert without -verify —
			// both series then stay absent and the rule never breaches.
			Name:        "verify-latency",
			Kind:        KindErrorBudget,
			ErrorMetric: "fpserver_verify_slow_total",
			TotalMetric: "fpserver_verify_requests_total",
			SLO:         0.99,
		},
	}
}
