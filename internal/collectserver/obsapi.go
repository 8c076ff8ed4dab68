package collectserver

import (
	"fmt"
	"net/http"
	"time"
)

// Flight-recorder routes: thin reads over the obs/series store and the
// vectors shadow auditor. Like the analytics routes, they stay registered
// when the backing subsystem is off and answer with a stable error code, so
// clients can distinguish "not enabled" from "not found".

// seriesStore returns true when the series store is configured, else
// answers 503 with the stable series_disabled code.
func (s *Server) seriesStore(w http.ResponseWriter) bool {
	if s.cfg.Series == nil {
		respondError(w, http.StatusServiceUnavailable, CodeSeriesDisabled,
			"metric time-series store not enabled; start the server with -series")
		return false
	}
	return true
}

// handleObsQuery serves GET /api/v1/obs/query?metric=NAME[&range=10m][&delta=true]:
// one metric's retained time-series, optionally restricted to the trailing
// range and converted to per-tick deltas (counters/histograms only).
func (s *Server) handleObsQuery(w http.ResponseWriter, r *http.Request) {
	if !s.seriesStore(w) {
		return
	}
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		respondError(w, http.StatusBadRequest, CodeBadRequest, "metric query parameter is required")
		return
	}
	var since time.Time
	if rng := q.Get("range"); rng != "" {
		d, err := time.ParseDuration(rng)
		if err != nil || d <= 0 {
			respondError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("range %q is not a positive duration (try 10m, 1h)", rng))
			return
		}
		since = s.cfg.Now().Add(-d)
	}
	delta := false
	switch v := q.Get("delta"); v {
	case "", "false", "0":
	case "true", "1":
		delta = true
	default:
		respondError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("delta %q is not a boolean", v))
		return
	}
	res, ok := s.cfg.Series.Query(metric, since, delta)
	if !ok {
		respondError(w, http.StatusNotFound, CodeUnknownMetric,
			fmt.Sprintf("metric %q has never been snapshotted; list /api/v1/obs/series", metric))
		return
	}
	respondJSON(w, http.StatusOK, res)
}

// obsSeriesResponse is the catalog payload of GET /api/v1/obs/series.
type obsSeriesResponse struct {
	// IntervalSeconds is the store's snapshot tick.
	IntervalSeconds float64 `json:"interval_seconds"`
	// Metrics lists every retained metric, name-ordered.
	Metrics any `json:"metrics"`
}

// handleObsSeries serves the compact catalog of retained metrics.
func (s *Server) handleObsSeries(w http.ResponseWriter, r *http.Request) {
	if !s.seriesStore(w) {
		return
	}
	respondJSON(w, http.StatusOK, obsSeriesResponse{
		IntervalSeconds: s.cfg.Series.Interval().Seconds(),
		Metrics:         s.cfg.Series.Catalog(),
	})
}
