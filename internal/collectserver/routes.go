package collectserver

import (
	"net/http"
	"strings"
)

// The route table is the single source of truth for the server's surface:
// Handler registers from it, GET /api/v1 serves it as a machine-readable
// catalog, and routeLabel derives its bounded-cardinality label set from
// it. Adding a route here is the only step — the catalog and the metrics
// labels cannot drift from what is actually mounted.

// Route describes one served route. The JSON shape is the catalog entry of
// GET /api/v1.
type Route struct {
	// Method and Path form the ServeMux pattern ("METHOD /path").
	Method string `json:"method"`
	Path   string `json:"path"`
	// Feature names the server flag that must be enabled for the route to
	// answer with data; a disabled feature answers 503 with the stable
	// <feature>_disabled code. Empty means always on.
	Feature string `json:"feature,omitempty"`
	// ErrorCodes lists the stable v1 error codes this route's handler can
	// answer with. Codes any route can hit (overloaded, internal) live in
	// the catalog's global list instead.
	ErrorCodes []string `json:"error_codes,omitempty"`
	// Envelope reports whether responses use the typed v1 envelope.
	// /healthz, /metrics and /debug/* predate the versioned surface.
	Envelope bool `json:"envelope"`

	handler func(*Server, http.ResponseWriter, *http.Request)
}

// routeTable returns the full table. Handlers are method expressions so the
// table itself stays a package-level constant shape, bindable to any
// Server.
func routeTable() []Route {
	return []Route{
		{Method: "GET", Path: "/healthz",
			handler: (*Server).handleHealth},
		{Method: "GET", Path: "/api/v1", Envelope: true,
			handler: (*Server).handleCatalog},
		{Method: "GET", Path: "/api/v1/study", Envelope: true,
			handler: (*Server).handleStudy},
		{Method: "POST", Path: "/api/v1/sessions", Envelope: true,
			ErrorCodes: []string{CodeBadRequest, CodeConsentRequired, CodeRateLimited, CodeInternal},
			handler:    (*Server).handleNewSession},
		{Method: "POST", Path: "/api/v1/fingerprints", Envelope: true,
			ErrorCodes: []string{CodeBadRequest, CodeBatchTooLarge, CodeUnauthorized,
				CodeQuotaExceeded, CodeRateLimited, CodeInvalidRecord, CodeStorageFailure},
			handler: (*Server).handleSubmit},
		{Method: "POST", Path: "/api/v1/verify", Feature: "verify", Envelope: true,
			ErrorCodes: []string{CodeBadRequest, CodeInvalidRecord, CodeUnknownUser, CodeVerifyDisabled},
			handler:    (*Server).handleVerify},
		{Method: "GET", Path: "/api/v1/stats", Envelope: true,
			ErrorCodes: []string{CodeBadRequest, CodeStorageFailure},
			handler:    (*Server).handleStats},
		{Method: "GET", Path: "/api/v1/export", Feature: "export",
			ErrorCodes: []string{CodeExportDisabled, CodeUnauthorized},
			handler:    (*Server).handleExport},
		{Method: "GET", Path: "/api/v1/analytics/entropy", Feature: "analytics", Envelope: true,
			ErrorCodes: []string{CodeAnalyticsDisabled},
			handler:    (*Server).handleAnalyticsEntropy},
		{Method: "GET", Path: "/api/v1/analytics/clusters", Feature: "analytics", Envelope: true,
			ErrorCodes: []string{CodeAnalyticsDisabled},
			handler:    (*Server).handleAnalyticsClusters},
		{Method: "GET", Path: "/api/v1/analytics/stability", Feature: "analytics", Envelope: true,
			ErrorCodes: []string{CodeAnalyticsDisabled},
			handler:    (*Server).handleAnalyticsStability},
		{Method: "GET", Path: "/api/v1/analytics/ami", Feature: "analytics", Envelope: true,
			ErrorCodes: []string{CodeAnalyticsDisabled},
			handler:    (*Server).handleAnalyticsAMI},
		{Method: "GET", Path: "/api/v1/analytics/status", Feature: "analytics", Envelope: true,
			ErrorCodes: []string{CodeAnalyticsDisabled},
			handler:    (*Server).handleAnalyticsStatus},
		{Method: "GET", Path: "/api/v1/analytics/alerts", Feature: "watch", Envelope: true,
			ErrorCodes: []string{CodeWatchDisabled},
			handler:    (*Server).handleAnalyticsAlerts},
		{Method: "GET", Path: "/api/v1/analytics/verify", Feature: "verify", Envelope: true,
			ErrorCodes: []string{CodeVerifyDisabled},
			handler:    (*Server).handleAnalyticsVerify},
		{Method: "GET", Path: "/api/v1/obs/query", Feature: "series", Envelope: true,
			ErrorCodes: []string{CodeSeriesDisabled, CodeBadRequest, CodeUnknownMetric},
			handler:    (*Server).handleObsQuery},
		{Method: "GET", Path: "/api/v1/obs/series", Feature: "series", Envelope: true,
			ErrorCodes: []string{CodeSeriesDisabled},
			handler:    (*Server).handleObsSeries},
		{Method: "GET", Path: "/api/v1/obs/bundles", Feature: "diag", Envelope: true,
			ErrorCodes: []string{CodeDiagDisabled, CodeInternal},
			handler:    (*Server).handleDiagList},
		{Method: "POST", Path: "/api/v1/obs/bundles", Feature: "diag", Envelope: true,
			ErrorCodes: []string{CodeDiagDisabled, CodeInternal},
			handler:    (*Server).handleDiagCapture},
		{Method: "GET", Path: "/api/v1/obs/bundles/{id}", Feature: "diag", Envelope: true,
			ErrorCodes: []string{CodeDiagDisabled, CodeUnknownBundle, CodeBadRequest},
			handler:    (*Server).handleDiagBundle},
		{Method: "GET", Path: "/debug/health",
			handler: (*Server).handleDebugHealth},
		{Method: "GET", Path: "/metrics",
			handler: (*Server).handleMetrics},
	}
}

// knownRoutePaths backs routeLabel: only paths in the table become metric
// label values, so arbitrary client paths cannot mint unbounded series.
var knownRoutePaths = func() map[string]struct{} {
	m := make(map[string]struct{})
	for _, rt := range routeTable() {
		m[rt.Path] = struct{}{}
	}
	return m
}()

// wildcardRoutes backs routeLabel for table paths with a {wildcard}
// segment: a request path matching the literal prefix labels itself with
// the pattern, so /api/v1/obs/bundles/<any-id> stays one metric series.
var wildcardRoutes = func() [][2]string {
	var out [][2]string
	for _, rt := range routeTable() {
		if i := strings.IndexByte(rt.Path, '{'); i > 0 {
			out = append(out, [2]string{rt.Path[:i], rt.Path})
		}
	}
	return out
}()

// CatalogResponse is the payload of GET /api/v1: the API's routes, which
// feature flag gates each, and the stable error codes clients can branch
// on.
type CatalogResponse struct {
	// APIVersion echoes the X-API-Version header value.
	APIVersion string `json:"api_version"`
	// Routes is the full mounted surface.
	Routes []Route `json:"routes"`
	// GlobalErrorCodes can come back from any envelope route regardless of
	// its per-route list: middleware-level shedding and panic recovery.
	GlobalErrorCodes []string `json:"global_error_codes"`
}

// handleCatalog serves the machine-readable route catalog, straight from
// the table Handler registered.
func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	respondJSON(w, http.StatusOK, CatalogResponse{
		APIVersion:       APIVersion,
		Routes:           routeTable(),
		GlobalErrorCodes: []string{CodeOverloaded, CodeInternal},
	})
}
