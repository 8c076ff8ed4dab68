package collectserver

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/series"
)

func obsGet(t *testing.T, f *fixture, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body []byte
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, body
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("want error envelope, got %s", body)
	}
	return env.Error.Code
}

func TestObsRoutesDisabledWithoutStore(t *testing.T) {
	f := newFixture(t, nil)
	resp, body := obsGet(t, f, "/api/v1/obs/query?metric=x")
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != CodeSeriesDisabled {
		t.Fatalf("query without store: %d %s", resp.StatusCode, body)
	}
	resp, body = obsGet(t, f, "/api/v1/obs/series")
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != CodeSeriesDisabled {
		t.Fatalf("catalog without store: %d %s", resp.StatusCode, body)
	}
}

func TestObsQueryAndCatalog(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("demo_total", "", obs.Labels{"k": "v"})
	var f *fixture
	st := series.New(series.Config{
		Registry: reg,
		Capacity: 16,
		Now:      func() time.Time { return f.now },
	})
	defer st.Close()
	f = newFixture(t, func(cfg *Config) {
		cfg.Registry = reg
		cfg.Series = st
	})

	for i := 0; i < 3; i++ {
		c.Add(5)
		f.now = f.now.Add(10 * time.Second)
		st.Tick()
	}

	// Full history.
	resp, body := obsGet(t, f, "/api/v1/obs/query?metric=demo_total")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var res series.QueryResult
	decodeData(t, body, &res)
	if res.Metric != "demo_total" || res.Type != "counter" || len(res.Series) != 1 {
		t.Fatalf("payload = %+v", res)
	}
	if got := len(res.Series[0].Points); got != 3 {
		t.Fatalf("points = %d, want 3", got)
	}
	if res.Series[0].Labels["k"] != "v" {
		t.Fatalf("labels = %v", res.Series[0].Labels)
	}

	// Delta + range: the trailing 25s covers the last 2 points; deltas drop
	// the first of the retained ring, leaving per-tick increases of 5.
	resp, body = obsGet(t, f, "/api/v1/obs/query?metric=demo_total&delta=true&range=25s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta query: %d %s", resp.StatusCode, body)
	}
	decodeData(t, body, &res)
	if !res.Delta {
		t.Fatal("delta flag not set")
	}
	for _, p := range res.Series[0].Points {
		if p.V != 5 {
			t.Fatalf("delta points = %+v", res.Series[0].Points)
		}
	}

	// Catalog.
	resp, body = obsGet(t, f, "/api/v1/obs/series")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog: %d %s", resp.StatusCode, body)
	}
	var cat struct {
		IntervalSeconds float64               `json:"interval_seconds"`
		Metrics         []series.CatalogEntry `json:"metrics"`
	}
	decodeData(t, body, &cat)
	if cat.IntervalSeconds <= 0 || len(cat.Metrics) == 0 {
		t.Fatalf("catalog payload = %+v", cat)
	}

	// Error paths: missing metric, bad range, unknown metric.
	resp, body = obsGet(t, f, "/api/v1/obs/query")
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
		t.Fatalf("missing metric: %d %s", resp.StatusCode, body)
	}
	resp, body = obsGet(t, f, "/api/v1/obs/query?metric=demo_total&range=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad range: %d %s", resp.StatusCode, body)
	}
	resp, body = obsGet(t, f, "/api/v1/obs/query?metric=never_seen")
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != CodeUnknownMetric {
		t.Fatalf("unknown metric: %d %s", resp.StatusCode, body)
	}
}
