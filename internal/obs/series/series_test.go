package series

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock hands out strictly increasing timestamps one second apart.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

func newTestStore(t *testing.T, reg *obs.Registry, capacity int) (*Store, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := New(Config{Registry: reg, Capacity: capacity, Now: clk.now})
	t.Cleanup(s.Close)
	return s, clk
}

func TestTickRetainsCounterAndGauge(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("jobs_total", "jobs", obs.Labels{"kind": "render"})
	g := reg.Gauge("queue_depth", "depth", nil)
	s, _ := newTestStore(t, reg, 16)

	for i := 1; i <= 3; i++ {
		c.Add(int64(i * 10))
		g.Set(float64(i))
		s.Tick()
	}

	res, ok := s.Query("jobs_total", time.Time{}, false)
	if !ok {
		t.Fatal("jobs_total not retained")
	}
	if res.Type != "counter" {
		t.Fatalf("type = %q, want counter", res.Type)
	}
	if len(res.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(res.Series))
	}
	sr := res.Series[0]
	if sr.Labels["kind"] != "render" {
		t.Fatalf("labels = %v", sr.Labels)
	}
	wantVals := []float64{10, 30, 60} // cumulative raw values
	if len(sr.Points) != len(wantVals) {
		t.Fatalf("points = %d, want %d", len(sr.Points), len(wantVals))
	}
	for i, p := range sr.Points {
		if p.V != wantVals[i] {
			t.Fatalf("point %d = %v, want %v", i, p.V, wantVals[i])
		}
		if i > 0 && p.T <= sr.Points[i-1].T {
			t.Fatalf("timestamps not increasing: %v", sr.Points)
		}
	}

	gres, ok := s.Query("queue_depth", time.Time{}, false)
	if !ok || gres.Type != "gauge" {
		t.Fatalf("queue_depth: ok=%v type=%q", ok, gres.Type)
	}
	gp := gres.Series[0].Points
	if len(gp) != 3 || gp[0].V != 1 || gp[2].V != 3 {
		t.Fatalf("gauge points = %v", gp)
	}
}

func TestCounterDeltaQueryAndResets(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("hits_total", "", nil)
	g := reg.Gauge("level", "", nil)
	s, _ := newTestStore(t, reg, 16)

	c.Add(5)
	g.Set(7)
	s.Tick() // 5
	c.Add(2)
	s.Tick() // 7
	c.Add(10)
	s.Tick() // 17

	res, _ := s.Query("hits_total", time.Time{}, true)
	if !res.Delta {
		t.Fatal("delta flag not set for counter")
	}
	pts := res.Series[0].Points
	want := []float64{2, 10}
	if len(pts) != len(want) {
		t.Fatalf("delta points = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i].V != want[i] {
			t.Fatalf("delta %d = %v, want %v", i, pts[i].V, want[i])
		}
	}

	// Gauges never get deltas, even when asked.
	gres, _ := s.Query("level", time.Time{}, true)
	if gres.Delta {
		t.Fatal("gauge query claimed delta semantics")
	}
	if gres.Series[0].Points[0].V != 7 {
		t.Fatalf("gauge point = %v", gres.Series[0].Points)
	}
}

func TestRingBoundsMemory(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x_total", "", nil)
	s, _ := newTestStore(t, reg, 4)
	for i := 0; i < 10; i++ {
		c.Inc()
		s.Tick()
	}
	res, _ := s.Query("x_total", time.Time{}, false)
	pts := res.Series[0].Points
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want capacity 4", len(pts))
	}
	// Oldest-first and the newest 4 of the 10 values.
	want := []float64{7, 8, 9, 10}
	for i := range want {
		if pts[i].V != want[i] {
			t.Fatalf("ring points = %v, want %v", pts, want)
		}
	}
}

func TestQuerySinceCutsOldPoints(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v", "", nil)
	s, clk := newTestStore(t, reg, 16)
	for i := 1; i <= 5; i++ {
		g.Set(float64(i))
		s.Tick()
	}
	clk.mu.Lock()
	cut := clk.t.Add(-time.Second) // keep the last 2 points (ticks are 1s apart)
	clk.mu.Unlock()
	res, _ := s.Query("v", cut, false)
	pts := res.Series[0].Points
	if len(pts) != 2 || pts[0].V != 4 || pts[1].V != 5 {
		t.Fatalf("since-cut points = %v", pts)
	}
}

func TestHistogramBucketsExcludedByDefault(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.1, 1}, nil)
	h.Observe(0.5)
	s, _ := newTestStore(t, reg, 8)
	s.Tick()

	if _, ok := s.Query("lat_seconds_bucket", time.Time{}, false); ok {
		t.Fatal("bucket series retained")
	}
	cres, ok := s.Query("lat_seconds_count", time.Time{}, false)
	if !ok || cres.Series[0].Points[0].V != 1 {
		t.Fatalf("count series: ok=%v res=%+v", ok, cres)
	}
	if _, ok := s.Query("lat_seconds_sum", time.Time{}, false); !ok {
		t.Fatal("sum series missing")
	}
}

func TestMaxSeriesCapDropsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 6; i++ {
		reg.Counter("many_total", "", obs.Labels{"i": string(rune('a' + i))}).Inc()
	}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	// MaxSeries must leave room for the store's own two counters, which
	// snapshot like everything else.
	s := New(Config{Registry: reg, MaxSeries: 5, Now: clk.now})
	defer s.Close()
	s.Tick()
	res, _ := s.Query("many_total", time.Time{}, false)
	if len(res.Series) >= 6 {
		t.Fatalf("series cap not applied: %d", len(res.Series))
	}
	if reg.Counter("series_store_dropped_total", "", nil).Value() == 0 {
		t.Fatal("dropped samples not counted")
	}
}

func TestCatalog(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("b_total", "", nil).Inc()
	reg.Gauge("a_gauge", "", nil).Set(1)
	s, _ := newTestStore(t, reg, 8)
	s.Tick()
	s.Tick()
	cat := s.Catalog()
	if len(cat) < 2 {
		t.Fatalf("catalog entries = %d", len(cat))
	}
	for i := 1; i < len(cat); i++ {
		if cat[i-1].Metric >= cat[i].Metric {
			t.Fatalf("catalog not sorted: %v >= %v", cat[i-1].Metric, cat[i].Metric)
		}
	}
	var found bool
	for _, e := range cat {
		if e.Metric == "b_total" {
			found = true
			if e.Type != "counter" || e.Series != 1 || e.Points != 2 {
				t.Fatalf("b_total entry = %+v", e)
			}
			if e.OldestT == 0 || e.NewestT <= e.OldestT {
				t.Fatalf("b_total window = %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("b_total missing from catalog")
	}
}

// TestConcurrentWritersAndQueries is the acceptance property: the store
// returns correct, bounded series while metric writers, the ticker and
// queriers all run concurrently (meaningful under -race).
func TestConcurrentWritersAndQueries(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("conc_total", "", nil)
	g := reg.Gauge("conc_gauge", "", nil)
	s, _ := newTestStore(t, reg, 32)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					g.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Tick()
			s.Query("conc_total", time.Time{}, true)
			s.Catalog()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Query("conc_gauge", time.Time{}, false)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	res, ok := s.Query("conc_total", time.Time{}, false)
	if !ok {
		t.Fatal("conc_total missing")
	}
	pts := res.Series[0].Points
	if len(pts) == 0 || len(pts) > 32 {
		t.Fatalf("unbounded or empty ring: %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V < pts[i-1].V {
			t.Fatalf("counter series not monotone: %v", pts)
		}
	}
}

func TestStartAndCloseLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("lc_total", "", nil).Inc()
	s := New(Config{Registry: reg, Interval: time.Millisecond, Now: time.Now})
	s.Start()
	s.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := s.Query("lc_total", time.Time{}, false); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background ticker never snapshotted")
		case <-time.After(time.Millisecond):
		}
	}
	s.Close()
	s.Close() // idempotent

	// Close without Start must not hang.
	s2 := New(Config{Registry: reg, Now: time.Now})
	s2.Close()
}
