package diag

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/watch"
)

// fakeClock is a hand-advanced clock for deterministic cooldown tests.
type fakeClock struct {
	t time.Time
}

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func firingAlert(rule string) watch.Alert {
	return watch.Alert{
		Rule: rule, Kind: watch.KindErrorBudget,
		Subject: rule, State: watch.StateFiring,
		Value: 1, FiredAtRecords: 100,
	}
}

func TestCaptureManualWritesCompleteBundle(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSampler(SamplerConfig{Registry: reg})
	defer s.Close()
	c, err := NewCapturer(CaptureConfig{
		Dir:      t.TempDir(),
		Registry: reg,
		Sampler:  s,
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if man.Reason != ReasonManual || man.Rule != "" {
		t.Errorf("manifest reason/rule = %q/%q", man.Reason, man.Rule)
	}
	if man.Runtime == nil || man.Runtime.Goroutines < 1 {
		t.Error("manifest missing runtime stats")
	}
	if man.TotalBytes <= 0 {
		t.Error("manifest TotalBytes not accumulated")
	}
	for _, want := range []string{FileGoroutines, FileHeap, FileMetrics, FileManifest} {
		p := filepath.Join(c.Dir(), man.ID, want)
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("bundle missing %s: %v", want, err)
		}
		if st.Size() == 0 {
			t.Errorf("bundle file %s is empty", want)
		}
	}
	// The heap profile must be one pprof reads.
	if top := PprofTop(t, filepath.Join(c.Dir(), man.ID, FileHeap), "alloc_space"); !strings.Contains(top, "flat%") {
		t.Fatalf("pprof -top of the bundled heap profile has no table:\n%s", top)
	}

	got, err := c.Manifest(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != man.ID {
		t.Errorf("ReadManifest ID = %q, want %q", got.ID, man.ID)
	}
}

// TestCooldownSuppressesSecondCapture is the fake-clock acceptance test: a
// second breach of the same rule within the cooldown captures nothing; one
// past the cooldown (or of a different rule) captures again.
func TestCooldownSuppressesSecondCapture(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	c, err := NewCapturer(CaptureConfig{
		Dir:      t.TempDir(),
		Registry: reg,
		Cooldown: 10 * time.Minute,
		Now:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}

	c.OnTransition(firingAlert("ingest-error-budget"), watch.StatePending, watch.StateFiring)
	c.Flush()
	if n := countBundles(t, c); n != 1 {
		t.Fatalf("after first firing: %d bundles, want 1", n)
	}

	// Second breach 1 minute later: inside the cooldown, suppressed.
	clk.advance(time.Minute)
	c.OnTransition(firingAlert("ingest-error-budget"), watch.StatePending, watch.StateFiring)
	c.Flush()
	if n := countBundles(t, c); n != 1 {
		t.Fatalf("breach within cooldown captured: %d bundles, want 1", n)
	}
	if v := c.mSuppressed.Value(); v != 1 {
		t.Errorf("diag_captures_suppressed_total = %d, want 1", v)
	}

	// A different rule is not suppressed by ingest-error-budget's cooldown.
	c.OnTransition(firingAlert("entropy-collapse"), watch.StatePending, watch.StateFiring)
	c.Flush()
	if n := countBundles(t, c); n != 2 {
		t.Fatalf("different rule suppressed: %d bundles, want 2", n)
	}

	// Past the cooldown the original rule captures again.
	clk.advance(10 * time.Minute)
	c.OnTransition(firingAlert("ingest-error-budget"), watch.StatePending, watch.StateFiring)
	c.Flush()
	if n := countBundles(t, c); n != 3 {
		t.Fatalf("breach past cooldown did not capture: %d bundles, want 3", n)
	}
}

func TestOnTransitionIgnoresNonFiring(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCapturer(CaptureConfig{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	a := firingAlert("ingest-error-budget")
	c.OnTransition(a, "", watch.StatePending)
	c.OnTransition(a, watch.StateFiring, watch.StateResolved)
	c.Flush()
	if n := countBundles(t, c); n != 0 {
		t.Fatalf("non-firing transitions captured %d bundles, want 0", n)
	}
}

func TestRingEvictsOldestByCount(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	c, err := NewCapturer(CaptureConfig{
		Dir:        t.TempDir(),
		Registry:   reg,
		MaxBundles: 2,
		Now:        clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		man, err := c.Capture()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, man.ID)
		clk.advance(time.Second)
	}
	mans, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 2 {
		t.Fatalf("ring holds %d bundles, want 2", len(mans))
	}
	// Newest first: the two most recent captures survive.
	if mans[0].ID != ids[3] || mans[1].ID != ids[2] {
		t.Errorf("ring = [%s %s], want [%s %s]", mans[0].ID, mans[1].ID, ids[3], ids[2])
	}
	if _, err := c.Manifest(ids[0]); err != ErrUnknownBundle {
		t.Errorf("evicted bundle manifest error = %v, want ErrUnknownBundle", err)
	}
	if got := c.mBundles.Value(); got != 2 {
		t.Errorf("diag_bundles = %v, want 2", got)
	}
}

func TestRingEvictsByBytesButKeepsNewest(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	// Any real bundle exceeds 1 byte, so every capture evicts all elders.
	c, err := NewCapturer(CaptureConfig{
		Dir:      t.TempDir(),
		Registry: reg,
		MaxBytes: 1,
		Now:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Capture(); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	mans, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 {
		t.Fatalf("ring holds %d bundles under a 1-byte cap, want 1 (newest kept)", len(mans))
	}
}

func TestValidBundleID(t *testing.T) {
	for id, want := range map[string]bool{
		"20260808T120000Z-0001-ingest-error-budget": true,
		"":                 false,
		".":                false,
		"..":               false,
		".tmp-x":           false,
		"a/b":              false,
		"..\\c":            false,
		"../../etc/passwd": false,
		"plain":            true,
	} {
		if got := ValidBundleID(id); got != want {
			t.Errorf("ValidBundleID(%q) = %v, want %v", id, got, want)
		}
	}
}

func countBundles(t *testing.T, c *Capturer) int {
	t.Helper()
	mans, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	return len(mans)
}
