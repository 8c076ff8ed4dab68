package diag

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/series"
	"repro/internal/watch"
)

// Bundle file names. A bundle is one directory under the capturer's Dir
// holding these files; manifest.json is written last, so its presence
// marks a complete bundle.
const (
	FileManifest   = "manifest.json"
	FileGoroutines = "goroutines.txt"
	FileHeap       = "heap.pb.gz"
	FileCPU        = "cpu.pb.gz"
	FileSeries     = "series.json"
	FileAlerts     = "alerts.json"
	FileMetrics    = "metrics.prom"
)

// Capture reasons recorded in manifests and the diag_captures_total label.
const (
	ReasonAlert  = "alert"
	ReasonManual = "manual"
)

// CaptureConfig parameterizes NewCapturer.
type CaptureConfig struct {
	// Dir is the bundle ring directory. Required; created if absent.
	Dir string
	// MaxBundles bounds the ring by count (default 16; oldest evicted).
	MaxBundles int
	// MaxBytes bounds the ring by total size (default 256 MiB; oldest
	// evicted, the newest bundle always kept).
	MaxBytes int64
	// Cooldown suppresses alert-triggered captures for the same rule
	// within this window — flap protection (default 10m). Manual captures
	// bypass it.
	Cooldown time.Duration
	// CPUSeconds, when positive, adds a CPU profile of this many seconds
	// to each bundle. Captures then take that long to complete.
	CPUSeconds int
	// Registry supplies the metrics snapshot bundled as metrics.prom and
	// the capturer's own diag_* metrics; nil uses obs.Default.
	Registry *obs.Registry
	// Series, when set, contributes the breached rule's metric windows as
	// series.json (the store is ticked first so the breach moment is
	// retained).
	Series *series.Store
	// Sampler, when set, contributes a fresh RuntimeStats reading to the
	// manifest.
	Sampler *Sampler
	// Alerts, when set, supplies the full alert snapshot bundled as
	// alerts.json (typically watch.Monitor.Snapshot).
	Alerts func() watch.Snapshot
	// RuleLookup resolves a rule name to its normalized rule so the
	// capture knows which metric series to bundle (typically
	// watch.Monitor.RuleByName).
	RuleLookup func(name string) (watch.Rule, bool)
	// Now is the clock (default time.Now). Injectable so cooldown tests
	// are deterministic.
	Now func() time.Time
	// Logger receives capture/evict events; nil disables logging.
	Logger *slog.Logger
}

// BundleFile is one file inside a bundle, as listed by the manifest.
type BundleFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// ShardIngest is one shard's ingest counter at capture time.
type ShardIngest struct {
	Shard   string `json:"shard"`
	Records int64  `json:"records"`
}

// Manifest describes one diagnostic bundle.
type Manifest struct {
	ID         string    `json:"id"`
	CapturedAt time.Time `json:"captured_at"`
	// Reason is "alert" (an OnTransition capture) or "manual" (POST).
	Reason string `json:"reason"`
	// Rule names the breached rule for alert captures ("" for manual).
	Rule string `json:"rule,omitempty"`
	// Alert is the firing alert that triggered an alert capture.
	Alert      *watch.Alert  `json:"alert,omitempty"`
	GoVersion  string        `json:"go_version"`
	Main       string        `json:"main,omitempty"`
	Hostname   string        `json:"hostname,omitempty"`
	PID        int           `json:"pid"`
	Runtime    *RuntimeStats `json:"runtime,omitempty"`
	Shards     []ShardIngest `json:"shards,omitempty"`
	ShardSkew  float64       `json:"shard_skew,omitempty"`
	Files      []BundleFile  `json:"files"`
	TotalBytes int64         `json:"total_bytes"`
}

// seriesSpan is how far back the bundled series query reaches.
const seriesSpan = 15 * time.Minute

// seriesWindow is the series.json payload: the bundled metric windows
// keyed by metric name.
type seriesWindow struct {
	// Since is the window start (unix milliseconds).
	Since int64 `json:"since"`
	// Metrics maps metric name to its retained window.
	Metrics map[string]series.QueryResult `json:"metrics"`
}

// Capturer snapshots diagnostic bundles into a bounded on-disk ring.
// Create with NewCapturer; wire OnTransition into a watch.Monitor via
// SetTransitionHook. All methods are safe for concurrent use.
type Capturer struct {
	cfg CaptureConfig

	mCaptures   func(reason string) *obs.Counter
	mSuppressed *obs.Counter
	mBundles    *obs.Gauge
	mBytes      *obs.Gauge

	seq atomic.Int64
	wg  sync.WaitGroup

	mu         sync.Mutex
	lastByRule map[string]time.Time
}

// NewCapturer builds a capturer over cfg.Dir, creating the directory and
// registering the diag_* metrics.
func NewCapturer(cfg CaptureConfig) (*Capturer, error) {
	if cfg.Dir == "" {
		return nil, errors.New("diag: CaptureConfig.Dir is required")
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 16
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Minute
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diag: create bundle dir: %w", err)
	}
	c := &Capturer{
		cfg:        cfg,
		lastByRule: make(map[string]time.Time),
	}
	reg := cfg.Registry
	c.mCaptures = func(reason string) *obs.Counter {
		return reg.Counter("diag_captures_total",
			"Diagnostic bundles captured, by trigger reason.",
			obs.Labels{"reason": reason})
	}
	c.mCaptures(ReasonAlert) // pre-register both label values
	c.mCaptures(ReasonManual)
	c.mSuppressed = reg.Counter("diag_captures_suppressed_total",
		"Alert-triggered captures suppressed by the per-rule cooldown.", nil)
	c.mBundles = reg.Gauge("diag_bundles",
		"Diagnostic bundles currently retained on disk.", nil)
	c.mBytes = reg.Gauge("diag_bundle_bytes",
		"Total bytes of retained diagnostic bundles.", nil)
	c.refreshRingGauges()
	return c, nil
}

// Dir returns the bundle ring directory.
func (c *Capturer) Dir() string { return c.cfg.Dir }

// OnTransition is the watch.Monitor hook: a pending→firing transition
// triggers an asynchronous bundle capture unless the rule fired within the
// cooldown. Other transitions are ignored.
func (c *Capturer) OnTransition(a watch.Alert, from, to string) {
	if to != watch.StateFiring {
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	if last, ok := c.lastByRule[a.Rule]; ok && now.Sub(last) < c.cfg.Cooldown {
		c.mu.Unlock()
		c.mSuppressed.Inc()
		if c.cfg.Logger != nil {
			c.cfg.Logger.Info("diag capture suppressed by cooldown",
				"rule", a.Rule, "since_last", now.Sub(last))
		}
		return
	}
	c.lastByRule[a.Rule] = now
	c.mu.Unlock()

	// Capture off the observing goroutine: profile writes and the series
	// query must not stall the ingest path the alert fired from.
	alert := a
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if _, err := c.capture(ReasonAlert, &alert); err != nil && c.cfg.Logger != nil {
			c.cfg.Logger.Error("diag capture failed", "rule", alert.Rule, "err", err)
		}
	}()
}

// Flush blocks until every in-flight asynchronous capture has finished.
func (c *Capturer) Flush() { c.wg.Wait() }

// Capture takes a bundle synchronously — the on-demand POST path. Manual
// captures bypass the cooldown.
func (c *Capturer) Capture() (Manifest, error) {
	return c.capture(ReasonManual, nil)
}

func (c *Capturer) capture(reason string, alert *watch.Alert) (Manifest, error) {
	now := c.cfg.Now()
	id := c.bundleID(now, alert)
	tmp := filepath.Join(c.cfg.Dir, ".tmp-"+id)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return Manifest{}, err
	}
	defer os.RemoveAll(tmp) // no-op after the successful rename

	man := Manifest{
		ID:         id,
		CapturedAt: now.UTC(),
		Reason:     reason,
		Alert:      alert,
		GoVersion:  runtime.Version(),
		PID:        os.Getpid(),
	}
	if alert != nil {
		man.Rule = alert.Rule
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		man.Main = strings.TrimSpace(bi.Main.Path + " " + bi.Main.Version)
	}
	if hn, err := os.Hostname(); err == nil {
		man.Hostname = hn
	}
	if c.cfg.Sampler != nil {
		c.cfg.Sampler.Sample()
		st := c.cfg.Sampler.Stats()
		man.Runtime = &st
	}
	man.Shards, man.ShardSkew = shardIngestState(c.cfg.Registry)

	if err := c.writeFiles(tmp, &man, alert); err != nil {
		return Manifest{}, err
	}

	final := filepath.Join(c.cfg.Dir, id)
	if err := os.Rename(tmp, final); err != nil {
		return Manifest{}, err
	}
	c.mCaptures(reason).Inc()
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info("diag bundle captured",
			"id", id, "reason", reason, "bytes", man.TotalBytes)
	}
	c.evict()
	c.refreshRingGauges()
	return man, nil
}

// writeFiles writes every bundle file into dir and fills the manifest's
// file list, finishing with manifest.json itself.
func (c *Capturer) writeFiles(dir string, man *Manifest, alert *watch.Alert) error {
	writeTo := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		man.Files = append(man.Files, BundleFile{Name: name, Bytes: st.Size()})
		man.TotalBytes += st.Size()
		return nil
	}
	writeJSON := func(name string, v any) error {
		return writeTo(name, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
	}

	if err := writeTo(FileGoroutines, func(f *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(f, 2)
	}); err != nil {
		return err
	}
	if err := writeTo(FileHeap, func(f *os.File) error {
		// The heap profile reports the last completed GC cycle; collect
		// first so it shows the heap at capture time, not memory freed
		// since (net/http/pprof's ?gc=1).
		runtime.GC()
		return pprof.Lookup("heap").WriteTo(f, 0)
	}); err != nil {
		return err
	}
	if c.cfg.CPUSeconds > 0 {
		if err := writeTo(FileCPU, func(f *os.File) error {
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			time.Sleep(time.Duration(c.cfg.CPUSeconds) * time.Second)
			pprof.StopCPUProfile()
			return nil
		}); err != nil {
			return err
		}
	}
	if c.cfg.Series != nil {
		// Tick first so the breach-moment values are in the window.
		c.cfg.Series.Tick()
		since := c.cfg.Now().Add(-seriesSpan)
		win := seriesWindow{Since: since.UnixMilli(),
			Metrics: make(map[string]series.QueryResult)}
		for _, metric := range c.bundleMetrics(alert) {
			if qr, ok := c.cfg.Series.Query(metric, since, false); ok {
				win.Metrics[metric] = qr
			}
		}
		if err := writeJSON(FileSeries, win); err != nil {
			return err
		}
	}
	if c.cfg.Alerts != nil {
		if err := writeJSON(FileAlerts, c.cfg.Alerts()); err != nil {
			return err
		}
	}
	if err := writeTo(FileMetrics, func(f *os.File) error {
		_, err := c.cfg.Registry.WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	// manifest.json last: its presence marks a complete bundle. It lists
	// every other file but not itself.
	return writeTo(FileManifest, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
}

// bundleMetrics selects which metric windows a bundle carries: a base set
// of health series plus whatever the breached rule watches.
func (c *Capturer) bundleMetrics(alert *watch.Alert) []string {
	set := map[string]struct{}{
		"runtime_heap_inuse_bytes": {},
		"runtime_goroutines":       {},
		"watch_alerts_firing":      {},
	}
	if alert != nil && c.cfg.RuleLookup != nil {
		if r, ok := c.cfg.RuleLookup(alert.Rule); ok && r.Kind == watch.KindErrorBudget {
			set[r.ErrorMetric] = struct{}{}
			set[r.TotalMetric] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// bundleID is `<utc-stamp>-<seq>-<slug>`: the stamp orders the ring, the
// process-wide sequence disambiguates same-instant captures, the slug
// names the rule for humans.
func (c *Capturer) bundleID(now time.Time, alert *watch.Alert) string {
	slug := "manual"
	if alert != nil {
		slug = slugify(alert.Rule)
	}
	return fmt.Sprintf("%s-%04d-%s",
		now.UTC().Format("20060102T150405Z"), c.seq.Add(1), slug)
}

func slugify(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "bundle"
	}
	return b.String()
}

// evict removes the oldest complete bundles until the ring satisfies both
// caps. The newest bundle always survives, even when it alone exceeds
// MaxBytes.
func (c *Capturer) evict() {
	mans, err := ListBundles(c.cfg.Dir)
	if err != nil {
		return
	}
	count := len(mans)
	var total int64
	for _, m := range mans {
		total += m.TotalBytes
	}
	// ListBundles returns newest first; walk from the oldest.
	for i := len(mans) - 1; i > 0; i-- {
		if count <= c.cfg.MaxBundles && total <= c.cfg.MaxBytes {
			break
		}
		old := mans[i]
		if err := os.RemoveAll(filepath.Join(c.cfg.Dir, old.ID)); err != nil {
			continue
		}
		count--
		total -= old.TotalBytes
		if c.cfg.Logger != nil {
			c.cfg.Logger.Info("diag bundle evicted", "id", old.ID)
		}
	}
}

func (c *Capturer) refreshRingGauges() {
	mans, err := ListBundles(c.cfg.Dir)
	if err != nil {
		return
	}
	var total int64
	for _, m := range mans {
		total += m.TotalBytes
	}
	c.mBundles.Set(float64(len(mans)))
	c.mBytes.Set(float64(total))
}

// List returns the ring's manifests, newest first.
func (c *Capturer) List() ([]Manifest, error) { return ListBundles(c.cfg.Dir) }

// Manifest returns one bundle's manifest by ID.
func (c *Capturer) Manifest(id string) (Manifest, error) { return ReadManifest(c.cfg.Dir, id) }

// ErrUnknownBundle reports a bundle ID that is absent from the ring.
var ErrUnknownBundle = errors.New("diag: unknown bundle")

// ValidBundleID reports whether id is a plausible bundle directory name:
// non-empty, no path separators or traversal, not hidden.
func ValidBundleID(id string) bool {
	if id == "" || strings.HasPrefix(id, ".") {
		return false
	}
	return !strings.ContainsAny(id, "/\\")
}

// ListBundles reads every complete bundle manifest under dir, newest
// first (IDs embed a UTC stamp and a sequence, so the ID order is the
// capture order). Incomplete bundles (no manifest.json yet) are skipped.
func ListBundles(dir string) ([]Manifest, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []Manifest
	for _, e := range ents {
		if !e.IsDir() || !ValidBundleID(e.Name()) {
			continue
		}
		m, err := ReadManifest(dir, e.Name())
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out, nil
}

// ReadManifest reads one bundle's manifest. Returns ErrUnknownBundle when
// the bundle (or its manifest) does not exist.
func ReadManifest(dir, id string) (Manifest, error) {
	if !ValidBundleID(id) {
		return Manifest{}, ErrUnknownBundle
	}
	raw, err := os.ReadFile(filepath.Join(dir, id, FileManifest))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Manifest{}, ErrUnknownBundle
		}
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("bundle %s: %w", id, err)
	}
	return m, nil
}

// shardIngestState reads the per-shard ingest counters out of a registry
// snapshot, plus the max/mean skew — the hot-shard context a bundle needs
// when the server runs sharded. Empty on unsharded servers.
func shardIngestState(reg *obs.Registry) ([]ShardIngest, float64) {
	var out []ShardIngest
	var sum float64
	var max float64
	for _, s := range reg.Snapshot() {
		if s.Name != "shard_ingest_total" {
			continue
		}
		out = append(out, ShardIngest{Shard: s.Labels["shard"], Records: int64(s.Value)})
		sum += s.Value
		if s.Value > max {
			max = s.Value
		}
	}
	if len(out) == 0 || sum == 0 {
		return out, 0
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	mean := sum / float64(len(out))
	return out, max / mean
}
