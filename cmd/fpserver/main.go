// Command fpserver runs the fingerprint-collection backend: the consent-
// gated HTTP API participants submit Web Audio fingerprints to, persisting
// them in an append-only NDJSON store.
//
// Usage:
//
//	fpserver -addr :8080 -store fingerprints.ndjson -admin-token secret
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/collectserver"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/obs/series"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/verify"
	"repro/internal/watch"
)

// loadCalibration reads a calibration file: either a bare verify.Calibration
// or a full fpstudy verify-sweep result wrapping one under "calibration".
func loadCalibration(path string) (*verify.Calibration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wrapped struct {
		Calibration *verify.Calibration `json:"calibration"`
	}
	if err := json.Unmarshal(raw, &wrapped); err == nil &&
		wrapped.Calibration != nil && len(wrapped.Calibration.Points) > 0 {
		return wrapped.Calibration, nil
	}
	var cal verify.Calibration
	if err := json.Unmarshal(raw, &cal); err != nil {
		return nil, err
	}
	if len(cal.Points) == 0 {
		return nil, fmt.Errorf("%s carries no sweep points", path)
	}
	return &cal, nil
}

// onListen, when set by tests, receives the bound listener address so an
// in-process run on ":0" can be probed.
var onListen func(net.Addr)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		log.New(os.Stderr, "fpserver ", log.LstdFlags|log.Lmsgprefix).Fatal(err)
	}
}

// run is the whole server lifecycle behind a testable seam: flags are
// parsed from args, logs go to errw, and cancelling ctx triggers the same
// graceful shutdown a SIGTERM does.
func run(ctx context.Context, args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("fpserver", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		storePath  = fs.String("store", "fingerprints.ndjson", "NDJSON store path")
		adminToken = fs.String("admin-token", "", "bearer token authorizing /api/v1/export (empty disables export)")
		syncWrites = fs.Bool("sync", false, "fsync after every accepted batch")
		maxBatch   = fs.Int("max-batch", 256, "max records per submission")
		sessRate   = fs.Float64("session-rate", 600, "session creations per client IP per minute")
		maxInFly   = fs.Int("max-inflight", 256, "concurrently served requests before shedding with 503 (negative disables)")
		subRate    = fs.Float64("rate", 50, "fingerprint submissions per client IP per second before shedding with 429")
		segBytes   = fs.Int64("max-segment", 0, "rotate the store file beyond this many bytes (0 disables)")
		shards     = fs.Int("shards", 1, "partition ingest+analytics by user-id hash into this many shards (1 = single store/engine, bit-for-bit the unsharded behavior)")
		recover_   = fs.Bool("recover", true, "salvage the store's active file up to the first torn write on startup")
		debug      = fs.Bool("debug", false, "mount /debug/pprof and /debug/vars (operational detail — keep off on public listeners)")
		analytics  = fs.Bool("analytics", false, "serve live incremental analytics on /api/v1/analytics/* (rebuilt from the store on startup)")
		watchFlag  = fs.Bool("watch", false, "run measurement-health watchers over the live analytics (implies -analytics); alerts on /api/v1/analytics/alerts and /debug/health")
		export     = fs.String("export", "", "write telemetry (request/ingest/apply spans + periodic metrics snapshots) to this NDJSON file")
		seriesFlag = fs.Bool("series", false, "retain metric time-series in memory and serve them on /api/v1/obs/query and /api/v1/obs/series")
		seriesTick = fs.Duration("series-interval", 5*time.Second, "series snapshot interval (with -series)")
		seriesCap  = fs.Int("series-capacity", 720, "retained points per series (with -series)")
		verifyFlag = fs.Bool("verify", false, "serve authentication decisions on POST /api/v1/verify (history bootstrapped from the store, kept current by accepted submissions)")
		verifyThr  = fs.Float64("verify-threshold", 0, "accept threshold override in (0,1]; 0 takes the calibration's EER threshold, else the built-in default (with -verify)")
		verifyCal  = fs.String("verify-calibration", "", "calibration JSON from 'fpstudy -verify-sweep' supplying the threshold and served on /api/v1/analytics/verify (with -verify)")
		diagFlag   = fs.Bool("diag", false, "capture diagnostic bundles (goroutines, heap, metrics, series window) when a watch alert fires, and on demand via POST /api/v1/obs/bundles")
		diagDir    = fs.String("diag-dir", "diag", "bundle ring directory (with -diag)")
		diagCPU    = fs.Int("diag-cpu-seconds", 0, "also record a CPU profile of this many seconds per bundle (with -diag; 0 disables)")
		diagCool   = fs.Duration("diag-cooldown", 10*time.Minute, "minimum gap between alert-triggered captures of the same rule (with -diag)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(errw, "fpserver ", log.LstdFlags|log.Lmsgprefix)

	// The runtime sampler is always on: runtime_* gauges cost one
	// runtime/metrics read per interval and feed /metrics, /debug/health,
	// -series retention, and diagnostic bundles.
	sampler := diag.NewSampler(diag.SamplerConfig{Registry: obs.Default})
	sampler.Start()
	defer sampler.Close()

	var err error
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *shards > 1 && *watchFlag {
		// The watch monitor evaluates rules from a single engine's apply
		// hook; it has no merged-state equivalent yet.
		return errors.New("-watch is not supported with -shards > 1")
	}

	opts := storage.Options{
		SyncEveryAppend: *syncWrites,
		MaxSegmentBytes: *segBytes,
	}
	// st is the single-store path (shards == 1, bit-for-bit the unsharded
	// behavior: same file, no seq stamping); sst the partitioned one.
	var st *storage.Store
	var sst *shard.Stores
	var store collectserver.RecordStore
	if *shards == 1 {
		st, err = storage.Open(*storePath, opts)
		if err != nil {
			return err
		}
		defer st.Close()
		store = st
		if *recover_ {
			rep, err := st.Recover()
			if err != nil {
				return err
			}
			if rep.DroppedBytes > 0 {
				logger.Printf("recovery dropped %d bytes of torn tail at offset %d",
					rep.DroppedBytes, rep.TruncatedAt)
			}
		}
		logger.Printf("store %s opened with %d existing records", st.Path(), st.Count())
	} else {
		sst, err = shard.OpenStores(*storePath, *shards, opts)
		if err != nil {
			return err
		}
		defer sst.Close()
		store = sst
		if *recover_ {
			reps, err := sst.Recover()
			if err != nil {
				return err
			}
			for i, rep := range reps {
				if rep.DroppedBytes > 0 {
					logger.Printf("shard %d recovery dropped %d bytes of torn tail at offset %d",
						i, rep.DroppedBytes, rep.TruncatedAt)
				}
			}
		}
		logger.Printf("sharded store %s opened: %d shards, %d existing records",
			sst.Path(), sst.Shards(), sst.Count())
	}

	var exporter *obs.Exporter
	if *export != "" {
		exporter, err = obs.NewExporter(obs.ExportConfig{
			Path:     *export,
			Registry: obs.Default,
			Service:  "fpserver",
		})
		if err != nil {
			return err
		}
		defer exporter.Close()
		logger.Printf("telemetry export to %s", *export)
	}

	// The analytics bootstrap and the verify enrollment replay the same
	// stored history: read it once for both.
	var history []storage.Record
	if *analytics || *watchFlag || *verifyFlag {
		if history, err = store.All(); err != nil {
			return err
		}
	}

	var eng *streaming.Engine
	var analyticsPlane collectserver.Analytics
	if *analytics || *watchFlag {
		// Same registry as the server so engine gauges land on /metrics;
		// same exporter so apply spans land in the trace file.
		cfg := streaming.Config{Registry: obs.Default}
		if exporter != nil {
			cfg.Spans = exporter
		}
		start := time.Now()
		if *shards == 1 {
			eng = streaming.New(cfg)
			defer eng.Close()
			eng.Bootstrap(history)
			analyticsPlane = eng
		} else {
			rt, err := shard.NewRouter(shard.Config{Shards: *shards, Engine: cfg})
			if err != nil {
				return err
			}
			defer rt.Close()
			rt.Bootstrap(history) // history arrives seq-ordered from Stores.All
			analyticsPlane = rt
		}
		logger.Printf("analytics plane (%d shard(s)) rebuilt from %d records in %v",
			*shards, len(history), time.Since(start).Round(time.Millisecond))
	}

	var ts *series.Store
	if *seriesFlag {
		ts = series.New(series.Config{
			Registry: obs.Default,
			Interval: *seriesTick,
			Capacity: *seriesCap,
		})
		ts.Start()
		defer ts.Close()
		logger.Printf("series store ticking every %v, %d points per series", *seriesTick, *seriesCap)
	}

	var verifier collectserver.Verifier
	if *verifyFlag {
		vcfg := verify.Config{Threshold: *verifyThr, Registry: obs.Default}
		if *verifyCal != "" {
			cal, err := loadCalibration(*verifyCal)
			if err != nil {
				return fmt.Errorf("-verify-calibration: %w", err)
			}
			vcfg.Calibration = cal
			logger.Printf("verify calibration loaded from %s (EER %.4f at threshold %.2f over %d+%d trials)",
				*verifyCal, cal.EER, cal.EERThreshold, cal.GenuineTrials, cal.ImpostorTrials)
		}
		start := time.Now()
		if *shards == 1 {
			e := verify.New(vcfg)
			e.Enroll(history)
			verifier = e
		} else {
			vs, err := shard.NewVerifiers(*shards, vcfg)
			if err != nil {
				return err
			}
			vs.Enroll(history)
			verifier = vs
		}
		st := verifier.Stats()
		logger.Printf("verify plane (%d shard(s)) enrolled %d users from %d records in %v, threshold %.2f",
			*shards, st.Users, len(history), time.Since(start).Round(time.Millisecond), st.Threshold)
	} else if *verifyThr != 0 || *verifyCal != "" {
		return errors.New("-verify-threshold/-verify-calibration require -verify")
	}

	var mon *watch.Monitor
	if *watchFlag {
		mon, err = watch.New(watch.Config{
			Engine:   eng,
			Registry: obs.Default,
			Logger:   obs.NewLogger(obs.LogConfig{W: errw, Component: "watch"}),
		})
		if err != nil {
			return err
		}
		logger.Printf("watch monitor running %d rules", len(watch.DefaultRules()))
	}

	var capt *diag.Capturer
	if *diagFlag {
		dcfg := diag.CaptureConfig{
			Dir:        *diagDir,
			CPUSeconds: *diagCPU,
			Cooldown:   *diagCool,
			Registry:   obs.Default,
			Series:     ts,
			Sampler:    sampler,
			Logger:     obs.NewLogger(obs.LogConfig{W: errw, Component: "diag"}),
		}
		if mon != nil {
			dcfg.Alerts = mon.Snapshot
			dcfg.RuleLookup = mon.RuleByName
		}
		capt, err = diag.NewCapturer(dcfg)
		if err != nil {
			return err
		}
		defer capt.Flush() // let an in-flight alert capture finish writing
		if mon != nil {
			mon.SetTransitionHook(capt.OnTransition)
		}
		logger.Printf("diag bundles to %s (cooldown %v, cpu %ds)", *diagDir, *diagCool, *diagCPU)
	} else if *diagCPU != 0 {
		return errors.New("-diag-cpu-seconds requires -diag")
	}

	srvCfg := collectserver.Config{
		Store:             store,
		AdminToken:        *adminToken,
		MaxBatch:          *maxBatch,
		Logger:            logger,
		SessionRatePerMin: *sessRate,
		MaxInFlight:       *maxInFly,
		SubmitRatePerSec:  *subRate,
		EnableDebug:       *debug,
		Analytics:         analyticsPlane, // nil interface when analytics is off (typed-nil-safe)
		Watch:             mon,
		Series:            ts,
		Verifier:          verifier, // nil interface without -verify (typed-nil-safe)
		Diag:              capt,
		Runtime:           sampler,
	}
	if exporter != nil {
		srvCfg.Trace = exporter
	}
	srv, err := collectserver.New(srvCfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}()

	logger.Printf("listening on %s", ln.Addr())
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("stopped; %d records stored", store.Count())
	return nil
}
