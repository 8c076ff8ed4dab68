// Command fpagent simulates a participant population: it samples devices,
// runs all seven Web Audio fingerprinting vectors against each device's
// simulated audio stack for the configured number of iterations, and
// submits the fingerprints to a collection server over HTTP — the
// counterpart of the study site's in-browser code, driven at scale.
//
// Usage (against a running fpserver):
//
//	fpagent -server http://localhost:8080 -users 100 -iterations 30
//	fpagent -faults "seed=7,drop=0.05,http500=0.05"   # chaos rehearsal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/collectclient"
	"repro/internal/collectserver"
	"repro/internal/diag"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/study"
	"repro/internal/vectors"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		log.New(os.Stderr, "fpagent ", log.LstdFlags|log.Lmsgprefix).Fatal(err)
	}
}

// run drives the full agent lifecycle with flags parsed from args and logs
// on errw, so tests exercise the binary in-process.
func run(ctx context.Context, args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("fpagent", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		server      = fs.String("server", "http://localhost:8080", "collection server base URL")
		users       = fs.Int("users", 50, "number of simulated participants")
		iterations  = fs.Int("iterations", 30, "fingerprinting iterations per vector")
		seed        = fs.Int64("seed", 20220325, "population and jitter seed")
		parallel    = fs.Int("parallel", 8, "concurrent participants")
		followUp    = fs.Bool("followup", false, "use the §5 follow-up demographic mix")
		idempotency = fs.Bool("idempotency", true, "attach idempotency keys so retried submissions never double-store")
		brkThresh   = fs.Int("breaker-threshold", 0, "consecutive failures before the circuit breaker opens (0 disables)")
		brkCooldown = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open circuit breaker fails fast (with -breaker-threshold > 0)")
		faults      = fs.String("faults", "", "fault-injection spec for chaos rehearsal, e.g. \"seed=7,drop=0.05,delay=0.1:10ms,http500=0.05\"")
		export      = fs.String("export", "", "write telemetry (per-participant trace spans + periodic metrics snapshots) to this NDJSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The cooldown qualifies the breaker; without one it would be ignored.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["breaker-cooldown"] && *brkThresh <= 0 {
		return errors.New("-breaker-cooldown requires -breaker-threshold > 0")
	}
	logger := log.New(errw, "fpagent ", log.LstdFlags|log.Lmsgprefix)

	var exporter *obs.Exporter
	if *export != "" {
		var err error
		exporter, err = obs.NewExporter(obs.ExportConfig{
			Path:     *export,
			Registry: obs.Default,
			Service:  "fpagent",
		})
		if err != nil {
			return err
		}
		defer exporter.Close()
		logger.Printf("telemetry export to %s", *export)
		// runtime_* gauges land in the exported metrics snapshots.
		sampler := diag.NewSampler(diag.SamplerConfig{Registry: obs.Default})
		sampler.Start()
		defer sampler.Close()
	}

	cfg := population.Config{Seed: *seed, N: *users}
	if *followUp {
		cfg.Mix = population.FollowUpMix()
		cfg.IDPrefix = "f"
	}
	devices := population.Sample(cfg)
	jitter := platform.DefaultJitter()
	cache := vectors.NewCache()

	opts := []collectclient.Option{collectclient.WithIdempotency(*idempotency)}
	if *brkThresh > 0 {
		opts = append(opts, collectclient.WithBreaker(*brkThresh, *brkCooldown))
	}
	var sched *faultinject.Schedule
	if *faults != "" {
		var err error
		sched, err = faultinject.ParseSpec(*faults, nil)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		logger.Printf("fault injection active: %s", *faults)
		opts = append(opts, collectclient.WithHTTPClient(&http.Client{
			Timeout:   30 * time.Second,
			Transport: &faultinject.Transport{Base: http.DefaultTransport, Schedule: sched},
		}))
	}
	client := collectclient.New(*server, opts...)

	if _, err := client.StudyInfo(ctx); err != nil {
		return fmt.Errorf("server unreachable: %w", err)
	}

	// Per-device jitter seeds, pre-derived for determinism.
	seedRng := rand.New(rand.NewSource(*seed ^ 0x6a75747465726d6c))
	seeds := make([]int64, len(devices))
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}

	// Render every participant's records before any submission starts:
	// only this goroutine uses the render cache.
	records := make([][]collectserver.FPRecord, len(devices))
	for i, d := range devices {
		var err error
		if records[i], err = renderRecords(cache, jitter, d, *iterations, seeds[i]); err != nil {
			return fmt.Errorf("participant %s: %w", d.ID, err)
		}
	}

	sem := make(chan struct{}, max(1, *parallel))
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0

	start := time.Now()
	for i, d := range devices {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, d *platform.Device) {
			defer wg.Done()
			defer func() { <-sem }()
			// One trace per participant visit: the client stamps its
			// traceparent onto every submission, so a trace-exporting
			// server stitches its ingest spans onto this root.
			pctx := ctx
			var sp *obs.Span
			if exporter != nil {
				sp = obs.NewTrace("agent.participant")
				sp.SetAttr("user", d.ID)
				pctx = obs.ContextWithSpan(ctx, sp)
			}
			sess, err := client.StartSession(pctx, d.ID, d.UserAgent())
			if err == nil {
				err = sess.SubmitChunked(pctx, records[i], 128)
			}
			if sp != nil {
				sp.SetAttr("failed", err != nil)
				sp.End()
				exporter.ExportSpan(sp)
			}
			if err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
				logger.Printf("participant %s: %v", d.ID, err)
			}
		}(i, d)
	}
	wg.Wait()
	reportTelemetry(logger, client, len(devices), max(1, *parallel), time.Since(start))
	if sched != nil {
		logger.Printf("faults injected: %s", sched)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d participants failed", failures, len(devices))
	}
	logger.Printf("submitted %d participants × %d iterations × %d vectors",
		len(devices), *iterations, len(vectors.All))
	return nil
}

// reportTelemetry prints the client's submission throughput and retry
// behaviour, so operators see how the collection run actually went on the
// wire (not just that it finished).
func reportTelemetry(logger *log.Logger, client *collectclient.Client, participants, workers int, elapsed time.Duration) {
	tel := client.Telemetry()
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	logger.Printf("telemetry: %d HTTP requests (%d retries, %d failures, %d breaker opens), %.1f KiB sent, %s backing off",
		tel.Requests, tel.Retries, tel.Failures, tel.BreakerOpens, float64(tel.BytesSent)/1024, tel.BackoffTotal.Round(time.Millisecond))
	if tel.LastErrorCode != "" || tel.BreakerState != collectclient.BreakerClosed {
		logger.Printf("telemetry: breaker %s, last error code %q", tel.BreakerState, tel.LastErrorCode)
	}
	logger.Printf("telemetry: %.1f requests/s, %.1f participants/s overall, %.2f participants/s per worker",
		float64(tel.Requests)/secs, float64(participants)/secs, float64(participants)/secs/float64(workers))
}

// renderRecords renders one device's records, iteration-major: its capture
// offsets drawn in the study's order, then, as a study user does, one cache
// lookup per vector for that vector's distinct offsets.
func renderRecords(cache *vectors.Cache, jitter *platform.JitterModel, d *platform.Device,
	iterations int, seed int64) ([]collectserver.FPRecord, error) {

	nv := len(vectors.All)
	rng := rand.New(rand.NewSource(seed))
	recs := make([]collectserver.FPRecord, iterations*nv)
	offs := make([]int, len(recs))
	for i := range recs {
		v := vectors.All[i%nv]
		offs[i] = jitter.Offset(rng, d.Load, v)
		recs[i] = collectserver.FPRecord{Vector: v.String(), Iteration: i / nv}
		if i < nv && v == vectors.DC {
			recs[i].Surfaces = map[string]string{
				study.SurfaceCanvas:   d.CanvasFingerprint(),
				study.SurfaceFonts:    d.FontsFingerprint(),
				study.SurfaceMathJS:   d.MathJSFingerprint(),
				study.SurfacePlatform: d.Platform(),
			}
		}
	}
	runner := vectors.NewRunner(d.AudioTraits(), d.SampleRate)
	for vi, v := range vectors.All {
		var need []int
		for i := vi; i < len(offs); i += nv {
			need = append(need, offs[i])
		}
		slices.Sort(need)
		need = slices.Compact(need)
		fps, err := cache.RunOffsets(d.AudioStackKey(), runner, v, need)
		if err != nil {
			return nil, fmt.Errorf("render %v: %w", v, err)
		}
		for i := vi; i < len(offs); i += nv {
			j, _ := slices.BinarySearch(need, offs[i])
			recs[i].Hash, recs[i].Sum = fps[j].Hash, fps[j].Sum
		}
	}
	return recs, nil
}
