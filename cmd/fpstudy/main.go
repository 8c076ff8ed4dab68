// Command fpstudy simulates the paper's two measurement campaigns end to
// end — the 2093-user main study and the 528-user Math-JS follow-up — and
// regenerates every table and figure of the evaluation. Optionally persists
// the raw datasets as NDJSON for later re-analysis with fpanalyze.
//
// Usage:
//
//	fpstudy                          # full-scale run, all experiments
//	fpstudy -users 500 -iterations 10 -out main.ndjson
//	fpstudy -progress -trace-json trace.json   # stage-timing telemetry
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/vectors"
	"repro/internal/verify"
	"repro/internal/webaudio"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.New(os.Stderr, "fpstudy ", log.LstdFlags|log.Lmsgprefix).Fatal(err)
	}
}

// run executes the whole simulation-and-analysis pipeline with flags from
// args, tables on outw and logs on errw — in-process testable.
func run(runCtx context.Context, args []string, outw, errw io.Writer) error {
	fs := flag.NewFlagSet("fpstudy", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		users      = fs.Int("users", 2093, "main-study participants")
		fuUsers    = fs.Int("followup-users", 528, "follow-up participants (0 skips the follow-up)")
		iterations = fs.Int("iterations", 30, "iterations per vector")
		seed       = fs.Int64("seed", core.MainStudySeed, "main-study seed")
		fuSeed     = fs.Int64("followup-seed", core.FollowUpSeed, "follow-up seed")
		out        = fs.String("out", "", "write the main dataset as NDJSON to this path")
		fuOut      = fs.String("followup-out", "", "write the follow-up dataset as NDJSON to this path")
		checkpoint = fs.String("checkpoint", "", "record rendering progress to this file and resume an interrupted run from it")
		ablation   = fs.Bool("ablation", true, "render the graph-vs-naive collation ablation")
		evolution  = fs.Int("evolution-users", 800, "users for the §6 era comparison (0 skips it)")
		traceJSON  = fs.String("trace-json", "", "write the pipeline span tree as JSON to this path")
		export     = fs.String("export", "", "write telemetry (pipeline spans + periodic metrics snapshots) to this NDJSON file")
		traceText  = fs.Bool("trace", false, "print the pipeline span tree to stderr on exit")
		progress   = fs.Bool("progress", false, "report rendering progress to stderr")
		pprofAddr  = fs.String("pprof", "", "serve /debug/pprof and /metrics on this address (e.g. localhost:6060)")
		engine     = fs.String("render-engine", "block", "DSP engine: block (compiled render programs) or reference (per-sample); outputs are bit-identical")
		shadow     = fs.Int("shadow", 0, "audit 1 in N cache-miss renders by re-rendering through both engines in lockstep (0 disables)")
		shadowOut  = fs.String("shadow-out", "", "write the shadow auditor's flight-record summary as JSON to this path (with -shadow)")
		kernelTime = fs.Bool("kernel-timing", false, "record per-kernel block timing histograms with trace exemplars (adds clock overhead per op)")
		vSweep     = fs.Bool("verify-sweep", false, "run the offline verification FAR/FRR/EER sweep over the evolved population instead of the measurement campaigns (uses -users and -seed)")
		vEpochs    = fs.Int("verify-epochs", 6, "evolved-population epochs for the sweep (with -verify-sweep)")
		vSamples   = fs.Int("verify-samples", 2, "samples per user per vector per epoch (with -verify-sweep)")
		vEnroll    = fs.Int("verify-enroll", 3, "leading epochs enrolled as stored history; the rest supply trials (with -verify-sweep)")
		vOut       = fs.String("verify-out", "", "write the sweep result as JSON — loadable by 'fpserver -verify-calibration' (with -verify-sweep)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(errw, "fpstudy ", log.LstdFlags|log.Lmsgprefix)

	switch *engine {
	case "block":
		webaudio.SetDefaultEngine(webaudio.EngineBlock)
	case "reference":
		webaudio.SetDefaultEngine(webaudio.EngineReference)
	default:
		return fmt.Errorf("unknown -render-engine %q (want block or reference)", *engine)
	}

	if *pprofAddr != "" {
		go func() {
			logger.Printf("debug endpoints on http://%s/debug/pprof", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, obs.DebugMux(obs.Default)); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}
	if *pprofAddr != "" || *export != "" {
		// runtime_* gauges for whoever is watching the telemetry.
		sampler := diag.NewSampler(diag.SamplerConfig{Registry: obs.Default})
		sampler.Start()
		defer sampler.Close()
	}

	var exporter *obs.Exporter
	if *export != "" {
		var err error
		exporter, err = obs.NewExporter(obs.ExportConfig{
			Path:     *export,
			Registry: obs.Default,
			Service:  "fpstudy",
		})
		if err != nil {
			return err
		}
		defer exporter.Close()
		logger.Printf("telemetry export to %s", *export)
	}

	root := obs.NewTrace("fpstudy")
	ctx := obs.ContextWithSpan(runCtx, root)

	if *kernelTime {
		webaudio.SetKernelTiming(true)
		defer webaudio.SetKernelTiming(false)
		// Kernel-timing exemplars carry the run's trace id, so a slow kernel
		// seen on a scrape links back to this campaign's span tree.
		webaudio.SetRenderTraceID(root.TraceID())
		defer webaudio.SetRenderTraceID("")
	}

	// One render cache across both campaigns: platform classes shared
	// between the main and follow-up mixes render once for the whole run.
	renderCache := vectors.NewCache()

	if *vSweep {
		return runVerifySweep(outw, logger, renderCache, verifySweepOpts{
			seed: *seed, users: *users, epochs: *vEpochs,
			samples: *vSamples, enroll: *vEnroll, out: *vOut,
		})
	}

	var auditor *vectors.ShadowAuditor
	if *shadow > 0 {
		auditor = vectors.NewShadowAuditor(vectors.ShadowConfig{Every: *shadow})
		renderCache.SetShadow(auditor)
		logger.Printf("shadow audit: lockstep-comparing 1 in %d cache-miss renders", *shadow)
	}

	start := time.Now()
	logger.Printf("simulating main study: %d users × %d iterations × 7 vectors", *users, *iterations)
	mainDS, err := study.RunContext(ctx, study.Config{
		Seed: *seed, Users: *users, Iterations: *iterations,
		Progress:       progressFunc(*progress, logger, "main study", renderCache),
		CheckpointPath: *checkpoint,
		RenderCache:    renderCache,
	})
	if err != nil {
		return fmt.Errorf("main study: %w", err)
	}
	logger.Printf("main study complete in %s", time.Since(start).Round(time.Millisecond))

	var followUp *study.Dataset
	if *fuUsers > 0 {
		followUp, err = study.RunContext(ctx, study.Config{
			Seed: *fuSeed, Users: *fuUsers, Iterations: *iterations,
			Mix: population.FollowUpMix(), IDPrefix: "f",
			Progress:    progressFunc(*progress, logger, "follow-up", renderCache),
			RenderCache: renderCache,
		})
		if err != nil {
			return fmt.Errorf("follow-up study: %w", err)
		}
	}

	for path, ds := range map[string]*study.Dataset{*out: mainDS, *fuOut: followUp} {
		if path == "" || ds == nil {
			continue
		}
		if err := writeDataset(path, ds); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		logger.Printf("dataset written to %s", path)
	}

	if err := core.WriteDemographicsContext(ctx, outw, mainDS); err != nil {
		return fmt.Errorf("render demographics: %w", err)
	}
	fmt.Fprintln(outw)
	if err := core.WriteAllExperimentsContext(ctx, outw, mainDS, followUp); err != nil {
		return fmt.Errorf("render experiments: %w", err)
	}
	if *ablation {
		if err := core.WriteAblationContext(ctx, outw, mainDS, 3); err != nil {
			return fmt.Errorf("render ablation: %w", err)
		}
		fmt.Fprintln(outw)
	}
	if err := core.WriteAnonymityContext(ctx, outw, mainDS); err != nil {
		return fmt.Errorf("render anonymity: %w", err)
	}
	fmt.Fprintln(outw)
	if *evolution > 0 {
		evCtx, sp := obs.Start(ctx, "analyze/evolution")
		err := core.WriteEvolutionContext(evCtx, outw, *seed, *evolution, min(*iterations, 10))
		sp.End()
		if err != nil {
			return fmt.Errorf("render evolution: %w", err)
		}
	}
	root.End()
	if exporter != nil {
		exporter.ExportSpan(root)
	}
	if auditor != nil {
		sum := auditor.Summary()
		logger.Printf("shadow audit: %d checks, %d divergences, %d errors",
			sum.Checks, sum.Divergences, sum.Errors)
		if sum.Divergences > 0 {
			logger.Printf("WARNING: engine divergence detected — fingerprints from this run are suspect; see -shadow-out")
		}
		if *shadowOut != "" {
			if err := writeShadowSummary(*shadowOut, sum); err != nil {
				return fmt.Errorf("shadow-out: %w", err)
			}
			logger.Printf("shadow audit summary written to %s", *shadowOut)
		}
	}
	writeTrace(logger, root, *traceJSON, *traceText)
	fmt.Fprintf(errw, "total runtime: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// verifySweepOpts carries the -verify-sweep knobs.
type verifySweepOpts struct {
	seed                           int64
	users, epochs, samples, enroll int
	out                            string
}

// runVerifySweep is the -verify-sweep mode: build the evolved population,
// sweep the verification threshold over genuine and impostor trials, print
// the FAR/FRR operating curve with its equal-error-rate point, and
// optionally persist the calibration for `fpserver -verify-calibration`.
func runVerifySweep(outw io.Writer, logger *log.Logger, cache *vectors.Cache, o verifySweepOpts) error {
	start := time.Now()
	logger.Printf("verify sweep: %d users × %d epochs × %d samples × %d vectors, enrolling %d epochs",
		o.users, o.epochs, o.samples, len(vectors.All), o.enroll)
	res, err := verify.Sweep(verify.SweepConfig{
		Evolved: study.EvolvedConfig{
			LongitudinalConfig: study.LongitudinalConfig{
				Seed: o.seed, Users: o.users, Epochs: o.epochs, SamplesPerEpoch: o.samples,
			},
			Vectors:     vectors.All,
			Churn:       population.DefaultChurn(),
			RenderCache: cache,
			Parallelism: 8,
		},
		EnrollEpochs: o.enroll,
	})
	if err != nil {
		return fmt.Errorf("verify sweep: %w", err)
	}
	cal := res.Calibration

	fmt.Fprintf(outw, "== Verification threshold sweep (evolved population) ==\n")
	fmt.Fprintf(outw, "users %d · epochs %d (enroll %d) · browser upgrades %d · OS upgrades %d · fingerprint shifts %d\n",
		res.Users, res.Epochs, res.EnrollEpochs, res.Upgrades, res.OSUpgrades, res.FingerprintShifts)
	fmt.Fprintf(outw, "trials: %d genuine, %d impostor\n\n", cal.GenuineTrials, cal.ImpostorTrials)
	fmt.Fprintf(outw, "%10s %8s %8s\n", "threshold", "FAR", "FRR")
	for _, p := range cal.Points {
		// The full grid is in -verify-out; print every 5th row.
		if int(p.Threshold*100+0.5)%5 == 0 {
			fmt.Fprintf(outw, "%10.2f %8.4f %8.4f\n", p.Threshold, p.FAR, p.FRR)
		}
	}
	fmt.Fprintf(outw, "\nEER %.4f at threshold %.2f\n", cal.EER, cal.EERThreshold)

	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Printf("calibration written to %s", o.out)
	}
	logger.Printf("verify sweep complete in %s", time.Since(start).Round(time.Millisecond))
	return nil
}

// progressFunc returns a goroutine-safe study.Config.Progress callback that
// logs at most ~20 updates per run (each with the render cache's state), or
// nil when reporting is off.
func progressFunc(enabled bool, logger *log.Logger, stage string, cache *vectors.Cache) func(done, total int) {
	if !enabled {
		return nil
	}
	return func(done, total int) {
		step := total / 20
		if step == 0 {
			step = 1
		}
		if done%step == 0 || done == total {
			st := cache.Stats()
			logger.Printf("%s: rendered %d/%d participants (render cache: %d entries, %.1f%% hits)",
				stage, done, total, st.Entries, 100*st.HitRatio())
		}
	}
}

// writeTrace exports the finished span tree as requested by the flags.
func writeTrace(logger *log.Logger, root *obs.Span, jsonPath string, text bool) {
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			logger.Printf("trace-json: %v", err)
		} else {
			if err := root.WriteJSON(f); err != nil {
				logger.Printf("trace-json: %v", err)
			}
			f.Close()
			logger.Printf("trace written to %s", jsonPath)
		}
	}
	if text {
		if err := root.WriteText(os.Stderr); err != nil {
			logger.Printf("trace: %v", err)
		}
	}
}

// writeShadowSummary persists the flight-record dump for postmortems.
func writeShadowSummary(path string, sum vectors.ShadowSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeDataset(path string, ds *study.Dataset) error {
	st, err := storage.Open(path, storage.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	return st.Append(ds.ToRecords(time.Now().UTC())...)
}
