// Command fpbench is the repository's end-to-end benchmark. It measures the
// two systems the paper's evidence comes from — the offline study pipeline
// and the collection server — through their public APIs only, and splits
// each end-to-end number into the layers beneath it.
//
// # Running
//
// From this directory:
//
//	go run . -workload campaign -seed 7 -seconds 20 -trace 0
//	go run . -workload auth -trace 1 -out auth.json
//	go run .                 # every workload, traced, each in its own process
//
// From the repository root, building into .bench_build/ first:
//
//	bash cmd/fpbench/run.sh --workload study --seed 7 --seconds 20 --trace 0
//
// cmd/fpbench is a Go module of its own (go.mod here, with the repository
// module replaced by ../..), so the repository's go build ./... and go test
// ./... leave it out; run its tests with go test ./... from this directory.
//
// Flags: -workload (study, campaign, campaign-sharded, auth, or all),
// -seed (default 20220325), -seconds (the served workloads' measured
// phase, default 20), -trace (0 or 1), -out FILE (the full result with its
// provenance block: Go version, CPU model, nproc, GOMAXPROCS). Stores live
// under .bench_build/tmp in the working directory while a workload runs.
//
// The report — every metric by name with value, unit and sample count, a
// tail's percentile in parentheses, then the ledger and any failed check —
// goes to stderr. The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// an output check or a measurement check fails.
//
// # Workloads
//
// Every input comes from -seed: the populations, the arrival times, the
// verify claims. Each workload runs in a fresh process.
//
//   - study: fpstudy's default sequence in-process. Main study 2093 users ×
//     30 iterations and follow-up 528 × 30 sharing one vectors.Cache, all
//     twelve experiments, the s=3 ablation, the anonymity sets and the era
//     comparison over 800 users, written to a buffer. The main study's seed
//     is -seed; the follow-up's is shifted by the same amount from fpstudy's
//     default, so the default seed reproduces fpstudy exactly. -seconds does
//     not apply: the pipeline is one fixed job. It covers the offline layers
//     (render about a third, Figure 5 a quarter, the era comparison a third,
//     which renders twice with no shared cache) and bypasses every server
//     layer.
//   - campaign: the paper's collection campaign on fpserver's default
//     deployment: one storage.Store, one streaming.Engine, one verify.Engine,
//     empty at the start. 70 participants arrive per second; each opens a
//     session and submits their 210 records (7 vectors × 30 iterations,
//     rendered from the seed through study.RunContext) as a batch of 128 and
//     one of 82. A dashboard reads 50 times per second, round-robin over the
//     entropy, clusters, stability, ami and status routes. The write path
//     does most of the work. It is the workload that would catch a cost from
//     making the single engine "a router of one shard".
//   - campaign-sharded: the same traffic on -shards 4: shard.Stores with
//     seq-stamped records, shard.Router fan-out with cross-shard merges and
//     AMI refreshes, shard.Verifiers. Same inputs, a different code path.
//   - auth: read-mostly, on 4 shards. Before set-up the store is written with
//     iterations 0–9 of 2093 participants (146,510 records; harness
//     preparation, untimed), so set-up is a restart over that history. Then
//     400 verify requests per second (claims walk a seeded permutation of
//     the 2093 users; half are genuine, half carry another user's
//     fingerprints; two samples per vector, from iterations 10–29), 50
//     dashboard reads per second and 5 newly enrolling participants per
//     second. Verify decisions and merged reads do most of the work, and the
//     writes invalidate the router's merged state about ten times a second.
//
// # Load shape
//
// Load comes from the benchmark's own process, with GOMAXPROCS = nproc: two
// worker goroutines over two keep-alive loopback connections, through
// collectclient for sessions, submissions and verification and through
// net/http for the analytics reads, which collectclient does not cover. The
// server is collectserver.New behind httptest on loopback TCP. Traffic is
// open-loop: operations arrive as a Poisson process conditioned on its
// count (rate × seconds, so the offered work is the same for every seed),
// an operation is sent when due whether or not earlier ones have finished,
// and its latency is timed from its due time. time.Sleep ends on a
// millisecond-granular poll, so the generator sleeps whole milliseconds
// until a calibrated margin before the due time and yields in a loop for the
// rest; gen.lag_* reports how late the operations a worker waited for were
// sent, and a median above 0.05 ms fails the run. The phase lasts 20 s by
// default: 1,400 visits and 1,000 reads on the campaigns, 8,000 verify
// requests on auth, so every tail down to p99 has ten samples beyond it, and
// one run of each of the four workloads takes about 105 s in all.
//
// Server settings are fpserver's defaults — MaxBatch 256, MaxInFlight 256,
// no fsync per append, an AMI refresh every 4096 records, recovery on start
// — except that the per-address session and submission limits are lifted,
// because one loopback address carries every participant, and request
// logging and the runtime sampler are off.
//
// # End-to-end metrics (-trace 0)
//
// Measured with tracing off: no wrappers, no span hooks.
//
//   - setup_s: the median set-up time. For the served workloads, from
//     storage.Open to a ready handler in fpserver's start-up order (open and
//     recover the store, read it, bootstrap analytics, read it again, enroll
//     verification, build the server). For study, sampling both participant
//     pools. A run collects the preparation's garbage, then sets up at least
//     three times, and keeps going until the set-ups have taken a second (at
//     most 201); the served run keeps the last server it built. On the
//     campaigns each set-up opens an empty store in a directory of its own,
//     removed with the server it fed, so every set-up meets the same file
//     system.
//   - cpu_s: process CPU over the measured job or phase, from runtime/metrics
//     as total − idle − idle-priority GC marking (getrusage counts the idle
//     marking, which varies from run to run). It includes the load
//     generator, whose work is fixed by the offered load.
//   - live_heap_mb: heap in use after a forced collection at the end of the
//     phase minus the same reading just before the kept server was built (or
//     before the pipeline ran), so harness data is excluded.
//
// Failed or refused operations are counted in the result line's failed
// field, and any failure also fails the output checks.
//
// Latency is a per-layer metric (client.latency_p50_ms and
// client.latency_tail_ms), not an end-to-end one, because its spread between
// runs of the same code is wider than any bound the benchmark can set. On
// the 2-vCPU host the benchmark was defined on, a fixed amount of work costs
// 10–25% more CPU time in some minutes than in others, and the visit median
// moves about 1.5 times as much as cpu_s does, because the extra time also
// delays the operations queued behind it. In ten-seed sweeps the visit
// median spread (q3 − q1 over the median) 0.095 against cpu_s's 0.060 in the
// same runs on campaign, and 0.145 against 0.098 on campaign-sharded; a
// sweep of 10-second runs spread as widely as one of 25-second runs (0.14
// and 0.15), so longer runs do not narrow it: the host drifts over minutes,
// not within a run. When the host was busier, two sets of ten 10-second runs
// spread 0.22 and 0.34 on campaign, past 0.25, the widest bound a metric may
// have. cpu_s, set-up time and memory stay the gated metrics; baseline.json
// records the latency spreads.
//
// # Per-layer metrics (-trace 1)
//
// A traced run first runs the untraced twin in a child process, for
// trace.overhead_cpu_pct, then repeats the workload with a timing handler
// around the server's handler, timing wrappers around the RecordStore,
// Analytics and Verifier it is built with, collectserver's Config.Trace and
// streaming's Config.Spans feeding an in-memory span sink, and registry
// counters read before and after the phase. Metrics of a layer the workload
// does not touch read 0 with no samples. A tail (_tail_ms) is the highest of
// p99.9, p99.5, p99, p98, p95, p90, p75 and p50 with at least ten samples
// above it; the report names which. Which end-to-end metric (or client
// latency) each should move, and where it should not:
//
//   - study.*: the study's span tree — population_s, render_s (with
//     render_misses, render_hit_ratio and render_ms_per_miss from the shared
//     cache), intern_s, figure5_s, evolution_s, other_analyses_s and
//     unattributed_s, which sum to the wall time — and alloc_mb. Move
//     client.latency_p50_ms and cpu_s on study; on the served workloads they
//     describe the untimed preparation and move no end-to-end metric.
//   - client.*: latency_p50_ms and latency_tail_ms of the workload's
//     user-facing operation — the whole pipeline's wall time for study (one
//     sample), a participant's visit from scheduled arrival to the ack of
//     their last batch for the campaigns, a verify request for auth — and
//     read_p50_ms and read_tail_ms of the dashboard reads, from the due time.
//     They move with cpu_s wherever the work is on the request path.
//   - http.transport_p50_ms: client-observed time minus handler time, per
//     request. Moves client.latency_p50_ms on auth and on campaign.
//   - collectserver.*: session_p50_ms (handler time) and submit_self_* (the
//     submit handler's time minus its store append, analytics enqueue and
//     verify enrollment). Move client.latency_p50_ms and cpu_s on the
//     campaigns, not on study.
//   - storage.append_*: RecordStore.Append. Moves client.latency_p50_ms on
//     the campaigns.
//   - streaming.*: enqueue_wait_tail_ms (the EnqueueContext call),
//     queue_wait_* (apply-span start minus enqueue return, joined on the
//     trace id), apply_p50_ms and apply_busy_ratio (apply time over phase
//     time per shard), staleness_tail_ms — how long before a read was sent
//     the oldest acknowledged record its answer did not include was
//     acknowledged (AMI answers excluded; they lag by design) — and
//     ami_refreshes, the single engine's AMI refreshes. Move cpu_s on the
//     campaigns and client.read_* on campaign.
//   - analytics.*_p50_ms: one Analytics read per route. Move client.read_*
//     on auth; nearly flat on the campaigns.
//   - shard.*: merges and merge_cache_hit_ratio over the phase, and
//     refresh_merges (merges that happened outside any read call) next to
//     expected_refreshes, the records acknowledged over 4096, which is also
//     reported on campaign, beside streaming.ami_refreshes. Move cpu_s and
//     client.latency_p50_ms on campaign-sharded and client.read_* on auth;
//     zero on campaign.
//   - verify.*: enroll_p50_ms (per submit) and decision_* (per verify). Move
//     client.latency_p50_ms and live_heap_mb on auth and cpu_s on campaign.
//   - setup.*: median stage times of the set-ups (store_open_s covers open
//     and recover; store_read_s both reads). Move setup_s on auth.
//   - runtime.gc_cpu_s and runtime.alloc_mb over the phase; gen.lag_* and
//     trace.overhead_cpu_pct are health checks only.
//
// # Reading the ledger
//
// A traced served run prints one ledger row per request class — session,
// submit, read, verify — with the mean client-observed time per request
// split into transport (client time minus handler time, joined on the trace
// id the client stamps), the handler's self time, and its calls into the
// layers below: store.append, analytics.enqueue and verify.enroll for a
// submit, verify.decision for a verify, analytics.read for a read. The
// parts must sum to the total within 1%, or the run fails. A traced study
// run attributes its wall time to the stages above and fails if more than
// 2% is unattributed.
//
// # Output checks
//
//   - study at the default seed and paper sizes: the output is byte-identical
//     to testdata/study-20220325.txt, fpstudy's standard output at its
//     defaults. (docs/full-study-output.txt is not the reference: its §5
//     ranking lines differ from what fpstudy prints today.) At other seeds
//     the printed Table 2 must equal a streaming.Engine replay of the main
//     dataset.
//   - served: after the analytics plane has synced, the store holds exactly
//     the preloaded plus the acknowledged records, and the entropy route
//     answers the rows study.FromRecordsOpts(KeepAllObservations) computes
//     from those records.
//   - auth: every 20th verify decision equals an in-process verify.Engine's
//     enrolled with the preloaded records.
//
// # First findings
//
// Measured at the default seed with -seconds 20 on a 2-vCPU Intel Xeon
// virtual machine with Go 1.24.0 and GOMAXPROCS 2; baseline.json holds the
// baseline with its provenance, and the traced numbers come from one traced
// run per workload. Timings on this host drift by 10–30% between runs
// minutes apart, so read these as ratios and orders of magnitude.
//
//   - Sharded ingest costs more at the same offered load (70 participants/s,
//     14,700 records/s). campaign-sharded's cpu_s set medians are 9.9 and
//     8.9 s against campaign's 7.2 and 6.7 s, and its visit p50 2.73 and
//     2.37 ms against 2.37 and 2.30 ms. Traced, its visit tail (p99) is
//     35 ms against 8.9 ms, and most dashboard reads pay a cross-shard
//     merge: the merge cache hit ratio is 0.22, and entropy, clusters and
//     stability reads take 3.2, 1.5 and 1.2 ms at p50 against 0.83, 0.006
//     and 0.025 ms on one engine.
//   - The router refreshes AMI at about twice its cadence: of 579 merges
//     over 294,000 records, 143 happened outside any read, against
//     294,000/4096 = 71.8 expected; the single engine refreshed 70 times.
//     shard.Router starts a new RefreshAMI goroutine on every enqueue until
//     the refresh in flight finishes.
//   - Sharded cold start is JSON decoding. auth's set-up over 146,510 stored
//     records takes 3.5–4.2 s (set medians). Traced: opening and recovering
//     the store 2.6 s and its two full reads 2.0 s, against 0.15 s to
//     bootstrap analytics and 0.11 s to enroll verification. Each record is
//     decoded five times: the open-time count, OpenStores' sequence scan,
//     Recover and fpserver's two All calls.
//   - Generator slack: time.Sleep of a fractional-millisecond wait ends on
//     the next whole millisecond, 0.54 ms late at p50 during a campaign run.
//     Sleeping whole milliseconds and yielding for the rest sends at
//     0.0006–0.0008 ms after the due time at p50, with a p99.5 of 2.9–10 ms
//     while both processors run server work.
//   - A verify decision is 3% of a verify request: 0.016 of 0.48 ms at the
//     mean, with 0.36 ms in transport. Warm reads stay slow: on auth 82% of
//     the router's merged-state lookups hit its cache, yet entropy reads
//     take 3.7 ms at p50.
package main
