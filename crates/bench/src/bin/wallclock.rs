//! Wall-clock throughput harness for the simulator itself.
//!
//! Every figure cell drives the sans-io OSD core through the DES engine,
//! so the wall-clock speed of that loop bounds how much of the parameter
//! space a sweep can cover. This binary measures it directly: it runs the
//! fixed [`scenarios`] — fig7 4 KiB random write, chaos (fault injection)
//! and grow-4->8->64 elastic expansion — under `std::time::Instant` and
//! reports
//!
//! * **events/sec** — scheduler work items executed per wall-clock second
//!   (`SimReport::events_processed` over the timed `run` call), and
//! * **sim-ops/sec** — completed simulated client operations per wall-clock
//!   second.
//!
//! Each scenario is also run twice with the same seed as a determinism
//! guard: the full [`SimReport::fingerprint`] (counters, latency
//! percentiles, CPU% per stage, HistoryChecker verdicts) must be
//! byte-identical, so a perf change that altered simulated results would
//! fail here first. Each scenario prints its scheduler and fingerprint hash
//! so CI can diff runs.
//!
//! Usage:
//!
//! ```text
//! wallclock [--iters N] [--smoke] [--only NAME] [--sched wheel|heap]
//!           [--sweep] [--jobs N] [--trace-out PATH] [--shards N]
//!           [--scale-curve] [--check-jobs]
//! ```
//!
//! `--smoke` runs seconds-scale windows. `--sched` picks the event-queue
//! implementation. `--sweep` replaces the scenarios with the full figure
//! grid run on `--jobs` worker threads (see the `figures` binary for the
//! figure-facing variant).
//!
//! `--shards N` sets how many worker threads execute the engine's
//! space-parallel domains (clients+monitor in domain 0, one domain per
//! storage node). The partition is fixed at construction and the
//! cross-domain merge order is total, so every fingerprint printed here is
//! byte-identical for every N — CI diffs `--shards 1/2/4` runs to prove it.
//!
//! `--scale-curve` runs the 256-OSD (32 nodes x 8 OSDs), 10 000-connection
//! 4 KiB random-write scenario at shards 1, 2, 4, and 8, prints the curve
//! with the host core count and asserts all four fingerprints are
//! identical — speedup is only meaningful relative to the cores the run
//! actually had.
//!
//! `--check-jobs` runs the smoke figure sweep at `--jobs 1` and `--jobs 2`
//! and asserts the two-job run is not slower (beyond a noise tolerance):
//! the longest-cell-first schedule plus share-nothing workers must never
//! lose to the sequential order, even on a single hardware thread.
//!
//! `--trace-out PATH` re-runs each selected scenario with tracing and
//! windowed telemetry armed, asserts the traced fingerprint is identical
//! to the untraced one (tracing is passive by construction), and writes a
//! Perfetto-loadable Chrome trace JSON plus `.telemetry.csv` /
//! `.attribution.csv` siblings. With `--only NAME` the JSON lands at PATH
//! exactly; otherwise each scenario gets a `-<name>` suffix.
//!
//! The grow scenario also reports the write-tail degradation window: its
//! p99 write latency next to the p99 of a churn-free control run on the
//! same 64-OSD topology, so a regression in rebalance interference shows
//! up as a ratio change.
//!
//! This harness writes no benchmark record; `perfbench/run.py` is the
//! benchmark.

use std::path::PathBuf;
use std::time::Instant;

use rablock::sim::{fp_hash, SchedulerKind, SimDuration, SimReport};
use rablock_bench::banner;
use rablock_bench::scenarios::{self, Scenario, SCALE_CONNS, SCALE_NODES, SCALE_OSDS_PER_NODE};
use rablock_bench::sweep::{figure_cells, run_sweep, SweepOutcome};

/// One timed scenario run.
struct Sample {
    wall_secs: f64,
    events: u64,
    /// Completed simulated writes plus reads.
    sim_ops: u64,
    /// p99 write latency of the run, in simulated nanoseconds.
    p99_write_ns: u64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    fn sim_ops_per_sec(&self) -> f64 {
        self.sim_ops as f64 / self.wall_secs
    }
}

/// Deterministic per-run observability artifacts (`--trace-out`).
struct TraceOut {
    /// Chrome trace-event JSON (Perfetto-loadable): slow-op span trees
    /// plus the telemetry counter tracks.
    chrome_json: String,
    /// Windowed telemetry time-series as CSV.
    telemetry_csv: String,
    /// Per-component latency attribution, pre-rendered as CSV rows.
    attribution_csv: String,
}

/// Renders a report's attribution breakdown as CSV (component per row).
fn attribution_csv(r: &SimReport) -> String {
    let mut out = String::from("component,mean_ns,p50_ns,p95_ns,p99_ns,p999_ns,total_ns,share\n");
    if let Some(att) = &r.attribution {
        for (comp, lat, total) in &att.components {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.4}\n",
                comp.name(),
                lat.mean.as_nanos(),
                lat.p50.as_nanos(),
                lat.p95.as_nanos(),
                lat.p99.as_nanos(),
                lat.p999.as_nanos(),
                total,
                att.share(*comp),
            ));
        }
    }
    out
}

/// Builds and prefills `scenario` outside the timer, times only the DES
/// `run` call, and fingerprints the report (with the history checker's
/// verdicts when the scenario arms it). `trace` also arms tracing plus
/// 2 ms telemetry windows and returns the artifacts.
fn run_scenario(
    mut scenario: Scenario,
    sched: SchedulerKind,
    shards: usize,
    trace: bool,
    warmup: SimDuration,
    measure: SimDuration,
) -> (Sample, Vec<u64>, Option<TraceOut>) {
    scenario.cfg.scheduler = sched;
    scenario.cfg.shards = shards;
    if trace {
        scenario.cfg.trace = true;
        scenario.cfg.telemetry_window = Some(SimDuration::millis(2));
    }
    let mut sim = scenario.build();
    let t = Instant::now();
    let report = sim.run(warmup, measure);
    let wall_secs = t.elapsed().as_secs_f64();
    let checker = sim.checker().map(|c| (c.writes_acked(), c.reads_checked()));
    let fp = report.fingerprint(checker);
    let out = trace.then(|| TraceOut {
        chrome_json: sim.trace_chrome_json().expect("tracing armed"),
        telemetry_csv: sim.telemetry_csv(),
        attribution_csv: attribution_csv(&report),
    });
    let sample = Sample {
        wall_secs,
        events: report.events_processed,
        sim_ops: report.writes_done + report.reads_done,
        p99_write_ns: report.write_lat.p99.as_nanos(),
    };
    (sample, fp, out)
}

/// `--scale-curve`: run the scale scenario at 1/2/4/8 worker shards and
/// assert every fingerprint equals the shards=1 one.
fn run_scale_curve(smoke: bool, sched: SchedulerKind) {
    let measure = if smoke {
        SimDuration::millis(4)
    } else {
        SimDuration::millis(12)
    };
    let run = |shards| {
        let (sample, fp, _) = run_scenario(
            scenarios::scale(),
            sched,
            shards,
            false,
            SimDuration::ZERO,
            measure,
        );
        (sample, fp)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "scale curve: {SCALE_NODES} nodes x {SCALE_OSDS_PER_NODE} OSDs, \
         {SCALE_CONNS} conns, 4 KiB randwrite, {} ms window, {cores} host cores",
        measure.as_nanos() / 1_000_000,
    );
    // Untimed warmup: the first run in a process pays allocator growth
    // and zero-page faults for the MemDisks; without it the shards=1
    // point (always measured first) looks 2x slower than steady state.
    let _ = run(1);
    // Shared 1-core runners jitter wall time by 3-5x between runs; the
    // min of a few repeats is the usual low-noise estimator for
    // CPU-bound work. Every repeat still has to reproduce the
    // fingerprint, so the determinism check gets stronger, not weaker.
    let iters = if smoke { 1 } else { 3 };
    let mut base_fp: Option<Vec<u64>> = None;
    for shards in [1usize, 2, 4, 8] {
        let (mut s, fp) = run(shards);
        for _ in 1..iters {
            let (again, fp_again) = run(shards);
            assert_eq!(
                fp, fp_again,
                "scale: shards={shards} fingerprint drifted between repeats"
            );
            if again.wall_secs < s.wall_secs {
                s = again;
            }
        }
        println!(
            "  [scale] shards {shards}: wall {:.3}s  events {}  events/sec {:.0}  \
             fingerprint {:#018x}",
            s.wall_secs,
            s.events,
            s.events_per_sec(),
            fp_hash(&fp),
        );
        match &base_fp {
            None => base_fp = Some(fp),
            Some(base) => assert_eq!(
                *base, fp,
                "scale: shards={shards} must replay the shards=1 fingerprint byte-identically"
            ),
        }
    }
    println!("  [scale] fingerprints identical across shards 1/2/4/8: OK");
}

/// `--check-jobs`: the sweep-parallelism regression guard. An earlier
/// sweep had `--jobs 2` *losing* to `--jobs 1` (133.3k vs 151.9k
/// events/sec) because workers serialized on shared result state and the
/// longest cell landed last. With longest-first scheduling and
/// share-nothing workers, two jobs must never be slower than one beyond
/// measurement noise — even on a single hardware thread, where the best
/// case is a tie.
fn run_jobs_check(sched_label: SchedulerKind) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("jobs check (smoke sweep, scheduler {sched_label:?}, {cores} host cores):");
    // Alternate job counts and keep the min of three runs each: shared
    // runners drift minute to minute, and the regression this guards
    // against (the pre-LPT schedule) was only ~1.14x — a single shot
    // cannot tell that from noise.
    let (mut s1, mut s2) = (run_figure_sweep(true, 1), run_figure_sweep(true, 2));
    for _ in 0..2 {
        let again2 = run_figure_sweep(true, 2);
        let again1 = run_figure_sweep(true, 1);
        if again1.wall_secs < s1.wall_secs {
            s1 = again1;
        }
        if again2.wall_secs < s2.wall_secs {
            s2 = again2;
        }
    }
    assert_eq!(
        s1.events, s2.events,
        "sweep must execute the same events regardless of job count"
    );
    // On one core two jobs can only tie (plus scheduling noise); with real
    // parallelism available a loss means contention crept back in.
    let tolerance = if cores >= 2 { 1.10 } else { 1.25 };
    println!(
        "  [jobs] jobs=1 {:.3}s  jobs=2 {:.3}s  ratio {:.3} (tolerance {tolerance})",
        s1.wall_secs,
        s2.wall_secs,
        s2.wall_secs / s1.wall_secs,
    );
    assert!(
        s2.wall_secs <= s1.wall_secs * tolerance,
        "sweep parallelism regression: --jobs 2 took {:.3}s vs --jobs 1 {:.3}s \
         (tolerance {tolerance}x on {cores} cores)",
        s2.wall_secs,
        s1.wall_secs,
    );
    println!("  [jobs] check passed: two jobs are not slower than one");
}

/// Runs one scenario `iters` times (plus a determinism re-run of the first
/// iteration) and returns the best sample by events/sec plus the first
/// run's fingerprint (for traced-vs-untraced comparisons).
fn measure_scenario(
    name: &str,
    iters: usize,
    run: impl Fn() -> (Sample, Vec<u64>, Option<TraceOut>),
) -> (Sample, Vec<u64>) {
    let (first, fp_a, _) = run();
    let (_, fp_b, _) = run();
    assert_eq!(
        fp_a, fp_b,
        "{name}: same seed must replay a byte-identical metric fingerprint"
    );
    println!(
        "  [{name}] determinism guard: OK ({} counters identical)",
        fp_a.len()
    );
    println!("  [{name}] fingerprint {:#018x}", fp_hash(&fp_a));
    let mut best = first;
    for _ in 1..iters.max(1) {
        let (s, _, _) = run();
        if s.events_per_sec() > best.events_per_sec() {
            best = s;
        }
    }
    println!(
        "  [{name}] wall {:.3}s  events {}  events/sec {:.0}  sim-ops/sec {:.0}",
        best.wall_secs,
        best.events,
        best.events_per_sec(),
        best.sim_ops_per_sec(),
    );
    (best, fp_a)
}

/// Runs a scenario once with tracing + telemetry armed, asserts the traced
/// fingerprint matches the untraced one (tracing must be purely passive),
/// and writes the artifacts next to `path`'s stem (`-<name>` suffix unless
/// the caller narrowed the run to one scenario with `--only`).
fn emit_trace_artifacts(
    name: &str,
    path: &str,
    exclusive: bool,
    untraced_fp: &[u64],
    untraced_wall_secs: f64,
    run: impl Fn() -> (Sample, Vec<u64>, Option<TraceOut>),
) {
    let (traced, fp, out) = run();
    assert_eq!(
        fp, untraced_fp,
        "{name}: tracing must not change the simulation (fingerprint drift)"
    );
    println!("  [{name}] traced fingerprint identical: OK");
    println!(
        "  [{name}] traced wall {:.3}s  overhead {:+.1}% vs untraced {:.3}s",
        traced.wall_secs,
        (traced.wall_secs / untraced_wall_secs - 1.0) * 100.0,
        untraced_wall_secs
    );
    let out = out.expect("traced run yields artifacts");
    let dest = if exclusive {
        PathBuf::from(path)
    } else {
        let p = PathBuf::from(path);
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let ext = p.extension().and_then(|s| s.to_str()).unwrap_or("json");
        p.with_file_name(format!("{stem}-{name}.{ext}"))
    };
    std::fs::write(&dest, &out.chrome_json).expect("write trace json");
    println!("  [{name}] trace written: {}", dest.display());
    let telemetry_dest = dest.with_extension("telemetry.csv");
    std::fs::write(&telemetry_dest, &out.telemetry_csv).expect("write telemetry csv");
    println!("  [{name}] telemetry written: {}", telemetry_dest.display());
    let attribution_dest = dest.with_extension("attribution.csv");
    std::fs::write(&attribution_dest, &out.attribution_csv).expect("write attribution csv");
    println!(
        "  [{name}] attribution written: {}",
        attribution_dest.display()
    );
}

/// Runs the full figure grid (`--sweep`, `--check-jobs`) and prints its
/// merged-output hash and throughput.
fn run_figure_sweep(smoke: bool, jobs: usize) -> SweepOutcome {
    let cells = figure_cells(smoke, None);
    println!(
        "figure sweep: {} cells on {jobs} jobs{}",
        cells.len(),
        if smoke { " (smoke)" } else { "" }
    );
    let outcome = run_sweep(cells, jobs);
    let merged = outcome.merged_lines();
    let merged_hash = fp_hash(&merged.bytes().map(u64::from).collect::<Vec<u64>>());
    println!("  [sweep] merged output hash {merged_hash:#018x}");
    println!(
        "  [sweep] wall {:.3}s  events {}  events/sec {:.0}",
        outcome.wall_secs,
        outcome.events,
        outcome.events as f64 / outcome.wall_secs,
    );
    outcome
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut sweep = false;
    let mut iters = 3usize;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut only: Option<String> = None;
    let mut sched = SchedulerKind::default();
    let mut trace_path: Option<String> = None;
    let mut shards = 1usize;
    let mut scale_curve = false;
    let mut check_jobs = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                shards = args
                    .get(i + 1)
                    .expect("--shards needs a value")
                    .parse()
                    .expect("--shards takes a number");
                i += 2;
            }
            "--scale-curve" => {
                scale_curve = true;
                i += 1;
            }
            "--check-jobs" => {
                check_jobs = true;
                i += 1;
            }
            "--trace-out" => {
                trace_path = Some(args.get(i + 1).expect("--trace-out needs a path").clone());
                i += 2;
            }
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters takes a number");
                i += 2;
            }
            "--jobs" => {
                jobs = args
                    .get(i + 1)
                    .expect("--jobs needs a value")
                    .parse()
                    .expect("--jobs takes a number");
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--sweep" => {
                sweep = true;
                i += 1;
            }
            "--only" => {
                only = Some(args.get(i + 1).expect("--only needs a value").clone());
                i += 2;
            }
            "--sched" => {
                sched = match args.get(i + 1).expect("--sched needs a value").as_str() {
                    "wheel" => SchedulerKind::Wheel,
                    "heap" => SchedulerKind::Heap,
                    other => panic!("--sched takes wheel|heap, got {other:?}"),
                };
                i += 2;
            }
            other => panic!(
                "unknown argument {other:?} \
                 (expected --iters/--jobs/--smoke/--sweep/--only/--sched/--trace-out\
                 /--shards/--scale-curve/--check-jobs)"
            ),
        }
    }

    banner(
        "wallclock",
        "wall-clock throughput of the simulator (events/sec, sim-ops/sec)",
    );

    // Sweep cells build their own configs through `run_sim`, which picks
    // up the process-wide default; the scenario runners below take the
    // value explicitly.
    rablock_bench::set_default_shards(shards);
    println!("worker shards: {shards}");

    if check_jobs {
        run_jobs_check(sched);
        return;
    }

    if scale_curve {
        run_scale_curve(smoke, sched);
        return;
    }

    if sweep {
        run_figure_sweep(smoke, jobs);
        return;
    }

    println!("scheduler: {sched:?}");
    let (fig7_measure, chaos_measure, grow_measure) = if smoke {
        (
            SimDuration::millis(20),
            SimDuration::millis(100),
            SimDuration::millis(150),
        )
    } else {
        // The grow window intentionally matches smoke: the p99 degradation
        // window is measured over the expansion itself (both churn waves
        // plus backfill settle), and a longer steady-state tail only
        // dilutes the churn-window tail back toward the control's.
        (
            SimDuration::millis(160),
            SimDuration::secs(2),
            SimDuration::millis(150),
        )
    };
    if smoke {
        iters = 1;
    }

    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);
    let exclusive = only.is_some();
    if want("fig7") {
        println!("fig7 4 KiB randwrite (DOP, 4 nodes x 2 OSDs, 16 conns):");
        let run = |trace| {
            run_scenario(
                scenarios::fig7(),
                sched,
                shards,
                trace,
                SimDuration::ZERO,
                fig7_measure,
            )
        };
        let (fig7, fp) = measure_scenario("fig7", iters, || run(false));
        if let Some(path) = &trace_path {
            emit_trace_artifacts("fig7", path, exclusive, &fp, fig7.wall_secs, || run(true));
        }
    }
    if want("chaos") {
        println!("chaos (3 nodes, faults + retries + history checker):");
        let run = |trace| {
            run_scenario(
                scenarios::chaos(),
                sched,
                shards,
                trace,
                SimDuration::ZERO,
                chaos_measure,
            )
        };
        let (chaos, fp) = measure_scenario("chaos", iters, || run(false));
        if let Some(path) = &trace_path {
            emit_trace_artifacts("chaos", path, exclusive, &fp, chaos.wall_secs, || run(true));
        }
    }
    if want("grow") {
        println!("grow 4->8->64 OSDs under load (weight churn + throttled backfill):");
        // The churn run measures from t0 so the expansion windows (8 ms and
        // 20 ms) land inside the percentile frame. The control warms up past
        // the 64-OSD heartbeat-staggering transient and measures steady
        // state, making its p99 the clean baseline the degradation is
        // judged against.
        let (control, _, _) = run_scenario(
            scenarios::grow(false),
            sched,
            shards,
            false,
            SimDuration::millis(25),
            grow_measure,
        );
        let run = |trace| {
            run_scenario(
                scenarios::grow(true),
                sched,
                shards,
                trace,
                SimDuration::ZERO,
                grow_measure,
            )
        };
        let (grow, fp) = measure_scenario("grow", iters, || run(false));
        if let Some(path) = &trace_path {
            emit_trace_artifacts("grow", path, exclusive, &fp, grow.wall_secs, || run(true));
        }
        println!(
            "  [grow] p99 write {} ns vs churn-free control {} ns ({:.2}x degradation window)",
            grow.p99_write_ns,
            control.p99_write_ns,
            grow.p99_write_ns as f64 / control.p99_write_ns.max(1) as f64,
        );
    }
}
