//! rablock benchmark: one workload per invocation.
//!
//! ```text
//! rablock-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Every repeat (set-up + timed run of one cluster) runs in a child process
//! of its own (`--repeat VARIANT`); this process coordinates, checks, and
//! reports.
//!
//! `--trace 0` runs repeats for about `S` host seconds and reports the
//! end-to-end metrics: medians of the host times and of peak memory, and
//! the simulated metrics, which every repeat must reproduce exactly.
//! `--trace 1` is the separate traced run: it alternates untraced and
//! traced repeats for about `S` seconds, runs the other worker-shard count
//! once, drives the bare DES engine, replays the workload's op stream into
//! each store, and reports the per-layer metrics; with `--out` it writes
//! its spans there as Chrome trace-event JSON.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}, "problems"}`.
//! A failed check or a panic makes `correct` false and counts every
//! attempted op as failed.

mod layers;
mod measure;
mod spans;
mod workloads;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use measure::{median, run_repeat, Sample, Variant, LINE_TAG, SIMULATED};
use rablock::sim::Component;
use rablock_cluster::placement::{OsdId, OsdMap};
use spans::Spans;
use workloads::Workload;

/// Repeats below this count are too few for a median, whatever `--seconds`.
const MIN_REPEATS: usize = 3;
/// Ops replayed into each store by the traced run.
const REPLAY_OPS: usize = 30_000;
/// Events of each null-handler engine drive.
const DRIVE_EVENTS: u64 = 600_000;
/// The fewest simulated writes a run may have and still report p99.9.
const MIN_P999_SAMPLES: f64 = 10_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    repeat: Option<Variant>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, 10.0);
    let (mut trace, mut out, mut repeat) = (false, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            "--out" => out = Some(PathBuf::from(&value)),
            "--repeat" => repeat = Some(Variant::parse(&value).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
        repeat,
    })
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    /// Counts a repeat's ops and checks it reproduced `first`.
    fn account(&mut self, first: Option<&Sample>, s: &Sample, what: &str) {
        self.attempted += (s.ops() + s.get("client_errors")) as u64;
        self.failed += s.get("client_errors") as u64;
        if let Some(f) = first.filter(|f| f.fp != s.fp) {
            self.problems.push(format!(
                "{what}: simulated outputs differ ({} vs {})",
                s.fp, f.fp
            ));
        }
    }

    fn json(&self) -> String {
        let correct = self.problems.is_empty();
        let attempted = self.attempted.max(1);
        let failed = if correct { self.failed } else { attempted };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace(['"', '\\', '\n'], "'")))
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
             \"metrics\":{{{}}},\"problems\":[{}]}}",
            metrics.join(","),
            problems.join(",")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rablock-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(variant) = args.repeat {
        // A panic here exits non-zero; the coordinator counts it.
        println!("{}", run_repeat(args.workload, args.seed, variant));
        return;
    }
    let mut out = Outcome::default();
    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.trace {
            traced(&args, &mut out)
        } else {
            untraced(&args, &mut out)
        }
    }));
    if let Err(panic) = body {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        out.problems.push(format!("panic: {msg}"));
    }
    if out.metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        out.problems.push("a metric is not finite".into());
        for m in &mut out.metrics {
            m.2 = if m.2.is_finite() { m.2 } else { 0.0 };
        }
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", out.json());
}

/// Runs one repeat of `variant` in a child process, inside a span.
fn spawn_repeat(args: &Args, variant: Variant, spans: &mut Spans) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let span = spans.open(
        match variant {
            Variant::Plain => "repeat.plain",
            Variant::Traced => "repeat.traced",
            Variant::OtherShards => "repeat.other_shards",
        },
        None,
    );
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--repeat", variant.name()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a repeat: {e}"))?;
    spans.close(span);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let sample = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with(LINE_TAG))
        .and_then(Sample::parse);
    let Some(s) = sample.filter(|_| output.status.success()) else {
        return Err(format!(
            "{} repeat failed: {}",
            variant.name(),
            output.status
        ));
    };
    for (name, key) in [
        ("setup.new", "new"),
        ("setup.prefill", "prefill"),
        ("sim.run", "run"),
    ] {
        spans.inside(
            span,
            name,
            s.get(&format!("{key}.start_s")),
            s.get(&format!("{key}_s")),
        );
    }
    Ok(s)
}

/// Runs `variants` in turn until `seconds` of host time would be exceeded
/// (at least `min` rounds), stopping at the first failed repeat.
fn repeat_for(
    args: &Args,
    variants: &[Variant],
    min: usize,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Vec<(Variant, Sample)> {
    let start = Instant::now();
    let mut samples: Vec<(Variant, Sample)> = Vec::new();
    for round in 1.. {
        for &v in variants {
            match spawn_repeat(args, v, spans) {
                Ok(s) => {
                    out.account(samples.first().map(|(_, f)| f), &s, v.name());
                    samples.push((v, s));
                }
                Err(e) => {
                    out.attempted += 1;
                    out.problems.push(e);
                    return samples;
                }
            }
        }
        let spent = start.elapsed().as_secs_f64();
        if round >= min && spent + spent / round as f64 > args.seconds {
            break;
        }
    }
    samples
}

/// Checks made on every workload's first measured repeat.
fn check_repeat(args: &Args, s: &Sample, out: &mut Outcome) {
    if s.get("writes") < MIN_P999_SAMPLES {
        out.problems.push(format!(
            "only {} simulated writes: too few for p99.9",
            s.get("writes")
        ));
    }
    if args.workload.config(args.seed, 1).check_history && s.get("checker_reads") < 1.0 {
        out.problems
            .push("the history checker checked no read".into());
    }
}

fn medians(samples: &[&Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(|s| f(s)).collect::<Vec<_>>())
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args, out: &mut Outcome) {
    let mut spans = Spans::new();
    let samples = repeat_for(args, &[Variant::Plain], MIN_REPEATS, out, &mut spans);
    let all: Vec<&Sample> = samples.iter().map(|(_, s)| s).collect();
    let Some(first) = all.first() else { return };
    check_repeat(args, first, out);
    println!(
        "{}: seed {} repeats {} run_s {:?}",
        args.workload.name(),
        args.seed,
        all.len(),
        all.iter().map(|s| s.get("run_s")).collect::<Vec<_>>()
    );
    println!(
        "  writes {} reads {} events {} client_errors {} recovery_pushes {} backfill_bytes {}",
        first.get("writes"),
        first.get("reads"),
        first.get("events"),
        first.get("client_errors"),
        first.get("recovery_pushes"),
        first.get("backfill_bytes"),
    );
    let ops_per_s = medians(&all, |s| s.ops() / s.get("run_s"));
    out.metric("sim_ops_per_s", "1/s", ops_per_s);
    let setup = medians(&all, |s| s.get("new_s") + s.get("prefill_s"));
    out.metric("setup_s", "s", setup);
    out.metric("peak_rss_mb", "MiB", medians(&all, |s| s.get("rss_mib")));
    for (name, unit) in SIMULATED {
        out.metric(name, unit, first.get(name));
    }
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("op_ok_ratio", "ratio", ok);
}

/// `--trace 1`: the per-layer metrics.
fn traced(args: &Args, out: &mut Outcome) {
    let w = args.workload;
    let seed = args.seed;
    let cfg = w.config(seed, 1);
    let mut spans = Spans::new();
    let pair = [Variant::Plain, Variant::Traced];
    let samples = repeat_for(args, &pair, 1, out, &mut spans);
    let of = |v: Variant| -> Vec<&Sample> {
        samples
            .iter()
            .filter(|(x, _)| *x == v)
            .map(|(_, s)| s)
            .collect()
    };
    let (plain, traced) = (of(Variant::Plain), of(Variant::Traced));
    let (Some(&first), Some(&t)) = (plain.first(), traced.first()) else {
        return;
    };
    check_repeat(args, first, out);
    let wall = medians(&plain, |s| s.get("run_s"));
    let traced_wall = medians(&traced, |s| s.get("run_s"));

    // The same workload on the other worker count: identical outputs.
    let other = match spawn_repeat(args, Variant::OtherShards, &mut spans) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return;
        }
    };
    out.account(Some(first), &other, "other shard count");
    let (wall1, wall2) = if w.shards() == 1 {
        (wall, other.get("run_s"))
    } else {
        (other.get("run_s"), wall)
    };

    // The bare engine at this workload's domain count.
    let domains = cfg.nodes as usize + 1;
    let (e1_s, e1_n) = drive(out, &mut spans, "engine.drive.w1", domains, 1);
    let (e2_s, e2_n) = drive(out, &mut spans, "engine.drive.w2", domains, 2);
    let engine_ns = e1_s * 1e9 / e1_n;

    // The op stream replayed into each store, on the share of objects the
    // most loaded OSD holds (the lowest id among equals).
    let map = OsdMap::new(cfg.nodes, cfg.osds_per_node, cfg.pg_count, cfg.replication);
    let all_objects = w.objects(seed);
    let mut load = vec![0usize; (cfg.nodes * cfg.osds_per_node) as usize];
    for (oid, _) in &all_objects {
        for osd in map.acting_set(oid.group()).iter() {
            load[osd.0 as usize] += 1;
        }
    }
    let busiest = (0..load.len())
        .max_by_key(|&i| (load[i], std::cmp::Reverse(i)))
        .unwrap_or(0);
    let objects: Vec<_> = all_objects
        .into_iter()
        .filter(|(oid, _)| map.acting_set(oid.group()).contains(&OsdId(busiest as u32)))
        .collect();
    let held: BTreeSet<u64> = objects.iter().map(|(oid, _)| oid.raw()).collect();
    let ops = layers::replay_ops(w, seed, &held, REPLAY_OPS);
    // Each store is replayed where the cluster runs it; elsewhere its
    // metrics read 0.
    let mut drained = 0;
    if cfg.osd.mode.cos_backend() {
        for (checksums, name) in [(false, "replay.dop"), (true, "replay.dop_csum")] {
            let s = spans.open(name, None);
            drained += layers::replay_dop(&cfg.osd, checksums, &objects, &ops, &mut spans, s);
            spans.close(s);
        }
    }
    if cfg.osd.mode.lsm_backend() {
        let s = spans.open("replay.lsm", None);
        layers::replay_lsm(&cfg.osd, &objects, &ops, &mut spans, s);
        spans.close(s);
    }
    println!(
        "{}: seed {seed} pairs {} untraced {wall:.3}s traced {traced_wall:.3}s, \
         {} replay ops on osd {busiest} ({} objects), {drained} records drained",
        w.name(),
        plain.len(),
        ops.len(),
        objects.len(),
    );

    let ops_done = first.ops().max(1.0);
    let all: Vec<&Sample> = plain.iter().chain(traced.iter()).copied().collect();
    out.metric("setup.new_s", "s", medians(&all, |s| s.get("new_s")));
    out.metric(
        "setup.prefill_s",
        "s",
        medians(&all, |s| s.get("prefill_s")),
    );
    // Host time covers warm-up too; window counts are scaled up to it.
    let (warmup, measure) = w.windows();
    let k = (warmup.as_nanos() + measure.as_nanos()) as f64 / measure.as_nanos() as f64;
    let events = first.get("events");
    out.metric("sim.host_ns_per_event", "ns", wall * 1e9 / (events * k));
    out.metric("sim.events_per_op", "count", events / ops_done);
    out.metric("sim.engine_ns_per_event", "ns", engine_ns);
    out.metric("sim.engine_par_speedup", "x", (e1_s / e1_n) / (e2_s / e2_n));
    out.metric("sim.shard_speedup", "x", wall1 / wall2);
    out.metric(
        "sim.queue_high_water",
        "count",
        first.get("queue_high_water"),
    );

    // Component costs from the replays.
    let per = |name: &str, n: f64| spans.total(name).1 as f64 / n.max(1.0);
    let cos_submit = spans.mean_ns("cos.submit");
    let cos_read = spans.mean_ns("cos.read");
    let cos_submit_csum = spans.mean_ns("cos.submit_csum");
    let cos_read_csum = spans.mean_ns("cos.read_csum");
    let append = spans.mean_ns("oplog.append");
    let drain = per("oplog.drain", drained as f64);
    let lsm_submit = spans.mean_ns("lsm.submit");
    let lsm_read = spans.mean_ns("lsm.read");
    let lsm_maint = per("lsm.maintenance", spans.total("lsm.submit").0 as f64);
    out.metric("cos.submit_ns", "ns", cos_submit);
    out.metric("cos.read_ns", "ns", cos_read);
    out.metric("cos.submit_csum_ns", "ns", cos_submit_csum);
    out.metric("cos.read_csum_ns", "ns", cos_read_csum);
    out.metric("oplog.append_ns", "ns", append);
    out.metric("oplog.drain_ns_per_record", "ns", drain);
    out.metric("lsm.submit_ns", "ns", lsm_submit);
    out.metric("lsm.read_ns", "ns", lsm_read);
    out.metric("lsm.maintenance_ns_per_submit", "ns", lsm_maint);

    // Estimated share of the untraced run's wall time per layer: the calls
    // the cluster made (from SimReport, scaled to warm-up + window) times
    // the replayed cost per call.
    let share = |calls: f64, ns: f64| calls * k * ns / (wall * 1e9);
    let txns = first.get("transactions");
    let reads = first.get("reads");
    let mode = cfg.osd.mode;
    let (submit, read) = if cfg.osd.cos.checksums {
        (cos_submit_csum, cos_read_csum)
    } else {
        (cos_submit, cos_read)
    };
    let cos_share = if mode.cos_backend() {
        share(txns, submit) + share(reads, read)
    } else {
        0.0
    };
    let oplog_share = if mode.decoupled() {
        let appends = first.get("writes") * cfg.replication as f64;
        share(appends, append + drain)
    } else {
        0.0
    };
    let lsm_share = if mode.lsm_backend() {
        share(txns, lsm_submit + lsm_maint) + share(reads, lsm_read)
    } else {
        0.0
    };
    let engine_share = share(events, engine_ns);
    let gen_share = medians(&traced, |s| s.get("gen_ns") / 1e9 / s.get("run_s"));
    out.metric("sim.engine_est_share", "ratio", engine_share);
    out.metric("cos.est_share", "ratio", cos_share);
    out.metric("oplog.est_share", "ratio", oplog_share);
    out.metric("lsm.est_share", "ratio", lsm_share);
    out.metric("workload.gen_share", "ratio", gen_share);
    let rest = 1.0 - engine_share - cos_share - oplog_share - lsm_share - gen_share;
    out.metric("cluster.handler_rest_share", "ratio", rest);

    // Modelled counts.
    for tag in ["MP", "RP", "TP", "OS", "MT"] {
        let pct = first.get(&format!("cpu_pct.{tag}"));
        out.metric(format!("cluster.cpu_pct.{tag}"), "%", pct);
    }
    let ctx = first.get("ctx_switches") / ops_done;
    out.metric("cluster.ctx_switches_per_op", "count", ctx);
    for (name, key, unit) in [
        ("cluster.nvm_full_stalls", "nvm_full_stalls", "count"),
        ("cluster.recovery_pushes", "recovery_pushes", "count"),
        ("cluster.backfill_bytes", "backfill_bytes", "bytes"),
        ("cluster.degraded_objects_end", "degraded_objects", "count"),
        ("sim_read_p50_us", "sim_read_p50_us", "us"),
        ("sim_read_p99_us", "sim_read_p99_us", "us"),
    ] {
        out.metric(name, unit, first.get(key));
    }
    let user = first.get("user_bytes").max(1.0);
    for name in ["wal", "flush", "compaction", "data", "metadata"] {
        let bytes = first.get(&format!("{name}_bytes"));
        out.metric(
            format!("storage.{name}_bytes_per_user_byte"),
            "ratio",
            bytes / user,
        );
    }
    let dev_writes = first.get("device_writes") / ops_done;
    out.metric("storage.device_writes_per_op", "count", dev_writes);

    // Simulated latency attribution from the traced run.
    if !t.n.contains_key("attr.queue") {
        out.problems
            .push("the traced run reported no attribution".into());
    }
    for comp in Component::ALL {
        let name = comp.name();
        let v = t.get(&format!("attr.{name}"));
        out.metric(format!("attr.share.{name}"), "ratio", v);
    }
    out.metric("trace.overhead_ratio", "ratio", traced_wall / wall);

    if let Some(dir) = &args.out {
        let path = dir.join(format!("spans-{}-seed{seed}.json", w.name()));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.chrome_json()));
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => out
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }
}

/// One null-handler engine drive inside a span: `(host seconds, events)`.
fn drive(
    out: &mut Outcome,
    spans: &mut Spans,
    name: &'static str,
    domains: usize,
    workers: usize,
) -> (f64, f64) {
    let s = spans.open(name, None);
    let (secs, events) = layers::engine_drive(domains, workers, DRIVE_EVENTS);
    spans.close(s);
    if events < DRIVE_EVENTS / 2 {
        out.problems
            .push(format!("engine drive ran only {events} events"));
    }
    (secs, events.max(1) as f64)
}
