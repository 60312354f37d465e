//! One measured cluster run (set-up + timed `run`) in a process of its own,
//! and the line it reports to the coordinating process.
//!
//! Each repeat runs in a fresh process so that every repeat starts from the
//! allocator state a user's single run starts from. Repeating clusters in
//! one process lets freed device and NVM buffers come back through `calloc`,
//! which then zero-fills them: on the scale workload that inflated resident
//! memory from 1.4 GB to 5.5 GB by the third repeat.

use std::collections::BTreeMap;
use std::time::Instant;

use rablock::sim::{ClusterSim, Component, SimDuration, SimReport};

use crate::workloads::{GenClock, Workload};

/// Which configuration a repeat runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The measured configuration, tracing off.
    Plain,
    /// Tracing on: simulator spans, and timed generators.
    Traced,
    /// Tracing off, on the other worker-shard count (1 <-> 2).
    OtherShards,
}

impl Variant {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Traced => "traced",
            Variant::OtherShards => "other-shards",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Variant> {
        [Variant::Plain, Variant::Traced, Variant::OtherShards]
            .into_iter()
            .find(|v| v.name() == s)
    }

    /// Worker shards this variant runs `w` on.
    pub fn shards(self, w: Workload) -> usize {
        match (self, w.shards()) {
            (Variant::OtherShards, 1) => 2,
            (Variant::OtherShards, _) => 1,
            (_, n) => n,
        }
    }
}

/// Prefix of the line a repeat process prints last.
pub const LINE_TAG: &str = "REPEAT";

/// Builds, prefills and runs `w` once, timing each call, and returns the
/// report line: [`LINE_TAG`], `fp=<hash>`, then `name=value` pairs.
pub fn run_repeat(w: Workload, seed: u64, variant: Variant) -> String {
    let t0 = Instant::now();
    let mut cfg = w.config(seed, variant.shards(w));
    let traced = variant == Variant::Traced;
    cfg.trace = traced;
    let clock = GenClock::default();
    let conns = w.generators(seed, traced.then_some(&clock));
    let objects = w.objects(seed);
    let mut n: Vec<(String, f64)> = Vec::new();
    let stamp = |name: &str, start: f64, n: &mut Vec<(String, f64)>| {
        n.push((format!("{name}.start_s"), start));
        n.push((format!("{name}_s"), t0.elapsed().as_secs_f64() - start));
    };

    let start = t0.elapsed().as_secs_f64();
    let mut sim = ClusterSim::new(cfg, conns);
    stamp("new", start, &mut n);
    let start = t0.elapsed().as_secs_f64();
    sim.prefill(&objects);
    stamp("prefill", start, &mut n);
    let (warmup, measure) = w.windows();
    let start = t0.elapsed().as_secs_f64();
    let report = sim.run(warmup, measure);
    stamp("run", start, &mut n);

    let checker = sim.checker().map(|c| (c.writes_acked(), c.reads_checked()));
    let fp = fp_hash(&fingerprint(&report, checker));
    n.extend(report_numbers(&report, checker));
    n.push(("gen_ns".into(), clock.ns() as f64));
    n.push(("rss_mib".into(), peak_rss_mib()));
    let pairs: Vec<String> = n.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{LINE_TAG} fp={fp:016x} {}", pairs.join(" "))
}

/// A repeat's report line, parsed.
pub struct Sample {
    /// Hash of every simulated output (see [`fingerprint`]).
    pub fp: String,
    /// The named numbers.
    pub n: BTreeMap<String, f64>,
}

impl Sample {
    /// Parses a report line.
    pub fn parse(line: &str) -> Option<Sample> {
        let mut words = line.strip_prefix(LINE_TAG)?.split_whitespace();
        let fp = words.next()?.strip_prefix("fp=")?.to_string();
        let mut n = BTreeMap::new();
        for w in words {
            let (k, v) = w.split_once('=')?;
            n.insert(k.to_string(), v.parse().ok()?);
        }
        Some(Sample { fp, n })
    }

    /// A named number (0 when the repeat did not report it).
    pub fn get(&self, name: &str) -> f64 {
        self.n.get(name).copied().unwrap_or(0.0)
    }

    /// Completed simulated client ops.
    pub fn ops(&self) -> f64 {
        self.get("writes") + self.get("reads")
    }
}

/// Every simulated output of a run, in a fixed order: two runs of the same
/// workload and seed must give identical fingerprints whatever the host,
/// the worker count or tracing. The latency attribution is left out: it
/// exists only when tracing is on.
fn fingerprint(r: &SimReport, checker: Option<(u64, u64)>) -> Vec<u64> {
    let mut v = vec![
        r.duration.as_nanos(),
        r.writes_done,
        r.reads_done,
        r.write_iops.to_bits(),
        r.read_iops.to_bits(),
        r.context_switches,
        r.events_processed,
        r.nvm_bytes,
        r.nvm_full_stalls,
        r.client_errors,
        r.queue_high_water,
        r.recovery_pushes,
        r.backfill_bytes,
        r.backfill_queued,
        r.backfill_throttled_nanos,
        r.flaps_damped,
        r.degraded_objects,
        r.read_checksum_errors,
    ];
    v.extend(
        r.write_lat
            .fields()
            .iter()
            .chain(r.read_lat.fields().iter())
            .map(|d| d.as_nanos()),
    );
    v.extend(r.node_cpu_pct.iter().map(|p| p.to_bits()));
    v.extend(r.tag_cpu_pct.values().map(|p| p.to_bits()));
    v.extend(r.class_cpu_pct.values().map(|p| p.to_bits()));
    let s = &r.store;
    v.extend([
        s.user_bytes,
        s.wal_bytes,
        s.flush_bytes,
        s.compaction_bytes,
        s.data_bytes,
        s.metadata_bytes,
        s.superblock_bytes,
        s.read_bytes,
        s.transactions,
    ]);
    let d = &r.device;
    v.extend([
        d.reads,
        d.writes,
        d.flushes,
        d.bytes_read,
        d.bytes_written,
        d.total_latency_ns,
    ]);
    if let Some((acked, checked)) = checker {
        v.extend([acked, checked]);
    }
    v
}

/// FNV-1a over the fingerprint words.
fn fp_hash(fp: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in fp.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn us(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// The simulated end-to-end metrics of a report, with their units.
pub const SIMULATED: [(&str, &str); 6] = [
    ("sim_kiops", "kIOPS"),
    ("sim_write_p50_us", "us"),
    ("sim_write_p99_us", "us"),
    ("sim_write_p999_us", "us"),
    ("sim_cpu_us_per_op", "us"),
    ("waf", "ratio"),
];

/// The numbers the coordinator needs from a report.
fn report_numbers(r: &SimReport, checker: Option<(u64, u64)>) -> Vec<(String, f64)> {
    let ops = (r.writes_done + r.reads_done).max(1) as f64;
    let secs = r.duration.as_secs_f64();
    let cpu_pct: f64 = r.tag_cpu_pct.values().sum();
    let s = &r.store;
    let mut n: Vec<(String, f64)> = [
        ("sim_kiops", ops / secs / 1e3),
        ("sim_write_p50_us", us(r.write_lat.p50)),
        ("sim_write_p99_us", us(r.write_lat.p99)),
        ("sim_write_p999_us", us(r.write_lat.p999)),
        ("sim_cpu_us_per_op", cpu_pct / 100.0 * secs * 1e6 / ops),
        ("waf", s.waf()),
        ("sim_read_p50_us", us(r.read_lat.p50)),
        ("sim_read_p99_us", us(r.read_lat.p99)),
        ("writes", r.writes_done as f64),
        ("reads", r.reads_done as f64),
        ("client_errors", r.client_errors as f64),
        ("events", r.events_processed as f64),
        ("queue_high_water", r.queue_high_water as f64),
        ("transactions", s.transactions as f64),
        ("ctx_switches", r.context_switches as f64),
        ("nvm_full_stalls", r.nvm_full_stalls as f64),
        ("recovery_pushes", r.recovery_pushes as f64),
        ("backfill_bytes", r.backfill_bytes as f64),
        ("degraded_objects", r.degraded_objects as f64),
        ("device_writes", r.device.writes as f64),
        ("user_bytes", s.user_bytes as f64),
        ("wal_bytes", s.wal_bytes as f64),
        ("flush_bytes", s.flush_bytes as f64),
        ("compaction_bytes", s.compaction_bytes as f64),
        ("data_bytes", s.data_bytes as f64),
        ("metadata_bytes", s.metadata_bytes as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for tag in ["MP", "RP", "TP", "OS", "MT"] {
        let pct = r.tag_cpu_pct.get(tag).copied().unwrap_or(0.0);
        n.push((format!("cpu_pct.{tag}"), pct));
    }
    if let Some((_, reads_checked)) = checker {
        n.push(("checker_reads".into(), reads_checked as f64));
    }
    if let Some(att) = &r.attribution {
        for comp in Component::ALL {
            n.push((format!("attr.{}", comp.name()), att.share(comp)));
        }
    }
    n
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
