//! Parallel figure sweep: every table and figure of the paper as a flat
//! grid of independent simulation cells, fanned across OS threads.
//!
//! Reproducing every figure sequentially costs minutes of wall-clock
//! because every cell is a single-threaded DES run. The cells are mutually
//! independent, though — each builds its own cluster from a fixed seed — so
//! the sweep runs them on a pool of worker threads ([`run_sweep`]) and
//! merges results **by cell key, not completion order**. Two runs with
//! different `--jobs` produce byte-identical merged output; parallelism
//! lives strictly *between* simulations, never inside one (see DESIGN.md
//! §11).
//!
//! [`figure_cells`] enumerates the full grid: Figures 1, 7–12, Tables I
//! and II, the two extension ablations, elastic expansion and scrub
//! overhead. [`SweepOutcome::csv_by_prefix`] renders one CSV per figure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use rablock::sim::{ChurnOp, Component, ConnWorkload, SimDuration, SimReport, SimTime};
use rablock::PipelineMode;
use rablock_cluster::placement::DEFAULT_OSD_WEIGHT;
use rablock_workload::{AccessPattern, FioJob, Table, YcsbKind, YcsbWorkload};

use crate::{
    paper_cluster, randread_conns, randwrite_conns, run_sim, windows, Dataset, FioConn,
    SeqWriteThenRead, YcsbConn,
};

/// What one sweep cell reports back: the raw counters every cell shares
/// plus the figure-specific fields its figure tabulates.
pub struct CellOut {
    /// Scheduler work items the cell's simulation executed.
    pub events: u64,
    /// Completed simulated writes.
    pub writes: u64,
    /// Completed simulated reads.
    pub reads: u64,
    /// Figure-specific `key=value` fields, in fixed order.
    pub fields: Vec<(&'static str, String)>,
}

impl CellOut {
    fn from_report(r: &SimReport, fields: Vec<(&'static str, String)>) -> CellOut {
        CellOut {
            events: r.events_processed,
            writes: r.writes_done,
            reads: r.reads_done,
            fields,
        }
    }
}

/// One independent simulation in the sweep grid.
pub struct Cell {
    /// Stable identifier; merged output is sorted by it.
    pub key: String,
    /// Relative cost estimate (arbitrary units; larger = longer). The
    /// scheduler starts expensive cells first (LPT) so a long cell claimed
    /// last cannot straggle past the pool's drain and stretch the sweep's
    /// tail — the makespan regression the `--jobs 2` baseline showed.
    pub cost_hint: u64,
    run: Box<dyn FnOnce() -> CellOut + Send>,
}

impl Cell {
    fn new(key: impl Into<String>, run: impl FnOnce() -> CellOut + Send + 'static) -> Cell {
        Cell {
            key: key.into(),
            cost_hint: 1,
            run: Box::new(run),
        }
    }

    /// Sets the cell's relative cost estimate (see [`Cell::cost_hint`]).
    fn cost(mut self, hint: u64) -> Cell {
        self.cost_hint = hint.max(1);
        self
    }
}

/// A completed cell: its deterministic data line plus (non-deterministic)
/// per-cell wall time for scheduling diagnostics.
pub struct CellResult {
    /// The cell's key.
    pub key: String,
    /// The cell's counters and fields.
    pub out: CellOut,
    /// Wall-clock seconds this cell took (not part of merged output).
    pub wall_secs: f64,
}

impl CellResult {
    /// The deterministic merged-output line for this cell (no timing).
    pub fn line(&self) -> String {
        let mut s = format!(
            "cell {} writes={} reads={} events={}",
            self.key, self.out.writes, self.out.reads, self.out.events
        );
        for (k, v) in &self.out.fields {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }
}

/// Outcome of a sweep: key-sorted cell results plus aggregate timing.
pub struct SweepOutcome {
    /// Cell results sorted by key (deterministic merge order).
    pub results: Vec<CellResult>,
    /// Total wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Sum of events over all cells.
    pub events: u64,
}

impl SweepOutcome {
    /// The full deterministic merged output, one line per cell.
    pub fn merged_lines(&self) -> String {
        let mut s = String::new();
        for r in &self.results {
            s.push_str(&r.line());
            s.push('\n');
        }
        s
    }

    /// One CSV per key prefix (the key up to its first `/`, e.g. `fig07`),
    /// in key order: a `cell,writes,reads,events,<fields>` header and one
    /// row per cell. Every cell of a prefix reports the same fields.
    pub fn csv_by_prefix(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, Table)> = Vec::new();
        for r in &self.results {
            let prefix = r.key.split('/').next().unwrap_or(&r.key);
            if out.last().is_none_or(|(p, _)| p != prefix) {
                let header = ["cell", "writes", "reads", "events"]
                    .into_iter()
                    .chain(r.out.fields.iter().map(|(k, _)| *k));
                out.push((prefix.to_string(), Table::new(header)));
            }
            let row = [
                r.key.clone(),
                r.out.writes.to_string(),
                r.out.reads.to_string(),
                r.out.events.to_string(),
            ]
            .into_iter()
            .chain(r.out.fields.iter().map(|(_, v)| v.clone()));
            out.last_mut().expect("table pushed above").1.row(row);
        }
        out.into_iter().map(|(p, t)| (p, t.to_csv())).collect()
    }
}

/// Runs `cells` on `jobs` worker threads pulling from a shared work index,
/// then merges results in key order. With `jobs = 1` this degenerates to a
/// sequential run; the merged output is identical either way because each
/// cell is internally single-threaded and seeded, and merge order is by
/// key, never by completion time.
///
/// Scheduling is longest-processing-time-first: cells are claimed in
/// descending [`Cell::cost_hint`] order (ties broken by key, so the claim
/// order itself is deterministic), which keeps the expensive cells off the
/// sweep's tail. Workers share exactly one cache line of mutable state —
/// the claim index — and stream results back over a channel; nothing else
/// is touched by more than one thread.
pub fn run_sweep(cells: Vec<Cell>, jobs: usize) -> SweepOutcome {
    let n = cells.len();
    let t = Instant::now();
    // LPT order. The per-slot mutex is locked exactly once, by the claiming
    // worker — it exists to move the FnOnce out, not to synchronize.
    let mut order: Vec<Cell> = cells;
    order.sort_by(|a, b| b.cost_hint.cmp(&a.cost_hint).then(a.key.cmp(&b.key)));
    let work: Vec<Mutex<Option<Cell>>> = order.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<CellResult>();
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            let tx = tx.clone();
            let next = &next;
            let work = &work;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = work[i]
                    .lock()
                    .expect("work slot lock")
                    .take()
                    .expect("each index is claimed once");
                let key = cell.key;
                let cell_t = Instant::now();
                let out = (cell.run)();
                tx.send(CellResult {
                    key,
                    out,
                    wall_secs: cell_t.elapsed().as_secs_f64(),
                })
                .expect("collector outlives workers");
            });
        }
        drop(tx);
    });
    let mut results: Vec<CellResult> = rx.into_iter().collect();
    assert_eq!(results.len(), n, "every cell reports exactly once");
    results.sort_by(|a, b| a.key.cmp(&b.key));
    let events = results.iter().map(|r| r.out.events).sum();
    SweepOutcome {
        results,
        wall_secs: t.elapsed().as_secs_f64(),
        events,
    }
}

/// Scales a harness window down for smoke runs (CI) while keeping the grid
/// shape identical to a full sweep.
fn scaled(d: SimDuration, smoke: bool) -> SimDuration {
    if smoke {
        SimDuration::nanos((d.as_nanos() / 8).max(4_000_000))
    } else {
        d
    }
}

fn wins(smoke: bool) -> (SimDuration, SimDuration) {
    let (w, m) = windows();
    (scaled(w, smoke), scaled(m, smoke))
}

fn mode_slug(mode: PipelineMode) -> &'static str {
    match mode {
        PipelineMode::Original => "original",
        PipelineMode::RtcV1 => "rtc-v1",
        PipelineMode::RtcV2 => "rtc-v2",
        PipelineMode::RtcV3 => "rtc-v3",
        PipelineMode::Cos => "cos",
        PipelineMode::Ptc => "ptc",
        PipelineMode::Dop => "dop",
        PipelineMode::Ideal => "ideal",
    }
}

fn ns(d: rablock::sim::SimDuration) -> String {
    d.as_nanos().to_string()
}

/// The full figure grid: one [`Cell`] per (figure, configuration) point.
/// `only` filters by key prefix; `smoke` shrinks measurement windows without
/// changing the grid.
pub fn figure_cells(smoke: bool, only: Option<&str>) -> Vec<Cell> {
    let mut cells = Vec::new();
    // Cost hints in connection-milliseconds of simulated time — a coarse
    // proxy for events executed, good enough for LPT ordering. `cms`
    // converts (connections, [windows...]) to that unit.
    let cms = |conns: u64, wins: &[SimDuration]| -> u64 {
        conns
            * wins
                .iter()
                .map(|w| w.as_nanos() / 1_000_000)
                .sum::<u64>()
                .max(1)
    };
    let (std_w, std_m) = wins(smoke);

    // Figure 1 — roofline: Original vs RTC variants at 4 cores/node.
    for mode in [
        PipelineMode::Original,
        PipelineMode::RtcV1,
        PipelineMode::RtcV2,
        PipelineMode::RtcV3,
    ] {
        let hint = cms(12, &[std_w, std_m]);
        cells.push(
            Cell::new(format!("fig01/{}", mode_slug(mode)), move || {
                let conns = 12;
                let dataset = Dataset::default_for(conns);
                let (warmup, measure) = wins(smoke);
                let mut cfg = paper_cluster(mode);
                cfg.cores_per_node = 4;
                cfg.osds_per_node = 1;
                cfg.messenger_threads = 2;
                cfg.pg_threads = 2;
                cfg.rtc_threads = 4;
                let r = run_sim(
                    cfg,
                    dataset,
                    randwrite_conns(dataset, conns),
                    warmup,
                    measure,
                );
                CellOut::from_report(
                    &r,
                    vec![
                        ("iops", format!("{:.0}", r.write_iops)),
                        ("lat_ns", ns(r.write_lat.mean)),
                        ("cpu_pct", format!("{:.1}", r.mean_node_cpu())),
                        ("ctx", r.context_switches.to_string()),
                    ],
                )
            })
            .cost(hint),
        );
    }

    // Table I — write amplification of the Original backend.
    let hint = cms(8, &[std_w, scaled(SimDuration::millis(900), smoke)]);
    cells.push(
        Cell::new("table1/original", move || {
            let conns = 8;
            let dataset = Dataset::default_for(conns);
            let mut cfg = paper_cluster(PipelineMode::Original);
            cfg.osd.lsm.level_base_bytes = 4 << 20;
            cfg.osd.lsm.level_multiplier = 6;
            let (warmup, _) = wins(smoke);
            let measure = scaled(SimDuration::millis(900), smoke);
            let r = run_sim(
                cfg,
                dataset,
                randwrite_conns(dataset, conns),
                warmup,
                measure,
            );
            let data = r.store.user_bytes;
            let total = r.device.bytes_written;
            CellOut::from_report(
                &r,
                vec![
                    ("user", (data / 2).to_string()),
                    ("data", data.to_string()),
                    ("total", total.to_string()),
                    ("waf", format!("{:.3}", total as f64 / data.max(1) as f64)),
                ],
            )
        })
        .cost(hint),
    );

    // Figure 7 — 4 KiB random write/read: Original vs Proposed vs Ideal.
    for part in ["write", "read"] {
        for mode in [
            PipelineMode::Original,
            PipelineMode::Dop,
            PipelineMode::Ideal,
        ] {
            cells.push(
                Cell::new(format!("fig07/{part}/{}", mode_slug(mode)), move || {
                    let conns = 16;
                    let dataset = Dataset::default_for(conns);
                    let (warmup, measure) = wins(smoke);
                    let workloads = if part == "write" {
                        randwrite_conns(dataset, conns)
                    } else {
                        randread_conns(dataset, conns)
                    };
                    let r = run_sim(paper_cluster(mode), dataset, workloads, warmup, measure);
                    let (iops, lat) = if part == "write" {
                        (r.write_iops, r.write_lat)
                    } else {
                        (r.read_iops, r.read_lat)
                    };
                    CellOut::from_report(
                        &r,
                        vec![
                            ("iops", format!("{iops:.0}")),
                            ("lat_ns", ns(lat.mean)),
                            ("p95_ns", ns(lat.p95)),
                            ("cpu_pct", format!("{:.1}", r.mean_node_cpu())),
                        ],
                    )
                })
                .cost(cms(16, &[std_w, std_m])),
            );
        }
    }

    // Table II — cumulative ablation Original → COS → PTC → DOP.
    for mode in [
        PipelineMode::Original,
        PipelineMode::Cos,
        PipelineMode::Ptc,
        PipelineMode::Dop,
    ] {
        cells.push(
            Cell::new(format!("table2/{}", mode_slug(mode)), move || {
                let conns = 16;
                let dataset = Dataset::default_for(conns);
                let (warmup, measure) = wins(smoke);
                let r = run_sim(
                    paper_cluster(mode),
                    dataset,
                    randwrite_conns(dataset, conns),
                    warmup,
                    measure,
                );
                CellOut::from_report(
                    &r,
                    vec![
                        ("iops", format!("{:.0}", r.write_iops)),
                        ("lat_ns", ns(r.write_lat.mean)),
                    ],
                )
            })
            .cost(cms(16, &[std_w, std_m])),
        );
    }

    // Figure 8 — write amplification: Original vs Proposed variants.
    for (slug, mode, pre_allocate, metadata_cache) in [
        ("original-lsm", PipelineMode::Original, true, false),
        ("prealloc", PipelineMode::Dop, true, false),
        ("prealloc-metacache", PipelineMode::Dop, true, true),
        ("no-prealloc", PipelineMode::Dop, false, false),
    ] {
        let hint = cms(8, &[std_w, scaled(SimDuration::millis(400), smoke)]);
        cells.push(
            Cell::new(format!("fig08/{slug}"), move || {
                let conns = 8;
                let dataset = Dataset::default_for(conns);
                let (warmup, _) = wins(smoke);
                let measure = scaled(SimDuration::millis(400), smoke);
                let mut cfg = paper_cluster(mode);
                cfg.osd.cos.pre_allocate = pre_allocate;
                cfg.osd.cos.metadata_cache = metadata_cache;
                let r = run_sim(
                    cfg,
                    dataset,
                    randwrite_conns(dataset, conns),
                    warmup,
                    measure,
                );
                let user = r.store.user_bytes;
                let device = r.device.bytes_written;
                CellOut::from_report(
                    &r,
                    vec![
                        ("user", user.to_string()),
                        ("device", device.to_string()),
                        ("waf", format!("{:.3}", device as f64 / user.max(1) as f64)),
                    ],
                )
            })
            .cost(hint),
        );
    }

    // Figure 9 — 128 KiB sequential throughput vs client threads.
    for threads in [1usize, 2, 4, 8, 16] {
        for part in ["write", "read"] {
            for mode in [PipelineMode::Original, PipelineMode::Dop] {
                // Sequential 128 KiB ops move far more bytes per op; the
                // read cells also pay a full write pass first.
                let w9 = scaled(SimDuration::millis(80), smoke);
                let m9 = scaled(SimDuration::millis(120), smoke);
                let hint = cms(threads as u64, &[w9, m9]) * if part == "read" { 4 } else { 2 };
                cells.push(
                    Cell::new(
                        format!("fig09/t{threads:02}/{part}/{}", mode_slug(mode)),
                        move || {
                            let warmup = scaled(SimDuration::millis(80), smoke);
                            let measure = scaled(SimDuration::millis(120), smoke);
                            let mut cfg = paper_cluster(mode);
                            cfg.queue_depth = 8;
                            let dataset = Dataset {
                                images: threads as u64,
                                image_bytes: 8 << 20,
                            };
                            let workloads: Vec<Box<dyn ConnWorkload>> = (0..threads)
                                .map(|c| {
                                    if part == "read" {
                                        Box::new(SeqWriteThenRead::new(dataset, c as u64))
                                            as Box<dyn ConnWorkload>
                                    } else {
                                        let job = FioJob::new(
                                            AccessPattern::SeqWrite,
                                            128 << 10,
                                            dataset.image_bytes,
                                        );
                                        Box::new(FioConn::new(dataset, c as u64, job))
                                            as Box<dyn ConnWorkload>
                                    }
                                })
                                .collect();
                            let r = run_sim(cfg, dataset, workloads, warmup, measure);
                            let done = if part == "write" {
                                r.writes_done
                            } else {
                                r.reads_done
                            };
                            let gbps = done as f64 * (128u64 << 10) as f64
                                / r.duration.as_secs_f64()
                                / 1e9;
                            CellOut::from_report(&r, vec![("gbps", format!("{gbps:.3}"))])
                        },
                    )
                    .cost(hint),
                );
            }
        }
    }

    // Figure 10 — YCSB A/B/C/D/F with 1000-byte unaligned records.
    for kind in YcsbKind::ALL {
        for mode in [PipelineMode::Original, PipelineMode::Dop] {
            cells.push(
                Cell::new(
                    format!(
                        "fig10/{}/{}",
                        format!("{kind:?}").to_lowercase(),
                        mode_slug(mode)
                    ),
                    move || {
                        let conns = 8;
                        let records_per_image = 12_000u64;
                        let record_bytes = 1_000u64;
                        let capacity = 16_000u64;
                        let dataset = Dataset {
                            images: conns as u64,
                            image_bytes: capacity * record_bytes,
                        };
                        let (warmup, measure) = wins(smoke);
                        let workloads = (0..conns)
                            .map(|c| {
                                let wl = YcsbWorkload::new(
                                    kind,
                                    records_per_image,
                                    record_bytes,
                                    capacity,
                                );
                                Box::new(YcsbConn::new(dataset, c as u64, wl))
                                    as Box<dyn ConnWorkload>
                            })
                            .collect();
                        let r = run_sim(paper_cluster(mode), dataset, workloads, warmup, measure);
                        let tput = (r.writes_done + r.reads_done) as f64 / r.duration.as_secs_f64();
                        CellOut::from_report(
                            &r,
                            vec![
                                ("ops_s", format!("{tput:.0}")),
                                ("read_lat_ns", ns(r.read_lat.mean)),
                                ("update_lat_ns", ns(r.write_lat.mean)),
                            ],
                        )
                    },
                )
                .cost(cms(8, &[std_w, std_m])),
            );
        }
    }

    // Figure 11 — partition scalability of the object store.
    for (i, partitions) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let hint = cms(3 * (i as u64 + 1), &[std_w, std_m]);
        cells.push(
            Cell::new(format!("fig11/p{partitions}"), move || {
                let conns = 3 * (i + 1);
                let dataset = Dataset::default_for(conns);
                let (warmup, measure) = wins(smoke);
                let mut cfg = paper_cluster(PipelineMode::Dop);
                cfg.osd.cos.partitions = partitions;
                cfg.non_priority_threads = partitions;
                let r = run_sim(
                    cfg,
                    dataset,
                    randwrite_conns(dataset, conns),
                    warmup,
                    measure,
                );
                CellOut::from_report(
                    &r,
                    vec![
                        ("conns", conns.to_string()),
                        ("iops", format!("{:.0}", r.write_iops)),
                        ("lat_ns", ns(r.write_lat.mean)),
                    ],
                )
            })
            .cost(hint),
        );
    }

    // Figure 12 — 95p latency vs op-log flush threshold.
    let hint = cms(12, &[std_w, std_m]);
    for threshold in [4usize, 8, 16, 32, 64] {
        cells.push(
            Cell::new(format!("fig12/thr{threshold:02}"), move || {
                let conns = 12;
                let dataset = Dataset {
                    images: conns as u64,
                    image_bytes: 2 << 20,
                };
                let (warmup, measure) = wins(smoke);
                let mut cfg = paper_cluster(PipelineMode::Dop);
                cfg.osd.flush_threshold = threshold;
                cfg.pacing = Some(SimDuration::micros(300));
                cfg.osd.ring_bytes = 512 << 10;
                cfg.flush_sweep = SimDuration::millis(40);
                let workloads = (0..conns)
                    .map(|c| {
                        let job = FioJob::new(
                            AccessPattern::RandRw { read_pct: 20 },
                            4096,
                            dataset.image_bytes,
                        );
                        Box::new(FioConn::new(dataset, c as u64, job)) as Box<dyn ConnWorkload>
                    })
                    .collect();
                let r = run_sim(cfg, dataset, workloads, warmup, measure);
                CellOut::from_report(
                    &r,
                    vec![
                        ("write_p95_ns", ns(r.write_lat.p95)),
                        ("read_p95_ns", ns(r.read_lat.p95)),
                        ("write_p99_ns", ns(r.write_lat.p99)),
                        ("write_p999_ns", ns(r.write_lat.p999)),
                    ],
                )
            })
            .cost(hint),
        );
    }

    // Extension ablation A — NVM ring capacity pressure.
    for ring in [16u64 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10] {
        cells.push(
            Cell::new(format!("abl-nvm/ring{:03}k", ring >> 10), move || {
                let conns = 12;
                let dataset = Dataset::default_for(conns);
                let (warmup, measure) = wins(smoke);
                let mut cfg = paper_cluster(PipelineMode::Dop);
                cfg.osd.ring_bytes = ring;
                let r = run_sim(
                    cfg,
                    dataset,
                    randwrite_conns(dataset, conns),
                    warmup,
                    measure,
                );
                CellOut::from_report(
                    &r,
                    vec![
                        ("iops", format!("{:.0}", r.write_iops)),
                        ("p99_ns", ns(r.write_lat.p99)),
                        ("stalls", r.nvm_full_stalls.to_string()),
                    ],
                )
            })
            .cost(cms(12, &[std_w, std_m])),
        );
    }

    // Extension ablation B — context-switch cost sensitivity.
    for cost_ns in [0u64, 1_200, 3_000, 6_000] {
        for mode in [PipelineMode::Original, PipelineMode::Dop] {
            cells.push(
                Cell::new(
                    format!("abl-ctx/cost{cost_ns:04}/{}", mode_slug(mode)),
                    move || {
                        let conns = 12;
                        let dataset = Dataset::default_for(conns);
                        let (warmup, measure) = wins(smoke);
                        let mut cfg = paper_cluster(mode);
                        cfg.ctx_switch = SimDuration::nanos(cost_ns);
                        let r = run_sim(
                            cfg,
                            dataset,
                            randwrite_conns(dataset, conns),
                            warmup,
                            measure,
                        );
                        CellOut::from_report(
                            &r,
                            vec![
                                ("iops", format!("{:.0}", r.write_iops)),
                                (
                                    "ctx_per_op",
                                    format!(
                                        "{:.2}",
                                        r.context_switches as f64 / r.writes_done.max(1) as f64
                                    ),
                                ),
                            ],
                        )
                    },
                )
                .cost(cms(12, &[std_w, std_m])),
            );
        }
    }

    // Elastic operations — grow 4→8 OSDs under random-write load. The
    // spare OSDs start provisioned-but-out; an admin reweight at 8 ms
    // weaves them in, so the cell's counters cover weighted rebalancing,
    // throttled backfill, and map churn (DESIGN.md §12). Warmup is zero so
    // the expansion lands inside the measured window in smoke and full
    // runs alike.
    // Churn + tracing + recovery make this cell disproportionately heavy.
    let hint = cms(8, &[scaled(SimDuration::millis(120), smoke)]) * 3;
    cells.push(
        Cell::new("elastic/grow-4-8", move || {
            let conns = 8;
            let dataset = Dataset::default_for(conns);
            let measure = scaled(SimDuration::millis(120), smoke);
            let mut cfg = paper_cluster(PipelineMode::Dop);
            cfg.retry = Some(Default::default());
            cfg.heartbeat_period = Some(SimDuration::millis(1));
            cfg.heartbeat_grace = SimDuration::millis(5);
            cfg.osd.max_backfill_inflight = 2;
            cfg.osd.backfill_bytes_per_tick = 1 << 20;
            // Node-major ids: OSDs {0,2,4,6} seed the cluster, {1,3,5,7} join.
            cfg.initially_out = (0..8).filter(|o| o % 2 == 1).collect();
            // Attribution on: the cell reports where the churn window's tail
            // goes (and doubles as CI coverage that tracing never shifts the
            // schedule — the counters must match the untraced baselines).
            cfg.trace = true;
            cfg.churn = (0..8)
                .filter(|o| o % 2 == 1)
                .map(|o| ChurnOp {
                    at: SimTime::ZERO
                        + SimDuration::millis(8)
                        + SimDuration::micros(100) * o as u64,
                    osd: o,
                    weight: DEFAULT_OSD_WEIGHT,
                })
                .collect();
            let r = run_sim(
                cfg,
                dataset,
                randwrite_conns(dataset, conns),
                SimDuration::ZERO,
                measure,
            );
            let att = r.attribution.as_ref().expect("tracing enabled");
            let comp_p99 = |c: Component| ns(att.components[c.idx()].1.p99);
            CellOut::from_report(
                &r,
                vec![
                    ("pushes", r.recovery_pushes.to_string()),
                    ("backfill_bytes", r.backfill_bytes.to_string()),
                    ("backfill_queued", r.backfill_queued.to_string()),
                    ("throttled_ns", r.backfill_throttled_nanos.to_string()),
                    ("write_p99_ns", ns(r.write_lat.p99)),
                    ("write_p999_ns", ns(r.write_lat.p999)),
                    ("queue_p99_ns", comp_p99(Component::Queue)),
                    ("service_p99_ns", comp_p99(Component::Service)),
                    ("device_p99_ns", comp_p99(Component::Device)),
                    ("retry_p99_ns", comp_p99(Component::Retry)),
                ],
            )
        })
        .cost(hint),
    );

    // Integrity overhead — fig7-style 4 KiB random write with background
    // deep scrub on vs off (DESIGN.md §14). Block checksums are on in both
    // cells so the delta isolates the scrub pass itself; the interval puts
    // exactly one whole-store deep pass inside the measured window, and the
    // shared recovery throttle is what bounds its read-back against client
    // traffic (BENCH_pr9.json states the resulting p99 budget). Heartbeats
    // are armed in both cells (the throttle replenishes on ticks) to keep
    // the comparison fair.
    for scrub_on in [false, true] {
        let key = if scrub_on {
            "scrub/deep-on"
        } else {
            "scrub/off"
        };
        let hint = cms(16, &[std_w, std_m]) * if scrub_on { 2 } else { 1 };
        cells.push(
            Cell::new(key, move || {
                let conns = 16;
                let dataset = Dataset::default_for(conns);
                let (warmup, measure) = wins(smoke);
                let mut cfg = paper_cluster(PipelineMode::Dop);
                cfg.osd.cos.checksums = true;
                cfg.heartbeat_period = Some(SimDuration::millis(1));
                cfg.heartbeat_grace = SimDuration::millis(5);
                if scrub_on {
                    cfg.scrub_interval = Some(scaled(SimDuration::millis(90), smoke));
                    cfg.scrub_deep_every = 1;
                }
                let r = run_sim(
                    cfg,
                    dataset,
                    randwrite_conns(dataset, conns),
                    warmup,
                    measure,
                );
                CellOut::from_report(
                    &r,
                    vec![
                        ("iops", format!("{:.0}", r.write_iops)),
                        ("write_p99_ns", ns(r.write_lat.p99)),
                        ("write_p999_ns", ns(r.write_lat.p999)),
                        ("scrubs", r.scrubs_completed.to_string()),
                        ("scrub_bytes", r.scrub_bytes.to_string()),
                        ("errors_found", r.scrub_errors_found.to_string()),
                        ("throttled_ns", r.scrub_throttled_nanos.to_string()),
                    ],
                )
            })
            .cost(hint),
        );
    }

    if let Some(prefix) = only {
        cells.retain(|c| c.key.starts_with(prefix));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_figure() {
        let cells = figure_cells(true, None);
        for prefix in [
            "fig01/", "fig07/", "fig08/", "fig09/", "fig10/", "fig11/", "fig12/", "table1/",
            "table2/", "abl-nvm/", "abl-ctx/", "elastic/", "scrub/",
        ] {
            assert!(
                cells.iter().any(|c| c.key.starts_with(prefix)),
                "missing {prefix}"
            );
        }
        let mut keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "cell keys must be unique");
    }

    #[test]
    fn cells_carry_cost_hints_and_lpt_orders_them_first() {
        let cells = figure_cells(true, None);
        // Every cell got an explicit hint (the default is 1).
        assert!(cells.iter().all(|c| c.cost_hint > 1));
        // The 16-thread sequential-read cell must outrank the 1-thread one.
        let hint_of = |key: &str| {
            cells
                .iter()
                .find(|c| c.key == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .cost_hint
        };
        assert!(hint_of("fig09/t16/read/dop") > hint_of("fig09/t01/read/dop"));
        // LPT claim order: after run_sweep's sort, descending hints.
        let mut order = figure_cells(true, None);
        order.sort_by(|a, b| b.cost_hint.cmp(&a.cost_hint).then(a.key.cmp(&b.key)));
        assert!(order.windows(2).all(|w| w[0].cost_hint >= w[1].cost_hint));
    }

    #[test]
    fn csv_has_one_table_per_prefix() {
        let outcome = run_sweep(figure_cells(true, Some("fig11/")), 1);
        let csvs = outcome.csv_by_prefix();
        assert_eq!(csvs.len(), 1);
        let (prefix, csv) = &csvs[0];
        assert_eq!(prefix, "fig11");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "cell,writes,reads,events,conns,iops,lat_ns");
        assert_eq!(lines.len(), 5, "header plus one row per partition count");
        assert!(lines[1].starts_with("fig11/p1,"));
    }

    #[test]
    fn parallel_merge_is_byte_identical_to_sequential() {
        let seq = run_sweep(figure_cells(true, Some("fig11/")), 1);
        let par = run_sweep(figure_cells(true, Some("fig11/")), 2);
        assert_eq!(
            seq.merged_lines(),
            par.merged_lines(),
            "merge order is by key, so jobs must not change the output"
        );
    }
}
