//! Chaos testing: randomized fault schedules over a replicated workload.
//!
//! Each proptest case derives a seeded [`FaultPlan`] combining every fault
//! class — probabilistic link drops/duplicates/reordering/latency spikes, a
//! node-pair partition window, a gray-failure device slowdown, and an OSD
//! crash with restart (optionally with a torn NVM log tail) — and runs a
//! 3-node replicated write/read workload through it with heartbeat failure
//! detection, client timeout/retry, and the history checker armed.
//!
//! Two properties:
//! 1. No acknowledged write is ever lost and every read is explainable
//!    (the checker panics the run otherwise).
//! 2. The whole fault history is seed-reproducible: running the identical
//!    configuration twice yields byte-identical outcome counters.

use proptest::prelude::*;
use rablock::sim::{
    ChurnOp, ClusterSim, ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan, GrayWindow,
    LinkFault, Partition, RetryPolicy, SimDuration, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cluster::placement::{OsdMap, DEFAULT_OSD_WEIGHT};
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

const PGS: u32 = 8;
const NODES: usize = 3;
const CONNS: u64 = 2;
const WRITES_PER_CONN: u64 = 96;
const READS_PER_CONN: u64 = 24;

/// Objects are namespaced per connection so no block has two writers —
/// the history checker's last-acked-value rule then has a unique answer.
fn oid(conn: u64, k: u64) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % PGS as u64) as u32), i)
}

/// Case count, honoring `PROPTEST_CASES` — an explicit `with_cases` value
/// otherwise shadows the environment variable, and the extended-chaos CI
/// job relies on it to dial intensity up without a code change.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Everything one chaos case is derived from.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    /// Which link pair to partition: 0..3 = storage pairs, 3 = client↔node.
    pair: u8,
    part_from_ms: u64,
    part_len_ms: u64,
    crash_osd: u8,
    torn_tail: bool,
    gray_mult: f64,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        0.002f64..0.03,
        0u8..8,
        (3u64..20, 5u64..20),
        (0u8..3, any::<bool>()),
        2.0f64..24.0,
    )
        .prop_map(
            |(
                seed,
                drop_p,
                pair,
                (part_from_ms, part_len_ms),
                (crash_osd, torn_tail),
                gray_mult,
            )| {
                Scenario {
                    seed,
                    drop_p,
                    dup_p: drop_p / 2.0,
                    pair: pair % 4,
                    part_from_ms,
                    part_len_ms,
                    crash_osd,
                    torn_tail,
                    gray_mult,
                }
            },
        )
}

/// Builds the fault plan for one scenario: all four fault classes at once.
fn plan(s: &Scenario) -> FaultPlan {
    // The client pseudo-node index is one past the last storage node.
    let client = NODES;
    let (a, b) = match s.pair {
        0 => (0, 1),
        1 => (1, 2),
        2 => (0, 2),
        _ => (client, (s.part_from_ms % NODES as u64) as usize),
    };
    FaultPlan::none()
        .with_link_fault(LinkFault {
            link: None,
            from: SimTime::ZERO,
            until: SimTime::from_millis(10_000),
            drop_p: s.drop_p,
            dup_p: s.dup_p,
            reorder_p: 0.05,
            reorder_max: SimDuration::nanos(200_000),
            spike_p: 0.02,
            spike: SimDuration::nanos(500_000),
        })
        .with_partition(Partition {
            a,
            b,
            from: SimTime::from_millis(s.part_from_ms),
            until: SimTime::from_millis(s.part_from_ms + s.part_len_ms),
        })
        .with_gray_window(GrayWindow {
            // Device index mirrors OSD index; slow a survivor of the crash.
            device: (s.crash_osd as usize + 1) % NODES,
            from: SimTime::from_millis(2),
            until: SimTime::from_millis(25),
            multiplier: s.gray_mult,
        })
        .with_crash(CrashSchedule {
            process: s.crash_osd as usize,
            at: SimTime::from_millis(4 + s.part_from_ms % 5),
            restart_at: Some(SimTime::from_millis(30 + s.part_len_ms)),
            torn_tail: s.torn_tail,
        })
}

fn base_config(seed: u64, faults: FaultPlan) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = NODES as u32;
    cfg.osds_per_node = 1;
    cfg.cores_per_node = 8;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 3;
    cfg.pg_count = PGS;
    cfg.queue_depth = 4;
    cfg.seed = seed;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        device_bytes: 64 << 20,
        nvm_bytes: 8 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        // tiny() models the paper's store (no data checksums); keep the
        // read-path CRCs on so the digest-consistency invariant has teeth.
        cos: CosOptions {
            checksums: true,
            ..CosOptions::tiny()
        },
        ..OsdConfig::default()
    };
    cfg.faults = faults;
    cfg.heartbeat_period = Some(SimDuration::millis(1));
    cfg.heartbeat_grace = SimDuration::millis(5);
    cfg.retry = Some(RetryPolicy {
        timeout_nanos: 10_000_000,
        backoff_base_nanos: 1_000_000,
        backoff_multiplier: 2.0,
        jitter_frac: 0.2,
        max_attempts: 8,
    });
    cfg.check_history = true;
    cfg
}

fn config(s: &Scenario) -> ClusterSimConfig {
    base_config(s.seed, plan(s))
}

struct ChaosConn {
    conn: u64,
    cursor: u64,
}

impl ConnWorkload for ChaosConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < WRITES_PER_CONN {
            let k = i % 8;
            let block = (i / 8) % 16;
            Some(WorkItem::Write {
                oid: oid(self.conn, k),
                offset: block * 4096,
                len: 4096,
                fill: ((self.conn * 97 + k * 31 + block) % 251) as u8,
            })
        } else if i < WRITES_PER_CONN + READS_PER_CONN {
            let j = i - WRITES_PER_CONN;
            Some(WorkItem::Read {
                oid: oid(self.conn, j % 8),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

/// One full chaos run; returns the outcome counters that must reproduce.
fn run(s: &Scenario) -> (u64, u64, u64, u64, u64, u64, u64) {
    let wl: Vec<Box<dyn ConnWorkload>> = (0..CONNS)
        .map(|c| Box::new(ChaosConn { conn: c, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect();
    let mut sim = ClusterSim::new(config(s), wl);
    let objects: Vec<(ObjectId, u64)> = (0..CONNS)
        .flat_map(|c| (0..8).map(move |k| (oid(c, k), 1 << 20)))
        .collect();
    sim.prefill(&objects);
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(5));
    let checker = sim.checker().expect("history checking enabled");
    (
        report.writes_done,
        report.reads_done,
        report.client_errors,
        report.nvm_bytes,
        report.context_switches,
        checker.writes_acked(),
        checker.reads_checked(),
    )
}

/// Everything a convergence case is derived from. Unlike [`Scenario`],
/// faults here all end by 60 ms so the long fault-free tail of the run must
/// leave the cluster fully healed: every PG Active, replicas byte-identical.
#[derive(Debug, Clone, Copy)]
struct Convergence {
    seed: u64,
    drop_p: f64,
    crash_at_ms: u64,
    down_for_ms: u64,
    torn_tail: bool,
}

fn convergence_scenarios() -> impl Strategy<Value = Convergence> {
    (
        any::<u64>(),
        0.002f64..0.02,
        1u64..6,
        8u64..25,
        any::<bool>(),
    )
        .prop_map(
            |(seed, drop_p, crash_at_ms, down_for_ms, torn_tail)| Convergence {
                seed,
                drop_p,
                crash_at_ms,
                down_for_ms,
                torn_tail,
            },
        )
}

/// Background message chaos confined to the first 60 ms of the run.
fn converging_link_fault(drop_p: f64) -> LinkFault {
    LinkFault {
        link: None,
        from: SimTime::ZERO,
        until: SimTime::from_millis(60),
        drop_p,
        dup_p: drop_p / 2.0,
        reorder_p: 0.05,
        reorder_max: SimDuration::nanos(200_000),
        spike_p: 0.02,
        spike: SimDuration::nanos(500_000),
    }
}

/// Outcome of a convergence run: reproducible counters, any PGs still not
/// Active after quiesce, any replica content divergence, and any replica
/// checksum-metadata (size + csum digest) inconsistency.
type ConvergenceOutcome = (
    (u64, u64, u64, u64, u64, u64, u64),
    Vec<String>,
    Vec<String>,
    Vec<String>,
);

/// One full run followed by post-quiesce health checks.
fn run_to_convergence(cfg: ClusterSimConfig) -> ConvergenceOutcome {
    let wl: Vec<Box<dyn ConnWorkload>> = (0..CONNS)
        .map(|c| Box::new(ChaosConn { conn: c, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect();
    let mut sim = ClusterSim::new(cfg, wl);
    let objects: Vec<(ObjectId, u64)> = (0..CONNS)
        .flat_map(|c| (0..8).map(move |k| (oid(c, k), 1 << 20)))
        .collect();
    sim.prefill(&objects);
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(5));
    let checker = sim.checker().expect("history checking enabled");
    let counters = (
        report.writes_done,
        report.reads_done,
        report.client_errors,
        report.recovery_pushes,
        report.backfill_bytes,
        checker.writes_acked(),
        checker.reads_checked(),
    );
    let stuck = sim.stuck_pgs();
    let divergence = sim.replica_divergence();
    let digests = sim.replica_digest_inconsistency();
    (counters, stuck, divergence, digests)
}

/// Shared assertions for a convergence outcome.
fn assert_converged(outcome: &ConvergenceOutcome) -> Result<(), TestCaseError> {
    let ((writes, reads, errors, pushes, _, acked, checked), stuck, divergence, digests) = outcome;
    let total_ops = CONNS * (WRITES_PER_CONN + READS_PER_CONN);
    prop_assert!(
        writes + reads + errors >= total_ops,
        "all ops resolved: {writes}+{reads}+{errors} of {total_ops}"
    );
    prop_assert!(
        *writes >= CONNS * WRITES_PER_CONN / 2,
        "most writes completed: {writes}"
    );
    prop_assert!(acked >= writes, "every counted write was vetted");
    prop_assert!(checked >= reads, "every read was vetted");
    prop_assert!(*pushes >= 1, "recovery actually ran: {pushes} pushes");
    prop_assert!(
        stuck.is_empty(),
        "every PG is Active after quiesce: {stuck:?}"
    );
    prop_assert!(
        divergence.is_empty(),
        "replicas byte-identical after recovery: {divergence:?}"
    );
    prop_assert!(
        digests.is_empty(),
        "replica checksum metadata consistent after recovery: {digests:?}"
    );
    Ok(())
}

/// Crash-and-restart faults for the primary of group 0 (the kill-primary
/// convergence scenario, shared with the pinned regressions below).
fn primary_crash_faults(c: &Convergence) -> FaultPlan {
    let primary = OsdMap::new(NODES as u32, 1, PGS, 2)
        .try_primary(GroupId(0))
        .expect("a full map always has a primary")
        .0 as usize;
    FaultPlan::none()
        .with_link_fault(converging_link_fault(c.drop_p))
        .with_crash(CrashSchedule {
            process: primary,
            at: SimTime::from_millis(c.crash_at_ms),
            restart_at: Some(SimTime::from_millis(c.crash_at_ms + c.down_for_ms)),
            torn_tail: c.torn_tail,
        })
}

/// Historical chaos cases that exposed real healing bugs, pinned so they
/// cannot regress silently:
///
/// * The first lost acked tail writes on surviving replicas: a map-change
///   safety flush cleared the in-flight flush window's `flushing` flag, two
///   windows overlapped, and the count-based completion drain discarded
///   records it had never submitted (fixed by version-watermark drains). It
///   also left per-block holes that the old per-object push guard then
///   ack'd away instead of healing.
/// * The second wedged a PG in `Recovering` forever: a primary that lost
///   its log tail to a torn NVM write could never out-version the replica's
///   newest entry, and the replica silently refused every (byte-identical)
///   push.
#[test]
fn healed_cluster_regressions() {
    let cases = [
        Convergence {
            seed: 1004802654027966023,
            drop_p: 0.016139760121552025,
            crash_at_ms: 5,
            down_for_ms: 9,
            torn_tail: false,
        },
        Convergence {
            seed: 13176095356723387667,
            drop_p: 0.009078494301908317,
            crash_at_ms: 1,
            down_for_ms: 18,
            torn_tail: true,
        },
    ];
    for c in cases {
        let outcome = run_to_convergence(base_config(c.seed, primary_crash_faults(&c)));
        assert_converged(&outcome).unwrap_or_else(|e| panic!("case {c:?}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// Under a randomized mix of drops, duplicates, reordering, a partition,
    /// a gray device, and a crash/restart: no acked write is lost, every
    /// read is explainable (checker panics otherwise), the cluster makes
    /// progress, and the same seed replays the identical history.
    #[test]
    fn invariants_hold_and_history_replays(s in scenarios()) {
        let first = run(&s);
        let (writes, reads, errors, _, _, acked, checked) = first;
        // Progress: the retry path pushes most ops through the fault window.
        let total_ops = CONNS * (WRITES_PER_CONN + READS_PER_CONN);
        prop_assert!(
            writes + reads + errors >= total_ops,
            "all ops resolved (done or surfaced): {writes}+{reads}+{errors} of {total_ops}"
        );
        prop_assert!(writes >= CONNS * WRITES_PER_CONN / 2, "most writes completed: {writes}");
        prop_assert!(acked >= writes, "every counted write was vetted: {acked} >= {writes}");
        prop_assert!(checked >= reads, "every read was vetted: {checked} >= {reads}");

        // Determinism: an identical configuration replays byte-identically.
        let second = run(&s);
        prop_assert_eq!(first, second, "same seed, same fault history, same outcome");
    }

    /// Crash the primary of group 0 while client writes are replicating
    /// through it, restart it later, and require full healing: the surviving
    /// peers re-peer and push what the new member lacks, the restarted node
    /// pulls what it missed, and after quiesce every PG is Active with
    /// byte-identical replicas. The whole history is seed-reproducible.
    #[test]
    fn kill_primary_mid_replication_converges(c in convergence_scenarios()) {
        let first = run_to_convergence(base_config(c.seed, primary_crash_faults(&c)));
        assert_converged(&first)?;
        let second = run_to_convergence(base_config(c.seed, primary_crash_faults(&c)));
        prop_assert_eq!(first, second, "same seed, same recovery history");
    }

    /// Restart every node in sequence (one down at a time) and require the
    /// cluster to re-peer and heal after each membership change: after
    /// quiesce every PG is Active, replicas are byte-identical, and no
    /// acked write was lost across any of the three restarts.
    #[test]
    fn rolling_restart_converges(c in convergence_scenarios()) {
        let faults = || {
            let mut f = FaultPlan::none().with_link_fault(converging_link_fault(c.drop_p));
            for n in 0..NODES {
                // Staggered so each node is back (and re-peered) well before
                // the next one goes down.
                let at = 3 + n as u64 * 15;
                f = f.with_crash(CrashSchedule {
                    process: n,
                    at: SimTime::from_millis(at),
                    restart_at: Some(SimTime::from_millis(at + c.down_for_ms.min(10))),
                    torn_tail: c.torn_tail,
                });
            }
            f
        };
        let first = run_to_convergence(base_config(c.seed, faults()));
        assert_converged(&first)?;
        let second = run_to_convergence(base_config(c.seed, faults()));
        prop_assert_eq!(first, second, "same seed, same recovery history");
    }
}

// ---------------------------------------------------------------------------
// Elastic cluster operations: weighted growth, drains, and flapping storms.
//
// These scenarios exercise the admin map-mutation path (weight churn through
// the monitor), the backfill throttle, and the monitor's flap dampening, all
// under sustained client load with the history checker armed. Test names are
// prefixed `churn_` so CI can dial their intensity independently.
// ---------------------------------------------------------------------------

/// Everything an elastic-operations run observes, flattened so determinism
/// checks are plain equality. Imbalance is carried as IEEE-754 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChurnOutcome {
    writes: u64,
    reads: u64,
    errors: u64,
    pushes: u64,
    backfill_bytes: u64,
    backfill_queued: u64,
    backfill_throttled_nanos: u64,
    flaps_damped: u64,
    acked: u64,
    checked: u64,
    stuck: Vec<String>,
    divergence: Vec<String>,
    digests: Vec<String>,
    imbalance_bits: u64,
    filled_osds: usize,
}

/// One elastic-ops run: workload + churn plan in, full outcome out.
fn run_churn(
    cfg: ClusterSimConfig,
    wl: Vec<Box<dyn ConnWorkload>>,
    objects: &[(ObjectId, u64)],
    measure: SimDuration,
) -> ChurnOutcome {
    let mut sim = ClusterSim::new(cfg, wl);
    sim.prefill(objects);
    let report = sim.run(SimDuration::ZERO, measure);
    let checker = sim.checker().expect("history checking enabled");
    let acked = checker.writes_acked();
    let checked = checker.reads_checked();
    let imbalance = sim.capacity_imbalance();
    let filled_osds = sim
        .osd_fill_bytes()
        .iter()
        .filter(|&&(_, bytes)| bytes > 0)
        .count();
    let flaps_damped = sim.flaps_damped();
    let stuck = sim.stuck_pgs();
    let divergence = sim.replica_divergence();
    let digests = sim.replica_digest_inconsistency();
    ChurnOutcome {
        writes: report.writes_done,
        reads: report.reads_done,
        errors: report.client_errors,
        pushes: report.recovery_pushes,
        backfill_bytes: report.backfill_bytes,
        backfill_queued: report.backfill_queued,
        backfill_throttled_nanos: report.backfill_throttled_nanos,
        flaps_damped,
        acked,
        checked,
        stuck,
        divergence,
        digests,
        imbalance_bits: imbalance.to_bits(),
        filled_osds,
    }
}

/// Shared assertions: all ops resolved, nothing lost, cluster healed.
fn assert_churn_converged(
    o: &ChurnOutcome,
    conns: u64,
    writes_per_conn: u64,
    reads_per_conn: u64,
) -> Result<(), TestCaseError> {
    let total_ops = conns * (writes_per_conn + reads_per_conn);
    prop_assert!(
        o.writes + o.reads + o.errors >= total_ops,
        "all ops resolved: {}+{}+{} of {total_ops}",
        o.writes,
        o.reads,
        o.errors
    );
    prop_assert!(
        o.writes >= conns * writes_per_conn / 2,
        "most writes completed: {}",
        o.writes
    );
    prop_assert!(o.acked >= o.writes, "every counted write was vetted");
    prop_assert!(o.checked >= o.reads, "every read was vetted");
    prop_assert!(
        o.stuck.is_empty(),
        "every PG is Active after quiesce: {:?}",
        o.stuck
    );
    prop_assert!(
        o.divergence.is_empty(),
        "replicas byte-identical after rebalance: {:?}",
        o.divergence
    );
    prop_assert!(
        o.digests.is_empty(),
        "replica checksum metadata consistent after rebalance: {:?}",
        o.digests
    );
    Ok(())
}

// Grow topology: 16 nodes x 4 OSDs pre-provisioned, 4 in service at start.
const GROW_NODES: u32 = 16;
const GROW_OSDS_PER_NODE: u32 = 4;
const GROW_OSDS: u32 = GROW_NODES * GROW_OSDS_PER_NODE;
const GROW_PGS: u32 = 32;
const GROW_CONNS: u64 = 3;
const GROW_WRITES_PER_CONN: u64 = 512;
const GROW_READS_PER_CONN: u64 = 64;
/// Declared capacity-imbalance tolerance for the grown cluster. With 16
/// data-bearing groups x 2 replicas over 64 OSDs the placement is sparse,
/// so (max-mean)/mean is inherently a few multiples of the mean; the
/// no-rebalance catastrophe (everything still on the 4 seed OSDs) sits at
/// ~15 and must stay well outside the bound.
const GROW_IMBALANCE_TOLERANCE: f64 = 9.0;

/// First OSD on each of the first four nodes starts in service.
fn grow_seed_osds() -> [u32; 4] {
    [
        0,
        GROW_OSDS_PER_NODE,
        2 * GROW_OSDS_PER_NODE,
        3 * GROW_OSDS_PER_NODE,
    ]
}

/// Second wave: first OSD on each of the next four nodes (4 -> 8).
fn grow_second_wave() -> [u32; 4] {
    [
        4 * GROW_OSDS_PER_NODE,
        5 * GROW_OSDS_PER_NODE,
        6 * GROW_OSDS_PER_NODE,
        7 * GROW_OSDS_PER_NODE,
    ]
}

fn grow_oid(conn: u64, k: u64) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % GROW_PGS as u64) as u32), i)
}

struct GrowConn {
    conn: u64,
    cursor: u64,
}

impl ConnWorkload for GrowConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < GROW_WRITES_PER_CONN {
            let k = i % 8;
            let block = (i / 8) % 16;
            Some(WorkItem::Write {
                oid: grow_oid(self.conn, k),
                offset: block * 4096,
                len: 4096,
                fill: ((self.conn * 97 + k * 31 + block) % 251) as u8,
            })
        } else if i < GROW_WRITES_PER_CONN + GROW_READS_PER_CONN {
            let j = i - GROW_WRITES_PER_CONN;
            Some(WorkItem::Read {
                oid: grow_oid(self.conn, j % 8),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

/// Config for the grow-4->8->64-under-load scenario: the full 64-OSD
/// topology is pre-provisioned with every spare at weight zero, then two
/// churn waves weave them in while the client workload runs. The backfill
/// throttle is tightened so the 56-OSD wave visibly queues.
fn grow_config(seed: u64, drop_p: f64) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = GROW_NODES;
    cfg.osds_per_node = GROW_OSDS_PER_NODE;
    cfg.cores_per_node = 6;
    cfg.priority_threads = 1;
    cfg.non_priority_threads = 2;
    cfg.pg_count = GROW_PGS;
    cfg.queue_depth = 4;
    cfg.seed = seed;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        device_bytes: 32 << 20,
        nvm_bytes: 4 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        // tiny() models the paper's store (no data checksums); keep the
        // read-path CRCs on so the digest-consistency invariant has teeth.
        cos: CosOptions {
            checksums: true,
            ..CosOptions::tiny()
        },
        max_backfill_inflight: 2,
        backfill_bytes_per_tick: 1 << 20,
        ..OsdConfig::default()
    };
    cfg.faults = FaultPlan::none().with_link_fault(converging_link_fault(drop_p));
    cfg.heartbeat_period = Some(SimDuration::millis(1));
    cfg.heartbeat_grace = SimDuration::millis(5);
    cfg.retry = Some(RetryPolicy {
        timeout_nanos: 10_000_000,
        backoff_base_nanos: 1_000_000,
        backoff_multiplier: 2.0,
        jitter_frac: 0.2,
        max_attempts: 8,
    });
    cfg.check_history = true;

    let seed_osds = grow_seed_osds();
    cfg.initially_out = (0..GROW_OSDS)
        .filter(|id| !seed_osds.contains(id))
        .collect();
    let second = grow_second_wave();
    let mut churn: Vec<ChurnOp> = second
        .iter()
        .map(|&osd| ChurnOp {
            at: SimTime::from_millis(8),
            osd,
            weight: DEFAULT_OSD_WEIGHT,
        })
        .collect();
    let rest = (0..GROW_OSDS).filter(|id| !seed_osds.contains(id) && !second.contains(id));
    churn.extend(rest.enumerate().map(|(i, osd)| ChurnOp {
        at: SimTime::from_millis(20) + SimDuration::nanos(100_000) * i as u64,
        osd,
        weight: DEFAULT_OSD_WEIGHT,
    }));
    cfg.churn = churn;
    cfg
}

fn run_grow(seed: u64, drop_p: f64) -> ChurnOutcome {
    let wl: Vec<Box<dyn ConnWorkload>> = (0..GROW_CONNS)
        .map(|c| Box::new(GrowConn { conn: c, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect();
    let objects: Vec<(ObjectId, u64)> = (0..GROW_CONNS)
        .flat_map(|c| (0..8).map(move |k| (grow_oid(c, k), 256 << 10)))
        .collect();
    run_churn(
        grow_config(seed, drop_p),
        wl,
        &objects,
        SimDuration::millis(600),
    )
}

/// Drain scenario on the small 3-OSD topology: one member is weighted to
/// zero mid-load, its groups re-home to the survivors, and it must end the
/// run out of every acting set with the survivors byte-identical.
fn drain_config(seed: u64, drop_p: f64, drained: u32, at_ms: u64) -> ClusterSimConfig {
    let mut cfg = base_config(
        seed,
        FaultPlan::none().with_link_fault(converging_link_fault(drop_p)),
    );
    cfg.churn = vec![ChurnOp {
        at: SimTime::from_millis(at_ms),
        osd: drained,
        weight: 0,
    }];
    cfg
}

fn run_small_churn(cfg: ClusterSimConfig) -> ChurnOutcome {
    let wl: Vec<Box<dyn ConnWorkload>> = (0..CONNS)
        .map(|c| Box::new(ChaosConn { conn: c, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect();
    let objects: Vec<(ObjectId, u64)> = (0..CONNS)
        .flat_map(|c| (0..8).map(move |k| (oid(c, k), 1 << 20)))
        .collect();
    run_churn(cfg, wl, &objects, SimDuration::secs(5))
}

/// Flapping storm: one OSD bounces down/up for `cycles` cycles while the
/// workload runs. Downtime exceeds the heartbeat grace so every cycle is a
/// real map-churn event the monitor must dampen.
fn flap_config(seed: u64, drop_p: f64, flapper: usize, cycles: usize) -> ClusterSimConfig {
    base_config(
        seed,
        FaultPlan::none()
            .with_link_fault(converging_link_fault(drop_p))
            .with_flapping(
                flapper,
                SimTime::from_millis(3),
                cycles,
                SimDuration::millis(10),
                SimDuration::millis(7),
            ),
    )
}

/// Rolling upgrade: every node restarted in turn, one at a time, with the
/// monitor's dampening active (a clean walk must never trip it).
fn rolling_upgrade_config(seed: u64, drop_p: f64, downtime_ms: u64) -> ClusterSimConfig {
    base_config(
        seed,
        FaultPlan::none()
            .with_link_fault(converging_link_fault(drop_p))
            .with_rolling_upgrade(
                0..NODES,
                SimTime::from_millis(3),
                SimDuration::millis(downtime_ms),
                SimDuration::millis(downtime_ms + 15),
            ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(3)))]

    /// Grow 4 -> 8 -> 64 OSDs under sustained client load: no acked write
    /// is lost, every PG is Active after the dust settles, replicas are
    /// byte-identical, data actually spread onto the new OSDs, capacity
    /// imbalance stays within the declared tolerance, the tightened
    /// backfill throttle visibly queued work, and the whole elastic history
    /// is seed-reproducible.
    #[test]
    fn churn_grow_4_to_8_to_64_under_load_converges(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.015,
    ) {
        let first = run_grow(seed, drop_p);
        assert_churn_converged(&first, GROW_CONNS, GROW_WRITES_PER_CONN, GROW_READS_PER_CONN)?;
        prop_assert!(
            first.pushes >= 1 && first.backfill_bytes > 0,
            "expansion actually moved data: {} pushes, {} bytes",
            first.pushes,
            first.backfill_bytes
        );
        prop_assert!(
            first.backfill_queued >= 1,
            "the 56-OSD wave must queue against the throttle: {} queued",
            first.backfill_queued
        );
        prop_assert!(
            first.filled_osds >= 12,
            "data spread onto the new OSDs: {} hold bytes",
            first.filled_osds
        );
        let imbalance = f64::from_bits(first.imbalance_bits);
        prop_assert!(
            imbalance.is_finite() && imbalance <= GROW_IMBALANCE_TOLERANCE,
            "capacity imbalance within tolerance: {imbalance:.2} <= {GROW_IMBALANCE_TOLERANCE}"
        );
        let second = run_grow(seed, drop_p);
        prop_assert_eq!(first, second, "same seed, same elastic history");
    }

    /// Drain one OSD (weight -> 0) mid-load: its groups re-home, nothing
    /// acked is lost, and the run is seed-reproducible.
    #[test]
    fn churn_drain_osd_under_load_converges(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.02,
        drained in 0u32..3,
        at_ms in 2u64..12,
    ) {
        let first = run_small_churn(drain_config(seed, drop_p, drained, at_ms));
        assert_churn_converged(&first, CONNS, WRITES_PER_CONN, READS_PER_CONN)?;
        prop_assert!(
            first.pushes >= 1,
            "drain re-homed data via pushes: {}",
            first.pushes
        );
        let second = run_small_churn(drain_config(seed, drop_p, drained, at_ms));
        prop_assert_eq!(first, second, "same seed, same drain history");
    }

    /// Flapping storm: >= 5 down/up cycles on one OSD under load. The
    /// monitor's dampening must trip (observable in `flaps_damped`), the
    /// cluster must still converge to all-Active with byte-identical
    /// replicas, and the storm must replay deterministically.
    #[test]
    fn churn_flapping_osd_storm_converges_with_dampening(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.02,
        flapper in 0usize..3,
        cycles in 5usize..8,
    ) {
        let first = run_small_churn(flap_config(seed, drop_p, flapper, cycles));
        assert_churn_converged(&first, CONNS, WRITES_PER_CONN, READS_PER_CONN)?;
        prop_assert!(
            first.flaps_damped >= 1,
            "dampening tripped on the storm: {} refused rejoins",
            first.flaps_damped
        );
        let second = run_small_churn(flap_config(seed, drop_p, flapper, cycles));
        prop_assert_eq!(first, second, "same seed, same storm history");
    }

    /// Rolling upgrade: every node restarted in sequence, one down at a
    /// time. A clean maintenance walk must never trip flap dampening, and
    /// the cluster heals after each step.
    #[test]
    fn churn_rolling_upgrade_converges_without_dampening(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.02,
        downtime_ms in 6u64..10,
    ) {
        let first = run_small_churn(rolling_upgrade_config(seed, drop_p, downtime_ms));
        assert_churn_converged(&first, CONNS, WRITES_PER_CONN, READS_PER_CONN)?;
        prop_assert!(
            first.flaps_damped == 0,
            "a clean rolling upgrade never trips dampening: {}",
            first.flaps_damped
        );
        let second = run_small_churn(rolling_upgrade_config(seed, drop_p, downtime_ms));
        prop_assert_eq!(first, second, "same seed, same upgrade history");
    }
}
