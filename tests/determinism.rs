//! Workspace-level determinism guarantees.
//!
//! Every benchmark harness must be reproducible bit-for-bit: same seed →
//! same IOPS, same context-switch count, same byte counters. These tests
//! pin that property across pipeline modes and config dimensions.

use proptest::prelude::*;
use rablock::sim::{
    BitRotSchedule, ChurnOp, ClusterSim, ClusterSimConfig, ConnWorkload, FaultPlan, LinkFault,
    RetryPolicy, RotMedia, SchedulerKind, SimDuration, SimReport, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_bench::scenarios::{self, chaos_config, chaos_conns, chaos_objects, CHAOS_PGS};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

fn config(mode: PipelineMode, seed: u64) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(mode);
    cfg.nodes = 2;
    cfg.osds_per_node = 1;
    cfg.cores_per_node = 8;
    cfg.priority_threads = 2;
    cfg.pg_count = 16;
    cfg.seed = seed;
    cfg.osd = OsdConfig {
        mode,
        device_bytes: 64 << 20,
        nvm_bytes: 8 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions::tiny(),
        ..OsdConfig::default()
    };
    cfg
}

fn workloads(conns: usize) -> Vec<Box<dyn ConnWorkload>> {
    (0..conns)
        .map(|c| {
            let mut x = 0xABCDu64.wrapping_add(c as u64);
            Box::new(move |_rng: &mut SimRng| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = (x >> 8) % 16;
                Some(WorkItem::Write {
                    oid: ObjectId::new(GroupId((i % 16) as u32), i),
                    offset: ((x >> 40) % 128) * 4096,
                    len: 4096,
                    fill: (x % 251) as u8,
                })
            }) as Box<dyn ConnWorkload>
        })
        .collect()
}

fn small_run(mode: PipelineMode, seed: u64) -> SimReport {
    let mut sim = ClusterSim::new(config(mode, seed), workloads(4));
    sim.prefill(
        &(0..16u64)
            .map(|i| (ObjectId::new(GroupId(i as u32 % 16), i), 1 << 20))
            .collect::<Vec<_>>(),
    );
    sim.run(SimDuration::millis(10), SimDuration::millis(40))
}

fn small_fingerprint(mode: PipelineMode, seed: u64) -> Vec<u64> {
    small_run(mode, seed).fingerprint(None)
}

#[test]
fn identical_seeds_give_identical_runs() {
    for mode in [PipelineMode::Original, PipelineMode::Dop, PipelineMode::Ptc] {
        assert_eq!(
            small_fingerprint(mode, 7),
            small_fingerprint(mode, 7),
            "mode {mode:?}"
        );
    }
}

#[test]
fn different_seeds_still_complete_work() {
    let a = small_run(PipelineMode::Dop, 1).writes_done;
    let b = small_run(PipelineMode::Dop, 2).writes_done;
    assert!(a > 100 && b > 100, "both seeds make progress: {a} {b}");
}

#[test]
fn repeated_triple_runs_are_stable() {
    let runs: Vec<_> = (0..3)
        .map(|_| small_fingerprint(PipelineMode::Dop, 99))
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

/// One fig7-style run (the paper-cluster 4 KiB random-write scenario the
/// wall-clock harness times), with its full metric fingerprint.
fn fig7_fingerprint(sched: SchedulerKind) -> Vec<u64> {
    fig7_fingerprint_traced(sched, false)
}

fn fig7_fingerprint_traced(sched: SchedulerKind, trace: bool) -> Vec<u64> {
    fig7_fingerprint_sharded(sched, trace, 1)
}

fn fig7_fingerprint_sharded(sched: SchedulerKind, trace: bool, shards: usize) -> Vec<u64> {
    let mut fig7 = scenarios::fig7();
    fig7.cfg.scheduler = sched;
    fig7.cfg.trace = trace;
    fig7.cfg.shards = shards;
    if trace {
        fig7.cfg.telemetry_window = Some(SimDuration::millis(2));
    }
    let r = fig7.build().run(SimDuration::ZERO, SimDuration::millis(20));
    assert!(r.writes_done > 0, "fig7 run must make progress");
    r.fingerprint(None)
}

#[test]
fn fig7_double_run_is_byte_identical() {
    let a = fig7_fingerprint(SchedulerKind::default());
    let b = fig7_fingerprint(SchedulerKind::default());
    assert!(a.len() > 20, "fingerprint covers the full report");
    assert_eq!(a, b, "fig7: same seed must replay identical metrics");
}

fn chaos_fingerprint_with(seed: u64, sched: SchedulerKind) -> Vec<u64> {
    chaos_fingerprint_traced(seed, sched, false)
}

fn chaos_fingerprint_traced(seed: u64, sched: SchedulerKind, trace: bool) -> Vec<u64> {
    chaos_fingerprint_opts(seed, sched, trace, 1, None, 100)
}

/// The chaos run with the space-parallel knobs exposed: worker shard
/// count, an optional lookahead override (the torture tests force 1 ns to
/// maximize synchronization rounds), and the measure window. Returns the
/// report and the history checker's `(acked, checked)` verdicts.
fn chaos_run(
    seed: u64,
    sched: SchedulerKind,
    trace: bool,
    shards: usize,
    lookahead: Option<SimDuration>,
    measure_ms: u64,
) -> (SimReport, Option<(u64, u64)>) {
    let mut chaos = scenarios::chaos();
    chaos.cfg.seed = seed;
    chaos.cfg.scheduler = sched;
    chaos.cfg.trace = trace;
    chaos.cfg.shards = shards;
    chaos.cfg.lookahead = lookahead;
    if trace {
        chaos.cfg.telemetry_window = Some(SimDuration::millis(5));
    }
    let mut sim = chaos.build();
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(measure_ms));
    assert!(r.writes_done > 0, "chaos run must make progress");
    let checker = sim.checker().expect("history checking enabled");
    (r, Some((checker.writes_acked(), checker.reads_checked())))
}

fn chaos_fingerprint_opts(
    seed: u64,
    sched: SchedulerKind,
    trace: bool,
    shards: usize,
    lookahead: Option<SimDuration>,
    measure_ms: u64,
) -> Vec<u64> {
    let (r, checker) = chaos_run(seed, sched, trace, shards, lookahead, measure_ms);
    r.fingerprint(checker)
}

#[test]
fn chaos_seed_double_run_is_byte_identical() {
    let a = chaos_fingerprint_with(0xC0FFEE, SchedulerKind::default());
    let b = chaos_fingerprint_with(0xC0FFEE, SchedulerKind::default());
    assert!(a.len() > 20, "fingerprint covers the full report");
    assert_eq!(
        a, b,
        "chaos: faults, retries, and checker verdicts must replay identically"
    );
}

/// The timing wheel and the binary-heap oracle must produce the same event
/// order, and therefore bit-identical metric fingerprints, on the clean
/// fig7 scenario.
#[test]
fn wheel_matches_heap_fingerprint_fig7() {
    let wheel = fig7_fingerprint(SchedulerKind::Wheel);
    let heap = fig7_fingerprint(SchedulerKind::Heap);
    assert_eq!(
        wheel, heap,
        "fig7: scheduler choice must be invisible to every metric"
    );
}

/// Same, on the chaos scenario: faults, heartbeat failover, client retries,
/// a crash/restart with log-based recovery, and the history checker — the
/// paths most sensitive to event ordering.
/// Tracing must be purely passive: arming per-op spans, latency
/// attribution, the slow-op ring, and the windowed telemetry sampler must
/// not move a single event, so the full metric fingerprint is byte-identical
/// tracing off vs on — under both schedulers, on both the clean fig7
/// scenario and the fault-heavy chaos scenario.
#[test]
fn tracing_is_invisible_to_fingerprint_fig7_wheel() {
    let off = fig7_fingerprint_traced(SchedulerKind::Wheel, false);
    let on = fig7_fingerprint_traced(SchedulerKind::Wheel, true);
    assert_eq!(off, on, "fig7/wheel: tracing must not perturb the run");
}

#[test]
fn tracing_is_invisible_to_fingerprint_fig7_heap() {
    let off = fig7_fingerprint_traced(SchedulerKind::Heap, false);
    let on = fig7_fingerprint_traced(SchedulerKind::Heap, true);
    assert_eq!(off, on, "fig7/heap: tracing must not perturb the run");
}

#[test]
fn tracing_is_invisible_to_fingerprint_chaos_wheel() {
    let off = chaos_fingerprint_traced(0xC0FFEE, SchedulerKind::Wheel, false);
    let on = chaos_fingerprint_traced(0xC0FFEE, SchedulerKind::Wheel, true);
    assert_eq!(off, on, "chaos/wheel: tracing must not perturb the run");
}

#[test]
fn tracing_is_invisible_to_fingerprint_chaos_heap() {
    let off = chaos_fingerprint_traced(0xC0FFEE, SchedulerKind::Heap, false);
    let on = chaos_fingerprint_traced(0xC0FFEE, SchedulerKind::Heap, true);
    assert_eq!(off, on, "chaos/heap: tracing must not perturb the run");
}

#[test]
fn wheel_matches_heap_fingerprint_chaos() {
    let wheel = chaos_fingerprint_with(0xC0FFEE, SchedulerKind::Wheel);
    let heap = chaos_fingerprint_with(0xC0FFEE, SchedulerKind::Heap);
    assert_eq!(
        wheel, heap,
        "chaos: scheduler choice must be invisible to every metric"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the wheel-vs-heap differential: any seed drives the
    /// chaos scenario (fault injection + crash recovery + history checking)
    /// to the same full fingerprint under both schedulers.
    #[test]
    fn wheel_matches_heap_fingerprint(seed in 1u64..1_000_000) {
        let wheel = chaos_fingerprint_with(seed, SchedulerKind::Wheel);
        let heap = chaos_fingerprint_with(seed, SchedulerKind::Heap);
        prop_assert_eq!(wheel, heap);
    }
}

/// Elastic-operations scenario: a 4-node x 4-OSD topology starts with only
/// the first OSD of each node in service, grows to 16 via two weight-churn
/// waves, while one OSD flaps through 6 down/up cycles (tripping the
/// monitor's dampening) and the backfill throttle is tightened enough to
/// queue. Exercises every counter the elastic-operations work added.
fn churn_config(seed: u64) -> ClusterSimConfig {
    const W: u32 = rablock_cluster::placement::DEFAULT_OSD_WEIGHT;
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = 4;
    cfg.osds_per_node = 4;
    cfg.cores_per_node = 6;
    cfg.priority_threads = 1;
    cfg.non_priority_threads = 2;
    cfg.pg_count = CHAOS_PGS;
    cfg.queue_depth = 4;
    cfg.seed = seed;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        device_bytes: 32 << 20,
        nvm_bytes: 4 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions::tiny(),
        max_backfill_inflight: 2,
        backfill_bytes_per_tick: 1 << 20,
        ..OsdConfig::default()
    };
    cfg.faults = FaultPlan::none()
        .with_link_fault(LinkFault {
            link: None,
            from: SimTime::ZERO,
            until: SimTime::from_millis(10_000),
            drop_p: 0.005,
            dup_p: 0.002,
            reorder_p: 0.05,
            reorder_max: SimDuration::nanos(200_000),
            spike_p: 0.02,
            spike: SimDuration::nanos(500_000),
        })
        .with_flapping(
            0,
            SimTime::from_millis(3),
            6,
            SimDuration::millis(10),
            SimDuration::millis(7),
        );
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
    // Seed members: first OSD of each node (ids 0, 4, 8, 12).
    let seed_osds = [0u32, 4, 8, 12];
    cfg.initially_out = (0..16u32).filter(|id| !seed_osds.contains(id)).collect();
    let mut churn: Vec<ChurnOp> = [1u32, 5, 9, 13]
        .iter()
        .map(|&osd| ChurnOp {
            at: SimTime::from_millis(8),
            osd,
            weight: W,
        })
        .collect();
    churn.extend(
        (0..16u32)
            .filter(|id| id % 4 >= 2)
            .enumerate()
            .map(|(i, osd)| ChurnOp {
                at: SimTime::from_millis(20) + SimDuration::nanos(100_000) * i as u64,
                osd,
                weight: W,
            }),
    );
    cfg.churn = churn;
    cfg
}

fn churn_fingerprint_with(seed: u64, sched: SchedulerKind) -> Vec<u64> {
    churn_fingerprint_sharded(seed, sched, 1)
}

fn churn_fingerprint_sharded(seed: u64, sched: SchedulerKind, shards: usize) -> Vec<u64> {
    let mut cfg = churn_config(seed);
    cfg.scheduler = sched;
    cfg.shards = shards;
    let mut sim = ClusterSim::new(cfg, chaos_conns());
    sim.prefill(&chaos_objects(256 << 10));
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(100));
    assert!(r.writes_done > 0, "churn run must make progress");
    let checker = sim.checker().expect("history checking enabled");
    let mut fp = r.fingerprint(Some((checker.writes_acked(), checker.reads_checked())));
    fp.push(sim.capacity_imbalance().to_bits());
    fp
}

#[test]
fn churn_seed_double_run_is_byte_identical() {
    let a = churn_fingerprint_with(0xE1A5, SchedulerKind::default());
    let b = churn_fingerprint_with(0xE1A5, SchedulerKind::default());
    assert!(a.len() > 20, "fingerprint covers the full report");
    assert_eq!(
        a, b,
        "churn: weight churn, flap dampening, and throttle accounting must replay identically"
    );
}

/// Wheel vs heap on the elastic-operations scenario: map churn, joiner
/// backfill, throttle windows, and flap dampening are the newest paths
/// sensitive to event ordering.
#[test]
fn wheel_matches_heap_fingerprint_churn() {
    let wheel = churn_fingerprint_with(0xE1A5, SchedulerKind::Wheel);
    let heap = churn_fingerprint_with(0xE1A5, SchedulerKind::Heap);
    assert_eq!(
        wheel, heap,
        "churn: scheduler choice must be invisible to every metric"
    );
}

/// Integrity scenario for the shard-invariance suite: bit rot strikes one
/// OSD mid-run with background deep scrub armed, so the fingerprint covers
/// the scrub/repair counters on top of the usual metric set.
fn scrub_config(seed: u64) -> ClusterSimConfig {
    let mut cfg = chaos_config();
    cfg.seed = seed;
    cfg.faults = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: 1,
        at: SimTime::from_millis(6),
        object_lo: 0,
        object_hi: 1 << 16,
        flips: 32,
        media: RotMedia::CosData,
    });
    cfg.osd.cos.checksums = true;
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = 1;
    cfg
}

fn scrub_fingerprint_sharded(seed: u64, shards: usize) -> Vec<u64> {
    let mut cfg = scrub_config(seed);
    cfg.shards = shards;
    let mut sim = ClusterSim::new(cfg, chaos_conns());
    sim.prefill(&chaos_objects(1 << 20));
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(100));
    assert!(r.writes_done > 0, "scrub run must make progress");
    assert!(r.scrubs_completed > 0, "scrub must actually run");
    let checker = sim.checker().expect("history checking enabled");
    r.fingerprint(Some((checker.writes_acked(), checker.reads_checked())))
}

// ---------------------------------------------------------------------------
// Space-parallel execution: `shards` picks how many worker threads run the
// engine's per-node domains. The partition and the cross-domain merge order
// are fixed at construction, so the full metric fingerprint must be
// byte-identical for every worker count, on every scenario family the
// workspace has: clean (fig7), fault-heavy (chaos), elastic (churn), and
// integrity (bit rot + scrub).
// ---------------------------------------------------------------------------

#[test]
fn shard_count_is_invisible_to_fingerprint_fig7() {
    let base = fig7_fingerprint_sharded(SchedulerKind::default(), false, 1);
    for shards in [2usize, 4] {
        let sharded = fig7_fingerprint_sharded(SchedulerKind::default(), false, shards);
        assert_eq!(
            base, sharded,
            "fig7: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_chaos() {
    let base = chaos_fingerprint_opts(0xC0FFEE, SchedulerKind::default(), false, 1, None, 100);
    for shards in [2usize, 4] {
        let sharded =
            chaos_fingerprint_opts(0xC0FFEE, SchedulerKind::default(), false, shards, None, 100);
        assert_eq!(
            base, sharded,
            "chaos: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_churn() {
    let base = churn_fingerprint_sharded(0xE1A5, SchedulerKind::default(), 1);
    for shards in [2usize, 4] {
        let sharded = churn_fingerprint_sharded(0xE1A5, SchedulerKind::default(), shards);
        assert_eq!(
            base, sharded,
            "churn: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_scrub() {
    let base = scrub_fingerprint_sharded(0xD00D, 1);
    for shards in [2usize, 4] {
        let sharded = scrub_fingerprint_sharded(0xD00D, shards);
        assert_eq!(
            base, sharded,
            "scrub: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

/// Tracing must stay passive under parallel execution too: the per-part
/// trace logs merge into one recorder in a total order, so arming them on
/// a 4-shard run must not move a single event.
#[test]
fn tracing_is_invisible_to_fingerprint_sharded_chaos() {
    let off = chaos_fingerprint_opts(0xC0FFEE, SchedulerKind::default(), false, 4, None, 100);
    let on = chaos_fingerprint_opts(0xC0FFEE, SchedulerKind::default(), true, 4, None, 100);
    assert_eq!(off, on, "chaos/4 shards: tracing must not perturb the run");
}

/// Torture variant: a 1 ns lookahead shrinks every LBTS window to a single
/// timestamp, maximizing synchronization rounds and cross-shard merge
/// traffic. Within that window size the worker count must still be fully
/// invisible; and against the default-window run, every *simulation*
/// metric must match — window size is pure batching, never semantics.
/// The sole exception is `queue_high_water`: it measures the *scheduler*,
/// not the simulation — how many events sit pending at once depends on when
/// cross-domain events merge into the destination queue, which is exactly
/// what the lookahead window batches — so it is zeroed in the cross-window
/// comparison only. (The driver clamps the override to the network model's
/// floor, so a config can only shrink windows, not widen them.)
#[test]
fn one_nanosecond_lookahead_is_pure_batching() {
    let sched = SchedulerKind::default();
    let torture_la = Some(SimDuration::nanos(1));
    let (mut base, base_checker) = chaos_run(0xC0FFEE, sched, false, 1, torture_la, 20);
    for shards in [2usize, 4] {
        let tortured = chaos_fingerprint_opts(0xC0FFEE, sched, false, shards, torture_la, 20);
        assert_eq!(
            base.fingerprint(base_checker),
            tortured,
            "chaos: 1 ns lookahead at {shards} shards must replay the 1-shard fingerprint"
        );
    }
    let (mut wide, wide_checker) = chaos_run(0xC0FFEE, sched, false, 1, None, 20);
    assert_ne!(
        base.queue_high_water, 0,
        "high-water gauge populated (masking a live field, not a dead one)"
    );
    base.queue_high_water = 0;
    wide.queue_high_water = 0;
    assert_eq!(
        wide.fingerprint(wide_checker),
        base.fingerprint(base_checker),
        "chaos: window size must change only merge batching, never a simulation metric"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property form of shard invariance: any seed drives the chaos
    /// scenario (fault injection + crash recovery + history checking) to
    /// the same full fingerprint at 1, 2, and 4 worker shards.
    #[test]
    fn sharded_chaos_matches_sequential(seed in 1u64..1_000_000) {
        let sched = SchedulerKind::default();
        let base = chaos_fingerprint_opts(seed, sched, false, 1, None, 40);
        for shards in [2usize, 4] {
            let sharded = chaos_fingerprint_opts(seed, sched, false, shards, None, 40);
            prop_assert_eq!(&base, &sharded, "shards {}", shards);
        }
    }
}
