//! End-to-end data integrity: bit-rot chaos, background scrub, read-path
//! verification, and self-healing repair.
//!
//! The headline invariant: under bit-rot plans that corrupt fewer than
//! `size` replicas of any object (all rot lands on one OSD per case), every
//! acknowledged write remains readable with exactly the bytes acknowledged
//! (the history checker panics otherwise), every PG returns to Active, all
//! surviving replicas end byte-identical with consistent checksum metadata
//! — and the entire history, including which bits rotted, replays
//! byte-identically from the seed on both schedulers.

use proptest::prelude::*;
use rablock::sim::{
    BitRotSchedule, ClusterSim, ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan,
    RetryPolicy, RotMedia, SchedulerKind, SimDuration, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cluster::placement::OsdMap;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

const PGS: u32 = 8;
const NODES: usize = 3;
const CONNS: u64 = 2;
const WRITES_PER_CONN: u64 = 96;
const READS_PER_CONN: u64 = 24;
/// Blocks the write phase maps per object (96 writes / 8 objects = 12
/// sequential 4 KiB blocks each). Prefill declares exactly this size so
/// every rot-eligible block is one a write actually mapped — rot that lands
/// always lands on real data, never on a hole.
const BLOCKS_PER_OBJECT: u64 = WRITES_PER_CONN / 8;
const OBJECT_BYTES: u64 = BLOCKS_PER_OBJECT * 4096;

/// Objects are namespaced per connection so no block has two writers.
fn oid(conn: u64, k: u64) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % PGS as u64) as u32), i)
}

/// Case count, honoring `PROPTEST_CASES` — the scrub-chaos CI job relies on
/// it to dial intensity up without a code change.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Same write/read shape as the chaos suite: 12 blocks of 8 objects, then a
/// read sweep over the first blocks of each.
struct IntegrityConn {
    conn: u64,
    cursor: u64,
}

impl ConnWorkload for IntegrityConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < WRITES_PER_CONN {
            let k = i % 8;
            let block = (i / 8) % BLOCKS_PER_OBJECT;
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

/// Ballast objects for [`FullSweepConn`]: one per group, outside the rot
/// strike's object range, written purely to stretch wall time and to keep
/// per-group records flowing so every real write gets flushed to the
/// backend before the read sweep begins.
const BALLAST_BASE: u64 = 1000;
const BALLAST_WRITES: u64 = 384;

fn ballast_oid(j: u64) -> ObjectId {
    let i = BALLAST_BASE + (j % 8);
    ObjectId::new(GroupId((i % PGS as u64) as u32), i)
}

/// One connection, five phases: (1) write every block of its 8 objects,
/// (2) ballast writes that flush the real blocks out of the NVM log,
/// (3) a first full read sweep, (4) a second long ballast phase — the rot
/// strike lands here, well clear of both sweeps' timing — and (5) a second
/// full read sweep that is therefore guaranteed to read every rotted block
/// from the backend. Read-repair alone (no scrub) must heal the replica
/// set.
struct FullSweepConn {
    cursor: u64,
}

const SWEEP_WRITES: u64 = 8 * BLOCKS_PER_OBJECT;
const SWEEP_TOTAL_OPS: u64 = SWEEP_WRITES + 2 * BALLAST_WRITES + 2 * SWEEP_WRITES;

impl ConnWorkload for FullSweepConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        let read = |j: u64| {
            Some(WorkItem::Read {
                oid: oid(0, j % 8),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        };
        let ballast = |j: u64| {
            Some(WorkItem::Write {
                oid: ballast_oid(j),
                offset: (j / 8 % BLOCKS_PER_OBJECT) * 4096,
                len: 4096,
                fill: ((j * 13) % 251) as u8,
            })
        };
        if i < SWEEP_WRITES {
            let k = i % 8;
            let block = i / 8;
            Some(WorkItem::Write {
                oid: oid(0, k),
                offset: block * 4096,
                len: 4096,
                fill: ((k * 31 + block) % 251) as u8,
            })
        } else if i < SWEEP_WRITES + BALLAST_WRITES {
            ballast(i - SWEEP_WRITES)
        } else if i < SWEEP_WRITES + BALLAST_WRITES + SWEEP_WRITES {
            read(i - SWEEP_WRITES - BALLAST_WRITES)
        } else if i < SWEEP_WRITES + 2 * BALLAST_WRITES + SWEEP_WRITES {
            ballast(i - 2 * SWEEP_WRITES - BALLAST_WRITES)
        } else if i < SWEEP_TOTAL_OPS {
            read(i - SWEEP_WRITES - 2 * BALLAST_WRITES - SWEEP_WRITES)
        } else {
            None
        }
    }
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
        // tiny() models the paper's store (no data checksums); integrity
        // tests need the read-path CRCs on.
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

/// Everything one integrity run observes, flattened so determinism checks
/// are plain equality.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    writes: u64,
    reads: u64,
    errors: u64,
    scrubs_completed: u64,
    errors_found: u64,
    errors_repaired: u64,
    scrub_throttled_nanos: u64,
    read_checksum_errors: u64,
    acked: u64,
    checked: u64,
    stuck: Vec<String>,
    divergence: Vec<String>,
    digests: Vec<String>,
    fingerprint: Vec<u64>,
}

fn run(cfg: ClusterSimConfig, conns: u64, measure: SimDuration) -> Outcome {
    let wl: Vec<Box<dyn ConnWorkload>> = (0..conns)
        .map(|c| Box::new(IntegrityConn { conn: c, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect();
    let objects: Vec<(ObjectId, u64)> = (0..conns)
        .flat_map(|c| (0..8).map(move |k| (oid(c, k), OBJECT_BYTES)))
        .collect();
    run_with(cfg, wl, &objects, measure)
}

fn run_with(
    cfg: ClusterSimConfig,
    wl: Vec<Box<dyn ConnWorkload>>,
    objects: &[(ObjectId, u64)],
    measure: SimDuration,
) -> Outcome {
    let mut sim = ClusterSim::new(cfg, wl);
    sim.prefill(objects);
    let report = sim.run(SimDuration::ZERO, measure);
    let checker = sim.checker().expect("history checking enabled");
    let acked = checker.writes_acked();
    let checked = checker.reads_checked();
    let stuck = sim.stuck_pgs();
    let divergence = sim.replica_divergence();
    let digests = sim.replica_digest_inconsistency();
    let fingerprint = report.fingerprint(Some((acked, checked)));
    Outcome {
        writes: report.writes_done,
        reads: report.reads_done,
        errors: report.client_errors,
        scrubs_completed: report.scrubs_completed,
        errors_found: report.scrub_errors_found,
        errors_repaired: report.scrub_errors_repaired,
        scrub_throttled_nanos: report.scrub_throttled_nanos,
        read_checksum_errors: report.read_checksum_errors,
        acked,
        checked,
        stuck,
        divergence,
        digests,
        fingerprint,
    }
}

/// Shared assertions: ops resolved, nothing lost, cluster healed, replicas
/// clean down to checksum metadata.
fn assert_healed(o: &Outcome, conns: u64) -> Result<(), TestCaseError> {
    let total_ops = conns * (WRITES_PER_CONN + READS_PER_CONN);
    prop_assert!(
        o.writes + o.reads + o.errors >= total_ops,
        "all ops resolved: {}+{}+{} of {total_ops}",
        o.writes,
        o.reads,
        o.errors
    );
    prop_assert!(
        o.writes >= conns * WRITES_PER_CONN / 2,
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
        "replicas byte-identical after healing: {:?}",
        o.divergence
    );
    prop_assert!(
        o.digests.is_empty(),
        "replica checksum metadata consistent after healing: {:?}",
        o.digests
    );
    Ok(())
}

/// One bit-rot chaos case: where the rot lands, how hard, and how the scrub
/// cadence is tuned. All strikes target a single OSD, so no object ever has
/// `size` (= 2) corrupt replicas — the regime the headline invariant covers.
#[derive(Debug, Clone, Copy)]
struct RotScenario {
    seed: u64,
    rot_osd: u8,
    flips: u32,
    rot_at_ms: u64,
    second_strike: bool,
    deep_every: u64,
}

fn rot_scenarios() -> impl Strategy<Value = RotScenario> {
    (
        any::<u64>(),
        0u8..NODES as u8,
        16u32..96,
        6u64..40,
        any::<bool>(),
        1u64..4,
    )
        .prop_map(
            |(seed, rot_osd, flips, rot_at_ms, second_strike, deep_every)| RotScenario {
                seed,
                rot_osd,
                flips,
                rot_at_ms,
                second_strike,
                deep_every,
            },
        )
}

fn rot_config(s: &RotScenario) -> ClusterSimConfig {
    let mut plan = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: s.rot_osd as usize,
        at: SimTime::from_millis(s.rot_at_ms),
        object_lo: 0,
        object_hi: 1 << 16,
        flips: s.flips,
        media: RotMedia::CosData,
    });
    if s.second_strike {
        plan = plan.with_bit_rot(BitRotSchedule {
            process: s.rot_osd as usize,
            at: SimTime::from_millis(s.rot_at_ms + 25),
            object_lo: 0,
            object_hi: 1 << 16,
            flips: s.flips / 2 + 1,
            media: RotMedia::CosData,
        });
    }
    let mut cfg = base_config(s.seed, plan);
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = s.deep_every;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// Headline invariant: bit rot on one OSD, background deep scrub armed.
    /// No acked write is lost, no corrupt byte is ever returned to a client
    /// (checker), and the cluster quiesces Active with byte-identical,
    /// digest-consistent replicas.
    #[test]
    fn scrub_heals_single_osd_bit_rot(s in rot_scenarios()) {
        let o = run(rot_config(&s), CONNS, SimDuration::secs(5));
        assert_healed(&o, CONNS)?;
        prop_assert!(
            o.scrubs_completed >= 1,
            "scrub actually ran: {}",
            o.scrubs_completed
        );
        prop_assert!(
            o.errors_repaired <= o.errors_found,
            "repairs never exceed findings: {} repaired of {} found",
            o.errors_repaired,
            o.errors_found
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(3)))]

    /// The whole rot history is seed-reproducible, and reproducible across
    /// the wheel and heap schedulers: four runs, one fingerprint.
    #[test]
    fn bit_rot_history_is_scheduler_independent(s in rot_scenarios()) {
        let mut wheel = rot_config(&s);
        wheel.scheduler = SchedulerKind::Wheel;
        let a = run(wheel, CONNS, SimDuration::secs(5));
        let mut wheel2 = rot_config(&s);
        wheel2.scheduler = SchedulerKind::Wheel;
        let b = run(wheel2, CONNS, SimDuration::secs(5));
        prop_assert_eq!(&a, &b, "same seed, same scheduler: identical history");
        let mut heap = rot_config(&s);
        heap.scheduler = SchedulerKind::Heap;
        let c = run(heap, CONNS, SimDuration::secs(5));
        prop_assert_eq!(
            &a.fingerprint, &c.fingerprint,
            "wheel and heap replay the same rot history"
        );
        assert_healed(&a, CONNS)?;
    }
}

/// Rot in the NVM operation log is latent — the in-memory mirror stays
/// clean — until a crash forces recovery to replay the log from the device.
/// Truncating recovery drops the damaged suffix, peering re-heals the lost
/// tail from the surviving replicas, and deep scrub mops up anything the
/// log replay re-applied over rotted backend state.
#[test]
fn nvm_log_rot_surfaces_at_crash_and_heals() {
    let plan = FaultPlan::none()
        .with_bit_rot(BitRotSchedule {
            process: 1,
            at: SimTime::from_millis(6),
            object_lo: 0,
            object_hi: 1 << 16,
            flips: 24,
            media: RotMedia::NvmLog,
        })
        .with_crash(CrashSchedule {
            process: 1,
            at: SimTime::from_millis(10),
            restart_at: Some(SimTime::from_millis(20)),
            torn_tail: false,
        });
    let mut cfg = base_config(0xB17_0707, plan);
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = 1;
    let o = run(cfg, CONNS, SimDuration::secs(5));
    assert_healed(&o, CONNS).unwrap_or_else(|e| panic!("{e}"));
}

/// The dedicated read-path story, scrub disabled so read-repair carries the
/// whole load: corrupt one object's blocks on the primary that serves it,
/// read every block back. Each corrupt read must surface internally as a
/// checksum mismatch (never as wrong bytes — the checker vets every read),
/// the client must redirect to a clean replica, and the detection must
/// leave a repaired replica behind: byte-identical, digest-consistent.
#[test]
fn corrupted_replica_read_redirects_and_heals() {
    // Object raw id g lives in group g; rot the primary of group 0 and
    // restrict the strike to exactly that object.
    let primary = OsdMap::new(NODES as u32, 1, PGS, 2)
        .try_primary(GroupId(0))
        .expect("a full map always has a primary")
        .0 as usize;
    let plan = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: primary,
        at: SimTime::from_millis(24),
        object_lo: 0,
        object_hi: 1,
        flips: 64,
        media: RotMedia::CosData,
    });
    let cfg = base_config(0x0DD_B175, plan); // scrub_interval stays None
    let wl: Vec<Box<dyn ConnWorkload>> = vec![Box::new(FullSweepConn { cursor: 0 })];
    let objects: Vec<(ObjectId, u64)> = (0..8)
        .map(|k| (oid(0, k), OBJECT_BYTES))
        .chain((0..8).map(|j| (ballast_oid(j), OBJECT_BYTES)))
        .collect();
    let o = run_with(cfg, wl, &objects, SimDuration::secs(5));
    let total = SWEEP_TOTAL_OPS;
    assert!(
        o.writes + o.reads + o.errors >= total,
        "all ops resolved: {}+{}+{} of {total}",
        o.writes,
        o.reads,
        o.errors
    );
    assert_eq!(o.errors, 0, "redirects absorb every checksum mismatch");
    assert!(
        o.read_checksum_errors >= 1,
        "the corrupt read was detected on the rotted primary: {}",
        o.read_checksum_errors
    );
    assert_eq!(o.scrubs_completed, 0, "scrub stayed out of this one");
    assert!(o.stuck.is_empty(), "PGs Active: {:?}", o.stuck);
    assert!(
        o.divergence.is_empty(),
        "read-repair left a healed replica behind: {:?}",
        o.divergence
    );
    assert!(
        o.digests.is_empty(),
        "checksum metadata consistent after read-repair: {:?}",
        o.digests
    );
}

/// Deep scrub charges the shared recovery byte budget. With a budget
/// smaller than one group's tracked bytes, scrub rounds must defer across
/// throttle windows — visible as `scrub_throttled_nanos` in the report —
/// yet still complete and heal.
#[test]
fn deep_scrub_is_throttle_bounded() {
    let plan = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: 2,
        at: SimTime::from_millis(8),
        object_lo: 0,
        object_hi: 1 << 16,
        flips: 128,
        media: RotMedia::CosData,
    });
    let mut cfg = base_config(0x7807_713D, plan);
    // Two 48 KiB objects per group; a 64 KiB budget admits at most one
    // group per 1 ms window, so concurrent deep scrubs must queue.
    cfg.osd.backfill_bytes_per_tick = 64 << 10;
    cfg.scrub_interval = Some(SimDuration::millis(5));
    cfg.scrub_deep_every = 1;
    let o = run(cfg, CONNS, SimDuration::secs(5));
    assert_healed(&o, CONNS).unwrap_or_else(|e| panic!("{e}"));
    assert!(o.scrubs_completed >= 1, "deep scrub ran");
    assert!(
        o.scrub_throttled_nanos > 0,
        "the byte budget actually deferred scrub work: {}",
        o.scrub_throttled_nanos
    );
}

/// Scrub is a background citizen: on a healthy cluster, running it must not
/// change anything a client can see — same completed ops, same checker
/// verdicts, no errors either way. (Latency and CPU accounting may shift;
/// correctness may not.)
#[test]
fn scrub_on_vs_off_client_outcomes_identical() {
    let off = run(
        base_config(0x5C12B, FaultPlan::none()),
        CONNS,
        SimDuration::secs(5),
    );
    let mut on_cfg = base_config(0x5C12B, FaultPlan::none());
    on_cfg.scrub_interval = Some(SimDuration::millis(5));
    on_cfg.scrub_deep_every = 2;
    let on = run(on_cfg, CONNS, SimDuration::secs(5));
    assert_eq!(off.scrubs_completed, 0);
    assert!(on.scrubs_completed >= 1, "scrub ran in the armed config");
    assert_eq!(on.errors_found, 0, "a healthy cluster scrubs clean");
    for o in [&off, &on] {
        assert_eq!(o.errors, 0, "no client errors on a healthy cluster");
        assert!(o.stuck.is_empty() && o.divergence.is_empty() && o.digests.is_empty());
    }
    assert_eq!(
        (off.writes, off.reads, off.acked, off.checked),
        (on.writes, on.reads, on.acked, on.checked),
        "client-visible outcomes identical with scrub on vs off"
    );
}
