//! Drives the end-to-end data-integrity loop through the public API: a
//! seeded bit-rot fault silently corrupts one OSD's committed object data
//! mid-run, per-block checksums keep the rotten bytes away from clients,
//! and the background deep scrub finds the bad copies, votes blame, and
//! repairs them through the recovery push machinery — all while the
//! history checker vets every read against acked writes.
//!
//! Usage: `cargo run --release --example scrub_repair [seed] [flips]`

use rablock::sim::{
    BitRotSchedule, ClusterSim, ClusterSimConfig, ConnWorkload, FaultPlan, RetryPolicy, RotMedia,
    SimDuration, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

const PGS: u32 = 8;
const OBJECTS: u64 = 8;
const BLOCKS: u64 = 16;
const WRITES: u64 = OBJECTS * BLOCKS;
const BALLAST: u64 = 256;
const READS: u64 = WRITES;

fn oid(i: u64) -> ObjectId {
    ObjectId::new(GroupId((i % PGS as u64) as u32), i)
}

/// Ballast objects live far from the real ones; their writes keep the
/// cluster busy long enough for the rot strike and the scrub sweeps to
/// land inside the run, and push earlier records through the flush window.
fn ballast_oid(j: u64) -> ObjectId {
    let k = 1000 + (j % 8);
    ObjectId::new(GroupId((k % PGS as u64) as u32), k)
}

/// Writes, ballast, then a full read-back sweep of every written block —
/// the reads run after the rot strike, so correct contents prove the
/// checksum/redirect/repair path end to end.
struct Conn {
    cursor: u64,
}

impl ConnWorkload for Conn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < WRITES {
            Some(WorkItem::Write {
                oid: oid(i % OBJECTS),
                offset: (i / OBJECTS) * 4096,
                len: 4096,
                fill: (i % 251) as u8,
            })
        } else if i < WRITES + BALLAST {
            let j = i - WRITES;
            Some(WorkItem::Write {
                oid: ballast_oid(j),
                offset: (j / 8) * 4096,
                len: 4096,
                fill: (j % 251) as u8,
            })
        } else if i < WRITES + BALLAST + READS {
            let j = i - WRITES - BALLAST;
            Some(WorkItem::Read {
                oid: oid(j % OBJECTS),
                offset: (j / OBJECTS) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

fn build(seed: u64, flips: u32) -> ClusterSim {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = 3;
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
        // tiny() models the paper's checksum-free store; integrity needs
        // the per-block CRCs on.
        cos: CosOptions {
            checksums: true,
            ..CosOptions::tiny()
        },
        ..OsdConfig::default()
    };
    // Silent corruption against osd 1's committed data, mid-ballast: any
    // flushed block of any object it holds is fair game.
    cfg.faults = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: 1,
        at: SimTime::from_millis(6),
        object_lo: 0,
        object_hi: u64::MAX,
        flips,
        media: RotMedia::CosData,
    });
    // Deep scrub every sweep, fast cadence so detection lands in-run.
    cfg.scrub_interval = Some(SimDuration::millis(4));
    cfg.scrub_deep_every = 1;
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
    ClusterSim::new(
        cfg,
        vec![Box::new(Conn { cursor: 0 }) as Box<dyn ConnWorkload>],
    )
}

#[allow(clippy::type_complexity)]
fn run(seed: u64, flips: u32) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    let mut sim = build(seed, flips);
    let mut objects: Vec<(ObjectId, u64)> = (0..OBJECTS).map(|i| (oid(i), BLOCKS * 4096)).collect();
    objects.extend((0..8).map(|j| (ballast_oid(j), (BALLAST / 8) * 4096)));
    sim.prefill(&objects);
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(5));
    let divergence = sim.replica_digest_inconsistency();
    assert!(
        divergence.is_empty(),
        "replicas must agree at quiesce: {divergence:?}"
    );
    let checker = sim.checker().expect("history checking enabled");
    (
        report.writes_done,
        report.reads_done,
        report.client_errors,
        checker.writes_acked(),
        checker.reads_checked(),
        report.scrubs_completed,
        report.scrub_errors_found,
        report.scrub_errors_repaired,
        report.read_checksum_errors,
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(11, |s| s.parse().expect("seed: u64"));
    let flips: u32 = args.next().map_or(64, |s| s.parse().expect("flips: u32"));
    println!("scrub repair demo: seed={seed} flips={flips}");
    println!("fault: {flips} silent bit flips on osd1's committed data @6ms; deep scrub every 4ms");

    let first = run(seed, flips);
    let (w, r, e, acked, checked, scrubs, found, repaired, read_csum) = first;
    println!("writes_done={w} reads_done={r} client_errors={e} writes_acked={acked} reads_checked={checked}");
    println!("scrubs_completed={scrubs} errors_found={found} errors_repaired={repaired} read_checksum_errors={read_csum}");
    assert_eq!(e, 0, "no client ever sees the corruption");
    assert!(checked >= r, "every read vetted against acked writes");
    assert!(scrubs > 0, "scrub cadence ran");
    assert!(found > 0, "deep scrub must catch the rotten copies");
    assert!(repaired > 0, "scrub repair must heal them");

    let second = run(seed, flips);
    assert_eq!(first, second, "same seed must replay the identical history");
    println!("determinism: second run identical — rot was found, blamed, and healed; no client saw a corrupt byte.");
}
