//! Drives the fault-injection layer end to end through the public API:
//! lossy links, a partition, a gray device, and an OSD crash/restart with a
//! torn NVM tail — while heartbeat detection, client retries, and the
//! history checker keep the cluster honest.
//!
//! Usage: `cargo run --release --example chaos_demo [seed] [drop_p]`

use rablock::sim::{
    ClusterSim, ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan, GrayWindow, LinkFault,
    Partition, RetryPolicy, SimDuration, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

const PGS: u32 = 8;

fn oid(i: u64) -> ObjectId {
    ObjectId::new(GroupId((i % PGS as u64) as u32), i)
}

struct Conn {
    cursor: u64,
}

impl ConnWorkload for Conn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < 192 {
            Some(WorkItem::Write {
                oid: oid(i % 8),
                offset: ((i / 8) % 16) * 4096,
                len: 4096,
                fill: (i % 251) as u8,
            })
        } else if i < 240 {
            let j = i - 192;
            Some(WorkItem::Read {
                oid: oid(j % 8),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

fn build(seed: u64, drop_p: f64) -> ClusterSim {
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
        cos: CosOptions::tiny(),
        ..OsdConfig::default()
    };
    cfg.faults = FaultPlan::none()
        .with_link_fault(LinkFault {
            link: None,
            from: SimTime::ZERO,
            until: SimTime::from_millis(10_000),
            drop_p,
            dup_p: drop_p / 2.0,
            reorder_p: 0.05,
            reorder_max: SimDuration::nanos(200_000),
            spike_p: 0.02,
            spike: SimDuration::nanos(500_000),
        })
        .with_partition(Partition {
            a: 0,
            b: 1,
            from: SimTime::from_millis(6),
            until: SimTime::from_millis(14),
        })
        .with_gray_window(GrayWindow {
            device: 1,
            from: SimTime::from_millis(2),
            until: SimTime::from_millis(25),
            multiplier: 8.0,
        })
        .with_crash(CrashSchedule {
            process: 2,
            at: SimTime::from_millis(5),
            restart_at: Some(SimTime::from_millis(35)),
            torn_tail: true,
        });
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

fn run(seed: u64, drop_p: f64) -> (u64, u64, u64, u64, u64, u64, u64) {
    let mut sim = build(seed, drop_p);
    sim.prefill(&(0..8u64).map(|i| (oid(i), 1 << 20)).collect::<Vec<_>>());
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(5));
    let checker = sim.checker().expect("history checking enabled");
    (
        report.writes_done,
        report.reads_done,
        report.client_errors,
        checker.writes_acked(),
        checker.reads_checked(),
        report.context_switches,
        report.nvm_bytes,
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(7, |s| s.parse().expect("seed: u64"));
    let drop_p: f64 = args
        .next()
        .map_or(0.01, |s| s.parse().expect("drop_p: f64"));
    println!("chaos demo: seed={seed} drop_p={drop_p}");
    println!("faults: lossy links + partition(0,1)@6-14ms + gray(dev1,x8)@2-25ms + crash(osd2)@5ms restart@35ms torn-tail");

    let first = run(seed, drop_p);
    let (w, r, e, acked, checked, cs, nvm) = first;
    println!("writes_done={w} reads_done={r} client_errors={e} writes_acked={acked} reads_checked={checked}");
    println!("context_switches={cs} nvm_bytes={nvm}");
    assert!(w + r + e >= 240, "all ops resolved");
    assert!(checked >= r, "every read vetted against acked writes");

    let second = run(seed, drop_p);
    assert_eq!(first, second, "same seed must replay the identical history");
    println!("determinism: second run identical — no acknowledged write was lost.");
}
