//! The fixed scenarios that the wall-clock harness times and the
//! determinism tests replay, defined once.
//!
//! Each constructor returns a [`Scenario`]: the cluster config, one workload
//! per connection, and the objects to prefill. Callers adjust `cfg` (the
//! scheduler, shard count, tracing, a seed) before [`Scenario::build`].

use rablock::sim::{
    ChurnOp, ClusterSim, ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan, GrayWindow,
    LinkFault, Partition, RetryPolicy, SimDuration, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cluster::placement::DEFAULT_OSD_WEIGHT;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

use crate::{paper_cluster, randwrite_conns, Dataset};

/// A cluster config plus the load it runs and the data it starts with.
pub struct Scenario {
    /// The cluster configuration.
    pub cfg: ClusterSimConfig,
    /// One workload per client connection.
    pub conns: Vec<Box<dyn ConnWorkload>>,
    /// Objects (and sizes) written before the run starts.
    pub prefill: Vec<(ObjectId, u64)>,
}

impl Scenario {
    /// Builds the cluster and prefills it, ready to `run`.
    pub fn build(self) -> ClusterSim {
        let mut sim = ClusterSim::new(self.cfg, self.conns);
        sim.prefill(&self.prefill);
        sim
    }
}

/// The client retry policy every fault scenario arms.
fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        timeout_nanos: 10_000_000,
        backoff_base_nanos: 1_000_000,
        backoff_multiplier: 2.0,
        jitter_frac: 0.2,
        max_attempts: 8,
    }
}

/// Figure 7's 4 KiB random write on the paper cluster: DOP, 4 nodes x 2
/// OSDs, 16 connections.
pub fn fig7() -> Scenario {
    const CONNS: usize = 16;
    let dataset = Dataset::default_for(CONNS);
    Scenario {
        cfg: paper_cluster(PipelineMode::Dop),
        conns: randwrite_conns(dataset, CONNS),
        prefill: dataset.all_objects(),
    }
}

/// Placement groups of the chaos cluster.
pub const CHAOS_PGS: u32 = 8;
const CHAOS_CONNS: u64 = 4;
const CHAOS_WRITES_PER_CONN: u64 = 400;
const CHAOS_READS_PER_CONN: u64 = 100;

/// Object `k` (of 8) in connection `conn`'s namespace; no object has two
/// writers.
fn chaos_oid(conn: u64, k: u64) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % CHAOS_PGS as u64) as u32), i)
}

/// One chaos connection: 400 writes over 16 blocks of 8 objects, then 100
/// reads of the first blocks, then done.
struct ChaosConn {
    conn: u64,
    cursor: u64,
}

impl ConnWorkload for ChaosConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < CHAOS_WRITES_PER_CONN {
            let k = i % 8;
            let block = (i / 8) % 16;
            Some(WorkItem::Write {
                oid: chaos_oid(self.conn, k),
                offset: block * 4096,
                len: 4096,
                fill: ((self.conn * 97 + k * 31 + block) % 251) as u8,
            })
        } else if i < CHAOS_WRITES_PER_CONN + CHAOS_READS_PER_CONN {
            let j = i - CHAOS_WRITES_PER_CONN;
            Some(WorkItem::Read {
                oid: chaos_oid(self.conn, j % 8),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

/// The four chaos connections.
pub fn chaos_conns() -> Vec<Box<dyn ConnWorkload>> {
    (0..CHAOS_CONNS)
        .map(|conn| Box::new(ChaosConn { conn, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect()
}

/// Every chaos object, each `bytes` long.
pub fn chaos_objects(bytes: u64) -> Vec<(ObjectId, u64)> {
    (0..CHAOS_CONNS)
        .flat_map(|c| (0..8).map(move |k| (chaos_oid(c, k), bytes)))
        .collect()
}

/// The chaos cluster: 3 nodes x 1 OSD under drops, duplicates, reordering,
/// a partition, a gray device and a crash/restart with a torn NVM tail,
/// with client retries, heartbeat failure detection and the history checker
/// armed.
pub fn chaos_config() -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = 3;
    cfg.osds_per_node = 1;
    cfg.cores_per_node = 8;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 3;
    cfg.pg_count = CHAOS_PGS;
    cfg.queue_depth = 4;
    cfg.seed = 0xC0FFEE;
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
            drop_p: 0.01,
            dup_p: 0.005,
            reorder_p: 0.05,
            reorder_max: SimDuration::nanos(200_000),
            spike_p: 0.02,
            spike: SimDuration::nanos(500_000),
        })
        .with_partition(Partition {
            a: 0,
            b: 1,
            from: SimTime::from_millis(8),
            until: SimTime::from_millis(18),
        })
        .with_gray_window(GrayWindow {
            device: 1,
            from: SimTime::from_millis(2),
            until: SimTime::from_millis(25),
            multiplier: 8.0,
        })
        .with_crash(CrashSchedule {
            process: 0,
            at: SimTime::from_millis(6),
            restart_at: Some(SimTime::from_millis(40)),
            torn_tail: true,
        });
    cfg.heartbeat_period = Some(SimDuration::millis(1));
    cfg.heartbeat_grace = SimDuration::millis(5);
    cfg.retry = Some(retry_policy());
    cfg.check_history = true;
    cfg
}

/// The chaos scenario: [`chaos_config`] running [`chaos_conns`] over 1 MiB
/// objects.
pub fn chaos() -> Scenario {
    Scenario {
        cfg: chaos_config(),
        conns: chaos_conns(),
        prefill: chaos_objects(1 << 20),
    }
}

// Grow scenario: 16 nodes x 4 OSDs pre-provisioned, 4 in service at start,
// woven up to 8 and then all 64 by weight churn while the workload runs.
const GROW_NODES: u32 = 16;
const GROW_OSDS_PER_NODE: u32 = 4;
const GROW_OSDS: u32 = GROW_NODES * GROW_OSDS_PER_NODE;
const GROW_PGS: u32 = 32;
const GROW_CONNS: u64 = 3;

fn grow_oid(conn: u64, k: u64) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % GROW_PGS as u64) as u32), i)
}

/// Endless 4 KiB writer over the connection's 8-object namespace: unlike
/// the fixed-op correctness twin in `tests/chaos.rs`, the bench load never
/// drains, so both expansion windows and the warmed-up control measure a
/// cluster under constant pressure.
struct GrowConn {
    conn: u64,
    cursor: u64,
}

impl ConnWorkload for GrowConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        let k = i % 8;
        let block = (i / 8) % 16;
        Some(WorkItem::Write {
            oid: grow_oid(self.conn, k),
            offset: block * 4096,
            len: 4096,
            fill: ((self.conn * 97 + k * 31 + block) % 251) as u8,
        })
    }
}

/// Grow 4 -> 8 -> 64 OSDs under load. With `churn` false the same 64-OSD
/// topology runs fully in service from the start: the control whose p99
/// frames the expansion's degradation window.
pub fn grow(churn: bool) -> Scenario {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = GROW_NODES;
    cfg.osds_per_node = GROW_OSDS_PER_NODE;
    cfg.cores_per_node = 6;
    cfg.priority_threads = 1;
    cfg.non_priority_threads = 2;
    cfg.pg_count = GROW_PGS;
    cfg.queue_depth = 4;
    cfg.seed = 0xE1A5;
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
    // No link noise here, unlike the chaos.rs correctness twin: random
    // drops put 10 ms retry timeouts in both tails and would swamp the
    // expansion's own interference, which is the thing being measured.
    cfg.faults = FaultPlan::none();
    cfg.heartbeat_period = Some(SimDuration::millis(1));
    cfg.heartbeat_grace = SimDuration::millis(5);
    cfg.retry = Some(retry_policy());
    cfg.check_history = true;
    if churn {
        let seed_osds = [0u32, 4, 8, 12];
        let second = [16u32, 20, 24, 28];
        cfg.initially_out = (0..GROW_OSDS)
            .filter(|id| !seed_osds.contains(id))
            .collect();
        let mut ops: Vec<ChurnOp> = second
            .iter()
            .map(|&osd| ChurnOp {
                at: SimTime::from_millis(8),
                osd,
                weight: DEFAULT_OSD_WEIGHT,
            })
            .collect();
        let rest = (0..GROW_OSDS).filter(|id| !seed_osds.contains(id) && !second.contains(id));
        ops.extend(rest.enumerate().map(|(i, osd)| ChurnOp {
            at: SimTime::from_millis(20) + SimDuration::nanos(100_000) * i as u64,
            osd,
            weight: DEFAULT_OSD_WEIGHT,
        }));
        cfg.churn = ops;
    }
    Scenario {
        cfg,
        conns: (0..GROW_CONNS)
            .map(|conn| Box::new(GrowConn { conn, cursor: 0 }) as Box<dyn ConnWorkload>)
            .collect(),
        prefill: (0..GROW_CONNS)
            .flat_map(|c| (0..8).map(move |k| (grow_oid(c, k), 256 << 10)))
            .collect(),
    }
}

/// Storage nodes of the scale cluster.
pub const SCALE_NODES: u32 = 32;
/// OSDs per scale node.
pub const SCALE_OSDS_PER_NODE: u32 = 8;
/// Client connections of the scale workload.
pub const SCALE_CONNS: usize = 10_000;

/// 256 OSDs (32 nodes x 8 OSDs) under 10 000 connections of 4 KiB random
/// writes. Each connection owns one 256 KiB image, so the prefill grows
/// with the connection count.
pub fn scale() -> Scenario {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = SCALE_NODES;
    cfg.osds_per_node = SCALE_OSDS_PER_NODE;
    // 8 OSDs x 2 pinned priority threads + a shared pool, matching the
    // paper testbed's 44-logical-core nodes in spirit.
    cfg.cores_per_node = 24;
    cfg.pg_count = 512;
    cfg.replication = 2;
    cfg.queue_depth = 2;
    cfg.seed = 0x5CA1E;
    cfg.messenger_threads = 2;
    cfg.pg_threads = 2;
    cfg.rtc_threads = 2;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 2;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        // MemDisk pages lazily (vec![0; n] = untouched zero pages), so a
        // roomy device is cheap; PG-placement skew can pile ~3x the mean
        // PG count onto one OSD and the hash can pile those PGs onto one
        // partition, so each partition needs slack over the ~20 MiB mean.
        device_bytes: 512 << 20,
        nvm_bytes: 16 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        // ~156 objects land on each OSD (10k objects x 2 replicas over
        // 256 OSDs); tiny()'s 128 onode slots are too few.
        cos: CosOptions {
            partitions: 4,
            onode_slots: 1024,
            ..CosOptions::tiny()
        },
        ..OsdConfig::default()
    };
    let dataset = Dataset {
        images: SCALE_CONNS as u64,
        image_bytes: 256 << 10,
    };
    Scenario {
        cfg,
        conns: randwrite_conns(dataset, SCALE_CONNS),
        // One 256 KiB object per connection, sized to the image (not the
        // 1 MiB stripe default): 20 000 replicas over 256 OSDs have to fit
        // the partition the group hash picks, with skew headroom.
        prefill: (0..dataset.images)
            .map(|image| (dataset.object(image, 0).0, dataset.image_bytes))
            .collect(),
    }
}
