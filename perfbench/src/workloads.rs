//! The four benchmark workloads: cluster recipe, dataset, and the
//! benchmark's own seeded op generators.
//!
//! Every workload is closed-loop (each connection keeps `queue_depth` ops in
//! flight and issues the next one when a reply arrives), like the paper's fio
//! and YCSB runs. The generators own their RNG, seeded from `--seed` and the
//! connection index, so the op stream depends only on the seed; the
//! simulator's own RNG (network jitter, retry backoff) is seeded from it too.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rablock::sim::{
    ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan, RetryPolicy, SimDuration, SimRng,
    SimTime, WorkItem,
};
use rablock::{ObjectId, PipelineMode};
use rablock_bench::{paper_cluster, Dataset};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;
use rablock_workload::{WlOp, YcsbKind, YcsbWorkload};

/// Block size of the fio-style workloads.
const BLOCK: u64 = 4096;

/// The recover workload never issues a block the same connection issued in
/// its last this-many ops, so no read or write overlaps an in-flight write
/// to the same block (the history checker's workload discipline).
pub const RECENT_BLOCKS: usize = 256;

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DOP on the paper cluster, 4 KiB random writes: the headline cell.
    Fig7,
    /// DOP on 32 nodes x 8 OSDs under 10 000 connections, 2 worker shards.
    Scale,
    /// Stock Ceph (thread-pool OSD, LSM backend) running YCSB-A.
    YcsbA,
    /// DOP, 70/30 write/read, with an OSD crash, torn NVM tail and restart.
    Recover,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig7,
        Workload::Scale,
        Workload::YcsbA,
        Workload::Recover,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7-randwrite",
            Workload::Scale => "scale-256osd",
            Workload::YcsbA => "ycsb-a-original",
            Workload::Recover => "recover-randrw",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections (one image each).
    pub fn conns(self) -> usize {
        match self {
            Workload::Fig7 | Workload::Recover => 16,
            Workload::Scale => 10_000,
            Workload::YcsbA => 8,
        }
    }

    /// The dataset the connections address.
    pub fn dataset(self) -> Dataset {
        match self {
            Workload::Fig7 | Workload::Recover => Dataset::default_for(self.conns()),
            Workload::Scale => Dataset {
                images: self.conns() as u64,
                image_bytes: 256 << 10,
            },
            Workload::YcsbA => Dataset {
                images: self.conns() as u64,
                image_bytes: YCSB_CAPACITY * YCSB_RECORD_BYTES,
            },
        }
    }

    /// The image connection `conn` addresses. The scale workload's 10 000
    /// active volumes are a seeded pick from a 2^20-volume namespace, so the
    /// seed moves which placement groups carry them (its 4 KiB offsets
    /// alone never change how a one-object image is placed).
    pub fn image(self, seed: u64, conn: u64) -> u64 {
        match self {
            Workload::Scale => {
                // An odd multiplier makes the map a bijection mod 2^20.
                let a = mix(seed, 0xA) | 1;
                (a.wrapping_mul(conn).wrapping_add(mix(seed, 0xB))) & ((1 << 20) - 1)
            }
            _ => conn,
        }
    }

    /// Objects created before the measured run, with their sizes.
    pub fn objects(self, seed: u64) -> Vec<(ObjectId, u64)> {
        let d = self.dataset();
        match self {
            // One object per image, sized to the image: 20 000 replicas over
            // 256 OSDs must fit the partition the group hash picks.
            Workload::Scale => (0..self.conns() as u64)
                .map(|conn| (d.object(self.image(seed, conn), 0).0, d.image_bytes))
                .collect(),
            _ => d.all_objects(),
        }
    }

    /// Simulated warm-up and measured window.
    pub fn windows(self) -> (SimDuration, SimDuration) {
        match self {
            Workload::Fig7 => (SimDuration::ZERO, SimDuration::millis(120)),
            Workload::Scale => (SimDuration::ZERO, SimDuration::millis(24)),
            Workload::YcsbA => (SimDuration::millis(40), SimDuration::millis(300)),
            Workload::Recover => (SimDuration::ZERO, SimDuration::millis(RECOVER_END_MS)),
        }
    }

    /// Worker shards of the measured configuration.
    pub fn shards(self) -> usize {
        match self {
            Workload::Scale => 2,
            _ => 1,
        }
    }

    /// The cluster configuration for `seed`, executed on `shards` workers.
    pub fn config(self, seed: u64, shards: usize) -> ClusterSimConfig {
        let mut cfg = match self {
            Workload::Fig7 => paper_cluster(PipelineMode::Dop),
            Workload::Scale => scale_cluster(),
            Workload::YcsbA => paper_cluster(PipelineMode::Original),
            Workload::Recover => recover_cluster(),
        };
        cfg.seed = mix(seed, 0x5EED);
        cfg.shards = shards;
        cfg
    }

    /// The benchmark's own generators, one per connection. With `clock`
    /// set, every `next` call is timed into it.
    pub fn generators(self, seed: u64, clock: Option<&GenClock>) -> Vec<Box<dyn ConnWorkload>> {
        (0..self.conns() as u64)
            .map(|conn| {
                let g = self.generator(seed, conn);
                match clock {
                    Some(c) => Box::new(Timed {
                        inner: g,
                        clock: c.clone(),
                    }) as Box<dyn ConnWorkload>,
                    None => Box::new(g) as Box<dyn ConnWorkload>,
                }
            })
            .collect()
    }

    /// The generator of connection `conn`.
    pub fn generator(self, seed: u64, conn: u64) -> Gen {
        let rng = SimRng::seed(mix(seed, conn + 1));
        let image = self.image(seed, conn);
        let dataset = self.dataset();
        let blocks = dataset.image_bytes / BLOCK;
        match self {
            Workload::Fig7 | Workload::Scale => {
                Gen::Blocks(BlockGen::new(dataset, image, rng, blocks, 0, false))
            }
            Workload::Recover => Gen::Blocks(BlockGen::new(
                dataset,
                image,
                rng,
                blocks,
                RECOVER_READ_PCT,
                true,
            )),
            Workload::YcsbA => Gen::Ycsb(YcsbGen {
                dataset,
                image,
                rng,
                wl: YcsbWorkload::new(YcsbKind::A, YCSB_RECORDS, YCSB_RECORD_BYTES, YCSB_CAPACITY),
                queue: Vec::new(),
            }),
        }
    }
}

/// SplitMix64 of `(seed, stream)`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// YCSB-A shape of the figure sweep's fig10 cells: 1000-byte unaligned
// records, 12 000 loaded per image with head-room for 16 000.
const YCSB_RECORDS: u64 = 12_000;
const YCSB_RECORD_BYTES: u64 = 1_000;
const YCSB_CAPACITY: u64 = 16_000;

// The scale cell: 256 OSDs (32 nodes x 8 OSDs), 10 000 connections x qd2.
fn scale_cluster() -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = 32;
    cfg.osds_per_node = 8;
    cfg.cores_per_node = 24;
    cfg.pg_count = 512;
    cfg.replication = 2;
    cfg.queue_depth = 2;
    cfg.messenger_threads = 2;
    cfg.pg_threads = 2;
    cfg.rtc_threads = 2;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 2;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        // MemDisk pages lazily, so roomy devices are cheap; placement skew
        // can put ~3x the mean PG count on one OSD.
        device_bytes: 512 << 20,
        nvm_bytes: 16 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions {
            partitions: 4,
            onode_slots: 1024,
            ..CosOptions::tiny()
        },
        ..OsdConfig::default()
    };
    cfg
}

// Recover timeline (simulated ms): OSD 1 dies at 30 ms with a torn NVM
// tail, the monitor marks it down from missed heartbeats, and it restarts
// at 40 ms, pulls the logs it missed and is backfilled while clients run
// until 60 ms. A longer window panics (see NOTES.md, "Known defect").
const RECOVER_CRASH_MS: u64 = 30;
const RECOVER_RESTART_MS: u64 = 40;
const RECOVER_END_MS: u64 = 60;
const RECOVER_READ_PCT: u8 = 30;

fn recover_cluster() -> ClusterSimConfig {
    let mut cfg = paper_cluster(PipelineMode::Dop);
    cfg.osd.cos.checksums = true;
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
    // Deep scrub stays off: see NOTES.md, "Known defect".
    cfg.scrub_interval = None;
    let ms = |n: u64| SimTime::ZERO + SimDuration::millis(n);
    cfg.faults = FaultPlan::none().with_crash(CrashSchedule {
        process: 1,
        at: ms(RECOVER_CRASH_MS),
        restart_at: Some(ms(RECOVER_RESTART_MS)),
        torn_tail: true,
    });
    cfg
}

/// Host nanoseconds spent in the generators' `next`.
#[derive(Clone, Default)]
pub struct GenClock(Arc<AtomicU64>);

impl GenClock {
    /// Nanoseconds accumulated so far.
    pub fn ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Timed {
    inner: Gen,
    clock: GenClock,
}

impl ConnWorkload for Timed {
    fn next(&mut self, rng: &mut SimRng) -> Option<WorkItem> {
        let t = Instant::now();
        let item = self.inner.next(rng);
        let ns = t.elapsed().as_nanos() as u64;
        // A statistic only: nothing else is published through it.
        self.clock.0.fetch_add(ns, Ordering::Relaxed);
        item
    }
}

/// A connection's op generator.
pub enum Gen {
    /// Block-aligned 4 KiB reads and writes.
    Blocks(BlockGen),
    /// YCSB records over the image's byte space.
    Ycsb(YcsbGen),
}

impl ConnWorkload for Gen {
    fn next(&mut self, _sim_rng: &mut SimRng) -> Option<WorkItem> {
        Some(match self {
            Gen::Blocks(g) => g.next(),
            Gen::Ycsb(g) => g.next(),
        })
    }
}

/// Uniform random 4 KiB ops over one image.
pub struct BlockGen {
    dataset: Dataset,
    image: u64,
    rng: SimRng,
    blocks: u64,
    read_pct: u8,
    fills: u64,
    /// Blocks issued in the last [`RECENT_BLOCKS`] ops (when enabled), in
    /// order and as a per-block membership bitmap.
    recent: Option<(VecDeque<u64>, Vec<bool>)>,
}

impl BlockGen {
    fn new(
        dataset: Dataset,
        image: u64,
        rng: SimRng,
        blocks: u64,
        read_pct: u8,
        skip_recent: bool,
    ) -> Self {
        let recent = skip_recent.then(|| {
            assert!(blocks as usize > 4 * RECENT_BLOCKS, "image too small");
            (
                VecDeque::with_capacity(RECENT_BLOCKS + 1),
                vec![false; blocks as usize],
            )
        });
        BlockGen {
            dataset,
            image,
            rng,
            blocks,
            read_pct,
            fills: 0,
            recent,
        }
    }

    fn next(&mut self) -> WorkItem {
        let mut block = self.rng.below(self.blocks);
        if let Some((ring, member)) = &mut self.recent {
            while member[block as usize] {
                block = self.rng.below(self.blocks);
            }
            member[block as usize] = true;
            ring.push_back(block);
            if ring.len() > RECENT_BLOCKS {
                let old = ring.pop_front().expect("ring is non-empty");
                member[old as usize] = false;
            }
        }
        let is_read = self.read_pct > 0 && self.rng.below(100) < self.read_pct as u64;
        let (oid, offset) = self.dataset.object(self.image, block * BLOCK);
        if is_read {
            WorkItem::Read {
                oid,
                offset,
                len: BLOCK,
            }
        } else {
            self.fills += 1;
            WorkItem::Write {
                oid,
                offset,
                len: BLOCK,
                fill: (self.fills % 255 + 1) as u8,
            }
        }
    }
}

/// YCSB steps split into work items at object boundaries.
pub struct YcsbGen {
    dataset: Dataset,
    image: u64,
    rng: SimRng,
    wl: YcsbWorkload,
    queue: Vec<WorkItem>,
}

impl YcsbGen {
    fn next(&mut self) -> WorkItem {
        loop {
            if let Some(item) = self.queue.pop() {
                return item;
            }
            let step = self.wl.next(&mut self.rng);
            let mut items: Vec<WorkItem> = step
                .ops
                .iter()
                .flat_map(|op: &WlOp| self.dataset.work_items(self.image, *op))
                .collect();
            items.reverse();
            self.queue = items;
        }
    }
}
