//! Observability integration: the tracing pipeline must not just be
//! passive (see `determinism.rs`) — it must be *right*. Under a known
//! fault, the slow-op ring and per-component attribution have to point at
//! the actual culprit.
//!
//! The scenario: a 3-node replicated cluster in the coupled Ptc pipeline
//! (writes wait for the device), with one device running 8x slow behind a
//! gray-failure window that covers the whole run. Every write replicates
//! across all three OSDs, so the gray device sits on every op's critical
//! path and must dominate both the slow-op span trees and the aggregate
//! latency attribution.

use rablock::sim::{
    ClusterSim, ClusterSimConfig, Component, ConnWorkload, FaultPlan, GrayWindow, SimDuration,
    SimRng, SimTime, Track, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

const PGS: u32 = 8;
const GRAY_OSD: u32 = 1;

fn oid(conn: u64, k: u64) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % PGS as u64) as u32), i)
}

/// A bounded random-write stream; objects are namespaced per connection.
struct WriteConn {
    conn: u64,
    cursor: u64,
}

impl ConnWorkload for WriteConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i >= 600 {
            return None;
        }
        let k = i % 8;
        let block = (i / 8) % 16;
        Some(WorkItem::Write {
            oid: oid(self.conn, k),
            offset: block * 4096,
            len: 4096,
            fill: ((self.conn * 97 + k * 31 + block) % 251) as u8,
        })
    }
}

fn gray_config() -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Ptc);
    cfg.nodes = 3;
    cfg.osds_per_node = 1;
    cfg.cores_per_node = 8;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 3;
    cfg.pg_count = PGS;
    cfg.queue_depth = 4;
    cfg.seed = 0x6BA1;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Ptc,
        device_bytes: 64 << 20,
        nvm_bytes: 8 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions::tiny(),
        ..OsdConfig::default()
    };
    // One gray device, 8x slower, for the entire run. Nothing else fails.
    cfg.faults = FaultPlan::none().with_gray_window(GrayWindow {
        device: GRAY_OSD as usize,
        from: SimTime::ZERO,
        until: SimTime::from_millis(10_000),
        multiplier: 8.0,
    });
    cfg.trace = true;
    cfg.slow_op_ring = 16;
    cfg
}

/// The worst ops in the slow-op ring must attribute their dominant span to
/// the gray OSD's device, and the aggregate attribution must put the device
/// component in front of every other bucket.
#[test]
fn slow_ops_blame_the_gray_device() {
    let wl: Vec<Box<dyn ConnWorkload>> = (0..2u64)
        .map(|c| Box::new(WriteConn { conn: c, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect();
    let mut sim = ClusterSim::new(gray_config(), wl);
    let objects: Vec<(ObjectId, u64)> = (0..2u64)
        .flat_map(|c| (0..8).map(move |k| (oid(c, k), 1 << 20)))
        .collect();
    sim.prefill(&objects);
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(50));
    assert!(r.writes_done > 100, "run must make progress");

    let att = r.attribution.as_ref().expect("tracing was enabled");
    assert!(att.ops > 100, "attribution saw the measured ops");
    assert!(
        !att.slow_ops.is_empty(),
        "slow-op ring captured the worst ops"
    );

    // Every captured slow op carries a full span tree; the worst ones must
    // blame the gray device specifically — right component, right OSD.
    let blamed = att
        .slow_ops
        .iter()
        .filter(|op| {
            op.dominant_span()
                .is_some_and(|s| s.comp == Component::Device && s.track == Track::Osd(GRAY_OSD))
        })
        .count();
    assert!(
        blamed * 2 > att.slow_ops.len(),
        "majority of slow ops must blame the gray device: {blamed}/{}",
        att.slow_ops.len()
    );
    let worst = &att.slow_ops[0];
    let dom = worst.dominant_span().expect("worst op has spans");
    assert_eq!(
        (dom.comp, dom.track),
        (Component::Device, Track::Osd(GRAY_OSD)),
        "the single worst op's dominant span is the gray device ({}ns of {}ns total)",
        dom.dur.as_nanos(),
        worst.total.as_nanos()
    );

    // Aggregate attribution agrees: device is the top component overall.
    let device_share = att.share(Component::Device);
    for comp in [
        Component::Queue,
        Component::Service,
        Component::Network,
        Component::Nvm,
        Component::Retry,
        Component::Other,
    ] {
        assert!(
            device_share > att.share(comp),
            "device share {device_share:.3} must exceed {comp:?} share {:.3}",
            att.share(comp)
        );
    }
}
