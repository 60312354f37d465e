//! Per-layer host-time probes: a null-handler drive of the DES engine and
//! replays of a workload's op stream into each store.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use rablock::sim::{ConnWorkload, SimDuration, SimRng, SimTime, WorkItem};
use rablock::{GroupId, ObjectId};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::{CosObjectStore, CosOptions};
use rablock_lsm::LsmObjectStore;
use rablock_oplog::GroupLog;
use rablock_sim::{Ctx, Handler, Priority, SchedulerKind, Simulation, ThreadCfg, ThreadId};
use rablock_storage::{MemDisk, NvmRegion, ObjectStore, Op, Payload, Transaction};

use crate::spans::{SpanId, Spans};
use crate::workloads::Workload;

// ---------------------------------------------------------------------------
// Engine drive
// ---------------------------------------------------------------------------

const DRIVE_CORES: usize = 2;
const DRIVE_THREADS: usize = 4;
const DRIVE_TOKENS: usize = 4;
const DRIVE_SERVICE: SimDuration = SimDuration::nanos(1_000);
/// The cluster's cross-node link latency, which is its lookahead too.
const DRIVE_LOOKAHEAD: SimDuration = SimDuration::nanos(20_000);

/// One domain's handler: spend a fixed service time, then forward the token
/// to a random thread — of its own domain three times in four, else of
/// another domain one lookahead later. No protocol state at all, so the
/// drive's host time is the engine's (queue, dispatch, rounds, merge).
struct NullPart {
    domain: usize,
    domains: usize,
}

impl Handler<u32> for NullPart {
    fn handle(&mut self, _thread: ThreadId, hop: u32, ctx: &mut Ctx<'_, u32>) {
        ctx.spend("NULL", DRIVE_SERVICE);
        let rng = ctx.rng();
        let local = rng.below(DRIVE_THREADS as u64) as usize;
        if self.domains == 1 || rng.below(4) > 0 {
            ctx.send(self.domain * DRIVE_THREADS + local, hop.wrapping_add(1));
        } else {
            let other =
                (self.domain + 1 + rng.below(self.domains as u64 - 1) as usize) % self.domains;
            ctx.send_after(
                other * DRIVE_THREADS + local,
                hop.wrapping_add(1),
                DRIVE_LOOKAHEAD,
            );
        }
    }
}

/// Drives a `domains`-domain engine on `workers` workers for about
/// `events` events; returns `(host seconds, events run)`.
pub fn engine_drive(domains: usize, workers: usize, events: u64) -> (f64, u64) {
    let tokens = domains * DRIVE_THREADS * DRIVE_TOKENS;
    let mut sim: Simulation<u32> = Simulation::with_scheduler(7, SchedulerKind::default(), tokens);
    sim.set_domains(domains);
    sim.set_lookahead(DRIVE_LOOKAHEAD);
    sim.set_workers(workers);
    for d in 0..domains {
        let cores: Vec<_> = sim.add_cores_in(d, DRIVE_CORES).collect();
        for t in 0..DRIVE_THREADS {
            sim.add_thread_in(
                d,
                ThreadCfg::new(format!("d{d}.t{t}"), cores.clone(), Priority::Normal),
            );
        }
    }
    for t in 0..domains * DRIVE_THREADS {
        for _ in 0..DRIVE_TOKENS {
            sim.schedule(SimTime::ZERO, t, 0);
        }
    }
    let mut parts: Vec<NullPart> = (0..domains)
        .map(|domain| NullPart { domain, domains })
        .collect();
    // Tokens in flight between domains leave cores idle about half the
    // time, so each domain runs about one event per service time.
    let per_ns = domains as f64 / DRIVE_SERVICE.as_nanos() as f64;
    let deadline = SimTime::ZERO + SimDuration::nanos((events as f64 / per_ns) as u64);
    let t = Instant::now();
    sim.run_until_parts(&mut parts, deadline);
    let wall = t.elapsed().as_secs_f64();
    (wall, sim.metrics().items_run)
}

// ---------------------------------------------------------------------------
// Store replays
// ---------------------------------------------------------------------------

/// The first `n` ops of the workload's own stream (same seed, so the same
/// ops the cluster run issued) that address objects in `held`, drawn
/// round-robin over the connections.
pub fn replay_ops(w: Workload, seed: u64, held: &BTreeSet<u64>, n: usize) -> Vec<WorkItem> {
    let mut gens: Vec<_> = (0..w.conns() as u64)
        .map(|c| w.generator(seed, c))
        .collect();
    let mut rng = SimRng::seed(0);
    let mut out = Vec::with_capacity(n);
    let max_draws = n * 1000;
    let mut draws = 0;
    'outer: while out.len() < n && draws < max_draws {
        for g in &mut gens {
            let item = g.next(&mut rng).expect("generators never end");
            draws += 1;
            let oid = match &item {
                WorkItem::Write { oid, .. } | WorkItem::Read { oid, .. } => *oid,
            };
            if held.contains(&oid.raw()) {
                out.push(item);
                if out.len() == n {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// The backend transaction an OSD builds for a client write: the data plus
/// the `object_info_t` xattr and pg-log record Ceph attaches to each one.
fn write_txn(seq: u64, oid: ObjectId, offset: u64, len: u64, fill: u8) -> Transaction {
    let group = oid.group();
    Transaction::new(
        group,
        seq,
        vec![
            Op::Write {
                oid,
                offset,
                data: Payload::from(vec![fill; len as usize]),
            },
            Op::SetXattr {
                oid,
                key: "oi".into(),
                value: vec![0xA5; 64],
            },
            Op::MetaPut {
                key: format!("pglog.{}.{seq}", group.0).into_bytes(),
                value: vec![0x5A; 180],
            },
        ],
    )
}

fn prefill(store: &mut impl ObjectStore, objects: &[(ObjectId, u64)], seq: &mut u64) {
    for &(oid, size) in objects {
        *seq += 1;
        store
            .submit(Transaction::new(
                oid.group(),
                *seq,
                vec![Op::Create { oid, size }],
            ))
            .expect("replay prefill create");
        let _ = store.take_trace();
        while store.needs_maintenance() {
            store.maintenance();
            let _ = store.take_trace();
        }
    }
}

/// Reads back up to 512 written blocks and checks each holds the fill of
/// its last write.
fn verify(store: &mut impl ObjectStore, last: &BTreeMap<(u64, u64, u64), u8>) {
    for (&(raw, offset, len), &fill) in last.iter().take(512) {
        let data = store
            .read(ObjectId::from_raw(raw), offset, len)
            .expect("replay read-back");
        assert!(
            data.iter().all(|&b| b == fill),
            "replay read-back of {}@{offset}+{len} lost fill {fill:#x}",
            ObjectId::from_raw(raw)
        );
    }
}

/// Operation-log state of one OSD (its NVM and one ring per group), laid
/// out like the OSD lays it out.
struct Oplog {
    nvm: NvmRegion,
    next: u64,
    ring_bytes: u64,
    threshold: usize,
    logs: HashMap<GroupId, GroupLog>,
}

/// Replays `ops` through DOP's write path — operation-log append, a batch
/// flush into COS whenever a group's log reaches the flush threshold, log
/// drain — and COS reads. Span
/// names carry a `_csum` suffix on the COS calls when `checksums` is on.
/// Returns the records drained from the logs.
pub fn replay_dop(
    osd: &OsdConfig,
    checksums: bool,
    objects: &[(ObjectId, u64)],
    ops: &[WorkItem],
    spans: &mut Spans,
    parent: SpanId,
) -> u64 {
    let (submit, read) = if checksums {
        ("cos.submit_csum", "cos.read_csum")
    } else {
        ("cos.submit", "cos.read")
    };
    let opts = CosOptions {
        checksums,
        ..osd.cos.clone()
    };
    let mut store =
        CosObjectStore::format(MemDisk::new(osd.device_bytes), opts).expect("COS formats");
    let mut seq = 0;
    prefill(&mut store, objects, &mut seq);
    let mut log = Oplog {
        nvm: NvmRegion::new(osd.nvm_bytes),
        next: 0,
        ring_bytes: osd.ring_bytes,
        threshold: osd.flush_threshold,
        logs: HashMap::new(),
    };
    let mut drained = 0u64;
    let mut last = BTreeMap::new();
    let mut flush = |group: GroupId,
                     log: &mut Oplog,
                     store: &mut CosObjectStore<MemDisk>,
                     spans: &mut Spans| {
        let glog = log.logs.get_mut(&group).expect("group has a log");
        let (txns, through) = spans.time("oplog.drain", Some(parent), || {
            let txns: Vec<Transaction> = glog.export_records().into_iter().map(|r| r.txn).collect();
            (txns, glog.version())
        });
        for txn in txns {
            spans
                .time(submit, Some(parent), || store.submit(txn))
                .expect("flush submit");
            let _ = store.take_trace();
        }
        let out = spans.time("oplog.drain", Some(parent), || {
            glog.drain_through_version(&mut log.nvm, through)
        });
        drained += out.expect("drain flushed records").len() as u64;
    };
    for item in ops {
        match *item {
            WorkItem::Write {
                oid,
                offset,
                len,
                fill,
            } => {
                seq += 1;
                last.insert((oid.raw(), offset, len), fill);
                let group = oid.group();
                if !log.logs.contains_key(&group) {
                    let base = log.next;
                    log.next += log.ring_bytes;
                    let glog =
                        GroupLog::format(&mut log.nvm, group, base, log.ring_bytes, log.threshold)
                            .expect("ring formats in fresh NVM");
                    log.logs.insert(group, glog);
                }
                let txn = write_txn(seq, oid, offset, len, fill);
                let glog = log.logs.get_mut(&group).expect("just ensured");
                let outcome = spans.time("oplog.append", Some(parent), || {
                    glog.append(&mut log.nvm, txn)
                });
                let needs_flush = match outcome {
                    Ok(o) => o.needs_flush,
                    // A full ring flushes synchronously and retries, as the
                    // OSD does.
                    Err(_) => {
                        flush(group, &mut log, &mut store, spans);
                        let glog = log.logs.get_mut(&group).expect("group has a log");
                        let txn = write_txn(seq, oid, offset, len, fill);
                        spans
                            .time("oplog.append", Some(parent), || {
                                glog.append(&mut log.nvm, txn)
                            })
                            .expect("append after flush")
                            .needs_flush
                    }
                };
                if needs_flush {
                    flush(group, &mut log, &mut store, spans);
                }
            }
            WorkItem::Read { oid, offset, len } => {
                spans
                    .time(read, Some(parent), || store.read(oid, offset, len))
                    .expect("replay read");
            }
        }
    }
    let groups: Vec<GroupId> = log.logs.keys().copied().collect();
    for group in groups {
        flush(group, &mut log, &mut store, spans);
    }
    verify(&mut store, &last);
    drained
}

/// Replays `ops` into the LSM store the way the thread-pool OSD drives it:
/// one transaction per write, background maintenance run to quiescence
/// after each, and direct reads.
pub fn replay_lsm(
    osd: &OsdConfig,
    objects: &[(ObjectId, u64)],
    ops: &[WorkItem],
    spans: &mut Spans,
    parent: SpanId,
) {
    let mut store =
        LsmObjectStore::open(MemDisk::new(osd.device_bytes), osd.lsm.clone()).expect("LSM opens");
    let mut seq = 0;
    prefill(&mut store, objects, &mut seq);
    let mut last = BTreeMap::new();
    for item in ops {
        match *item {
            WorkItem::Write {
                oid,
                offset,
                len,
                fill,
            } => {
                seq += 1;
                last.insert((oid.raw(), offset, len), fill);
                let txn = write_txn(seq, oid, offset, len, fill);
                spans
                    .time("lsm.submit", Some(parent), || store.submit(txn))
                    .expect("LSM submit");
                let _ = store.take_trace();
                while store.needs_maintenance() {
                    spans.time("lsm.maintenance", Some(parent), || store.maintenance());
                    let _ = store.take_trace();
                }
            }
            WorkItem::Read { oid, offset, len } => {
                spans
                    .time("lsm.read", Some(parent), || store.read(oid, offset, len))
                    .expect("LSM read");
            }
        }
    }
    verify(&mut store, &last);
}
