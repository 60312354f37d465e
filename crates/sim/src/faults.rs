//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a declarative schedule of faults for one simulation
//! run: probabilistic per-link message faults (drop, duplication, reordering
//! via randomized extra delay, fixed delay spikes), node-pair partitions,
//! process crash/restart schedules with optional torn-tail log corruption,
//! and gray-failure windows that multiply a device's service time without
//! killing it.
//!
//! The plan itself holds no randomness: probabilistic outcomes are drawn at
//! query time from the caller's [`SimRng`], so the same seed always replays
//! the same fault history. The plan speaks only in simulator-level indices
//! (link index, node index, process index, [`DeviceId`]) — what those map to
//! (OSDs, monitors, clients) is the driver's business, which keeps this
//! module free of cluster-layer dependencies.
//!
//! Two consumption styles:
//!
//! - **Timeline faults** (crashes, restarts, gray windows) are enumerated up
//!   front via [`FaultPlan::timeline`] and scheduled as simulation events by
//!   the driver.
//! - **Message faults** (drops, dups, delays, partitions) are queried at
//!   each send site via [`FaultPlan::message_fate`].

use crate::engine::DeviceId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A window of probabilistic faults on one link (or all links).
#[derive(Clone, Debug)]
pub struct LinkFault {
    /// Link index the fault applies to; `None` means every link.
    pub link: Option<usize>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice (the duplicate follows the
    /// original after a short randomized gap).
    pub dup_p: f64,
    /// Probability a message is delayed by a uniform random extra delay in
    /// `(0, reorder_max]`, allowing it to land after later sends (reordering).
    pub reorder_p: f64,
    /// Maximum extra delay drawn for a reordered message.
    pub reorder_max: SimDuration,
    /// Probability of a fixed latency spike of `spike`.
    pub spike_p: f64,
    /// Extra delay added on a latency spike.
    pub spike: SimDuration,
}

impl LinkFault {
    fn active(&self, link: usize, now: SimTime) -> bool {
        self.link.is_none_or(|l| l == link) && self.from <= now && now < self.until
    }
}

/// A bidirectional network partition between two nodes for a time window.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// One endpoint (node index).
    pub a: usize,
    /// Other endpoint (node index).
    pub b: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl Partition {
    fn severs(&self, x: usize, y: usize, now: SimTime) -> bool {
        let pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair && self.from <= now && now < self.until
    }
}

/// A process crash, optionally followed by a restart.
#[derive(Clone, Copy, Debug)]
pub struct CrashSchedule {
    /// Index of the process (OSD) to kill.
    pub process: usize,
    /// When the crash happens.
    pub at: SimTime,
    /// When the process comes back, if ever.
    pub restart_at: Option<SimTime>,
    /// Whether the tail of the process's NVM log is torn (half-written) at
    /// crash time. The driver applies the corruption with its storage-layer
    /// crash model; recovery must detect and truncate the torn record.
    pub torn_tail: bool,
}

/// Which durable medium a bit-rot event damages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotMedia {
    /// Committed object data blocks on the backing object store.
    CosData,
    /// Records queued in the process's NVM operation log. The in-memory
    /// mirror stays clean, so the damage is latent until crash recovery
    /// replays the log from the device.
    NvmLog,
}

/// A scheduled silent-corruption event: flip `flips` bits in one process's
/// durable state without the process noticing. Models media bit rot, firmware
/// bugs, and cosmic-ray upsets — the fault class scrub and read-path
/// verification exist to catch.
#[derive(Clone, Copy, Debug)]
pub struct BitRotSchedule {
    /// Index of the process (OSD) whose durable state rots.
    pub process: usize,
    /// When the corruption lands.
    pub at: SimTime,
    /// Lower bound (inclusive) of the raw object-id range eligible to rot.
    pub object_lo: u64,
    /// Upper bound (exclusive) of the raw object-id range eligible to rot.
    pub object_hi: u64,
    /// How many independent single-bit flips to apply.
    pub flips: u32,
    /// Which medium the flips land on.
    pub media: RotMedia,
}

/// A gray-failure window: the device stays up but every service time is
/// multiplied by `multiplier` for the duration.
#[derive(Clone, Copy, Debug)]
pub struct GrayWindow {
    /// The affected device.
    pub device: DeviceId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); healthy timing resumes here.
    pub until: SimTime,
    /// Service-time scale factor (e.g. `50.0` for a device 50x slower).
    pub multiplier: f64,
}

/// One timeline entry produced by [`FaultPlan::timeline`]: a scheduled,
/// non-probabilistic fault the driver turns into a simulation event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Kill process `process`; if `torn_tail`, its NVM log tail is corrupted.
    Crash {
        /// Index of the process to kill.
        process: usize,
        /// Whether the NVM log tail is torn at crash time.
        torn_tail: bool,
    },
    /// Bring process `process` back up with its durable state.
    Restart {
        /// Index of the process to restart.
        process: usize,
    },
    /// Set `device`'s service-time multiplier to `multiplier`.
    GraySet {
        /// The affected device.
        device: DeviceId,
        /// New service-time multiplier (1.0 = healthy).
        multiplier: f64,
    },
    /// Silently flip `flips` bits in `process`'s durable state, restricted
    /// to objects whose raw id falls in `[object_lo, object_hi)`.
    BitRot {
        /// Index of the process whose durable state rots.
        process: usize,
        /// Lower bound (inclusive) of the eligible raw object-id range.
        object_lo: u64,
        /// Upper bound (exclusive) of the eligible raw object-id range.
        object_hi: u64,
        /// Number of independent single-bit flips.
        flips: u32,
        /// Which medium the flips land on.
        media: RotMedia,
    },
}

/// The fate of one message, decided by [`FaultPlan::message_fate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageFate {
    /// The message is silently dropped (never delivered).
    pub dropped: bool,
    /// A duplicate copy is delivered `dup_gap` after the original.
    pub duplicated: bool,
    /// Extra delay added to the (original) delivery.
    pub extra_delay: SimDuration,
    /// Gap between original and duplicate delivery when `duplicated`.
    pub dup_gap: SimDuration,
}

impl MessageFate {
    /// A clean delivery: not dropped, not duplicated, no extra delay.
    pub fn clean() -> Self {
        MessageFate {
            dropped: false,
            duplicated: false,
            extra_delay: SimDuration::ZERO,
            dup_gap: SimDuration::ZERO,
        }
    }
}

/// A declarative, seed-reproducible schedule of faults for one run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probabilistic per-link fault windows.
    pub link_faults: Vec<LinkFault>,
    /// Node-pair partitions.
    pub partitions: Vec<Partition>,
    /// Crash (and restart) schedules.
    pub crashes: Vec<CrashSchedule>,
    /// Gray-failure windows.
    pub gray_windows: Vec<GrayWindow>,
    /// Scheduled silent-corruption events.
    pub bit_rot: Vec<BitRotSchedule>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.gray_windows.is_empty()
            && self.bit_rot.is_empty()
    }

    /// Adds a probabilistic link-fault window.
    pub fn with_link_fault(mut self, fault: LinkFault) -> Self {
        assert!(
            (0.0..=1.0).contains(&fault.drop_p)
                && (0.0..=1.0).contains(&fault.dup_p)
                && (0.0..=1.0).contains(&fault.reorder_p)
                && (0.0..=1.0).contains(&fault.spike_p),
            "link fault probabilities must be in [0, 1]"
        );
        self.link_faults.push(fault);
        self
    }

    /// Adds a node-pair partition window.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Adds a crash (and optional restart) schedule.
    pub fn with_crash(mut self, crash: CrashSchedule) -> Self {
        if let Some(r) = crash.restart_at {
            assert!(r > crash.at, "restart must come after the crash");
        }
        self.crashes.push(crash);
        self
    }

    /// Adds a flapping storm: `cycles` crash/restart pairs of one process,
    /// the first crash at `start`, each cycle `period` long with the process
    /// down for `downtime` of it. Models an OSD bouncing on a bad power
    /// rail or OOM loop — the storm the monitor's flap dampening exists for.
    pub fn with_flapping(
        mut self,
        process: usize,
        start: SimTime,
        cycles: usize,
        period: SimDuration,
        downtime: SimDuration,
    ) -> Self {
        assert!(cycles > 0, "a flap storm needs at least one cycle");
        assert!(
            downtime < period,
            "downtime must leave time up within a cycle"
        );
        for c in 0..cycles {
            let at = start + period * c as u64;
            self = self.with_crash(CrashSchedule {
                process,
                at,
                restart_at: Some(at + downtime),
                torn_tail: false,
            });
        }
        self
    }

    /// Adds a rolling upgrade: each listed process is crashed and restarted
    /// in turn, `stagger` apart, down for `downtime`. With `stagger >=
    /// downtime` at most one process is down at a time — the classic
    /// one-failure-domain-at-a-time maintenance walk.
    pub fn with_rolling_upgrade(
        mut self,
        processes: impl IntoIterator<Item = usize>,
        start: SimTime,
        downtime: SimDuration,
        stagger: SimDuration,
    ) -> Self {
        for (i, process) in processes.into_iter().enumerate() {
            let at = start + stagger * i as u64;
            self = self.with_crash(CrashSchedule {
                process,
                at,
                restart_at: Some(at + downtime),
                torn_tail: false,
            });
        }
        self
    }

    /// Adds a scheduled bit-rot event.
    pub fn with_bit_rot(mut self, rot: BitRotSchedule) -> Self {
        assert!(
            rot.object_lo < rot.object_hi,
            "bit-rot object range must be non-empty"
        );
        assert!(rot.flips > 0, "bit rot must flip at least one bit");
        self.bit_rot.push(rot);
        self
    }

    /// Adds a gray-failure window.
    pub fn with_gray_window(mut self, window: GrayWindow) -> Self {
        assert!(
            window.multiplier.is_finite() && window.multiplier > 0.0,
            "gray multiplier must be positive and finite"
        );
        assert!(window.from < window.until, "gray window must be non-empty");
        self.gray_windows.push(window);
        self
    }

    /// True when the link between node `src` and node `dst` is severed by a
    /// partition at `now`.
    pub fn partitioned(&self, src: usize, dst: usize, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, now))
    }

    /// Decides the fate of one message sent at `now` over `link` from node
    /// `src` to node `dst`.
    ///
    /// Probabilistic outcomes are drawn from `rng`; given the same plan, the
    /// same query sequence and the same seed, every run replays identically.
    /// A message crossing an active partition is always dropped (no draw).
    pub fn message_fate(
        &self,
        link: usize,
        src: usize,
        dst: usize,
        now: SimTime,
        rng: &mut SimRng,
    ) -> MessageFate {
        if self.partitioned(src, dst, now) {
            return MessageFate {
                dropped: true,
                ..MessageFate::clean()
            };
        }
        let mut fate = MessageFate::clean();
        for f in self.link_faults.iter().filter(|f| f.active(link, now)) {
            if f.drop_p > 0.0 && rng.chance(f.drop_p) {
                return MessageFate {
                    dropped: true,
                    ..MessageFate::clean()
                };
            }
            if f.dup_p > 0.0 && rng.chance(f.dup_p) {
                fate.duplicated = true;
                // Short randomized gap so the duplicate lands strictly after
                // (and usually close behind) the original.
                fate.dup_gap +=
                    SimDuration::nanos(1 + rng.below(f.reorder_max.as_nanos().max(10_000)));
            }
            if f.reorder_p > 0.0 && rng.chance(f.reorder_p) {
                let max = f.reorder_max.as_nanos().max(1);
                fate.extra_delay += SimDuration::nanos(1 + rng.below(max));
            }
            if f.spike_p > 0.0 && rng.chance(f.spike_p) {
                fate.extra_delay += f.spike;
            }
        }
        fate
    }

    /// The device service-time multiplier in effect at `now` (product of all
    /// active gray windows; `1.0` when healthy).
    pub fn device_multiplier(&self, device: DeviceId, now: SimTime) -> f64 {
        self.gray_windows
            .iter()
            .filter(|w| w.device == device && w.from <= now && now < w.until)
            .map(|w| w.multiplier)
            .product()
    }

    /// Enumerates every scheduled (non-probabilistic) fault as a
    /// time-ordered list the driver can convert into simulation events:
    /// crashes, restarts, and gray-window edges.
    pub fn timeline(&self) -> Vec<(SimTime, FaultEvent)> {
        let mut out = Vec::new();
        for c in &self.crashes {
            out.push((
                c.at,
                FaultEvent::Crash {
                    process: c.process,
                    torn_tail: c.torn_tail,
                },
            ));
            if let Some(r) = c.restart_at {
                out.push((r, FaultEvent::Restart { process: c.process }));
            }
        }
        for w in &self.gray_windows {
            out.push((
                w.from,
                FaultEvent::GraySet {
                    device: w.device,
                    multiplier: w.multiplier,
                },
            ));
            out.push((
                w.until,
                FaultEvent::GraySet {
                    device: w.device,
                    multiplier: 1.0,
                },
            ));
        }
        for r in &self.bit_rot {
            out.push((
                r.at,
                FaultEvent::BitRot {
                    process: r.process,
                    object_lo: r.object_lo,
                    object_hi: r.object_hi,
                    flips: r.flips,
                    media: r.media,
                },
            ));
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_clean() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut rng = SimRng::seed(1);
        let fate = plan.message_fate(0, 0, 1, SimTime::from_millis(5), &mut rng);
        assert_eq!(fate, MessageFate::clean());
        assert_eq!(plan.device_multiplier(0, SimTime::from_millis(5)), 1.0);
        assert!(plan.timeline().is_empty());
    }

    #[test]
    fn partition_drops_both_directions_within_window() {
        let plan = FaultPlan::none().with_partition(Partition {
            a: 0,
            b: 2,
            from: SimTime::from_millis(10),
            until: SimTime::from_millis(20),
        });
        let mut rng = SimRng::seed(2);
        assert!(
            plan.message_fate(0, 0, 2, SimTime::from_millis(15), &mut rng)
                .dropped
        );
        assert!(
            plan.message_fate(0, 2, 0, SimTime::from_millis(15), &mut rng)
                .dropped
        );
        // Outside the window and for unrelated pairs: clean.
        assert!(
            !plan
                .message_fate(0, 0, 2, SimTime::from_millis(25), &mut rng)
                .dropped
        );
        assert!(
            !plan
                .message_fate(0, 0, 1, SimTime::from_millis(15), &mut rng)
                .dropped
        );
    }

    #[test]
    fn drop_probability_roughly_respected() {
        let plan = FaultPlan::none().with_link_fault(LinkFault {
            link: Some(1),
            from: SimTime::ZERO,
            until: SimTime::from_millis(1000),
            drop_p: 0.3,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_max: SimDuration::ZERO,
            spike_p: 0.0,
            spike: SimDuration::ZERO,
        });
        let mut rng = SimRng::seed(3);
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| {
                plan.message_fate(1, 0, 1, SimTime::from_millis(1), &mut rng)
                    .dropped
            })
            .count();
        let frac = dropped as f64 / n as f64;
        assert!((0.27..0.33).contains(&frac), "drop fraction {frac}");
        // Other links unaffected.
        assert!(
            !plan
                .message_fate(0, 0, 1, SimTime::from_millis(1), &mut rng)
                .dropped
        );
    }

    #[test]
    fn duplication_and_reordering_produce_delays() {
        let plan = FaultPlan::none().with_link_fault(LinkFault {
            link: None,
            from: SimTime::ZERO,
            until: SimTime::from_millis(1000),
            drop_p: 0.0,
            dup_p: 1.0,
            reorder_p: 1.0,
            reorder_max: SimDuration::nanos(50_000),
            spike_p: 1.0,
            spike: SimDuration::nanos(200_000),
        });
        let mut rng = SimRng::seed(4);
        let fate = plan.message_fate(3, 0, 1, SimTime::from_millis(1), &mut rng);
        assert!(!fate.dropped);
        assert!(fate.duplicated);
        assert!(fate.dup_gap > SimDuration::ZERO);
        // spike (200 µs) + reorder extra in (0, 50 µs].
        assert!(fate.extra_delay > SimDuration::nanos(200_000));
        assert!(fate.extra_delay <= SimDuration::nanos(250_000));
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let plan = FaultPlan::none().with_link_fault(LinkFault {
            link: None,
            from: SimTime::ZERO,
            until: SimTime::from_millis(1000),
            drop_p: 0.2,
            dup_p: 0.2,
            reorder_p: 0.2,
            reorder_max: SimDuration::nanos(30_000),
            spike_p: 0.2,
            spike: SimDuration::nanos(100_000),
        });
        let run = |seed| {
            let mut rng = SimRng::seed(seed);
            (0..256)
                .map(|i| plan.message_fate(i % 4, 0, 1, SimTime::from_millis(1), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge somewhere");
    }

    #[test]
    fn gray_windows_multiply_and_expire() {
        let plan = FaultPlan::none()
            .with_gray_window(GrayWindow {
                device: 2,
                from: SimTime::from_millis(10),
                until: SimTime::from_millis(30),
                multiplier: 8.0,
            })
            .with_gray_window(GrayWindow {
                device: 2,
                from: SimTime::from_millis(20),
                until: SimTime::from_millis(40),
                multiplier: 2.0,
            });
        assert_eq!(plan.device_multiplier(2, SimTime::from_millis(5)), 1.0);
        assert_eq!(plan.device_multiplier(2, SimTime::from_millis(15)), 8.0);
        assert_eq!(plan.device_multiplier(2, SimTime::from_millis(25)), 16.0);
        assert_eq!(plan.device_multiplier(2, SimTime::from_millis(35)), 2.0);
        assert_eq!(plan.device_multiplier(2, SimTime::from_millis(45)), 1.0);
        assert_eq!(plan.device_multiplier(0, SimTime::from_millis(25)), 1.0);
    }

    #[test]
    fn timeline_orders_crash_restart_and_gray_edges() {
        let plan = FaultPlan::none()
            .with_crash(CrashSchedule {
                process: 1,
                at: SimTime::from_millis(20),
                restart_at: Some(SimTime::from_millis(60)),
                torn_tail: true,
            })
            .with_gray_window(GrayWindow {
                device: 0,
                from: SimTime::from_millis(10),
                until: SimTime::from_millis(50),
                multiplier: 4.0,
            });
        let tl = plan.timeline();
        assert_eq!(tl.len(), 4);
        assert_eq!(
            tl[0],
            (
                SimTime::from_millis(10),
                FaultEvent::GraySet {
                    device: 0,
                    multiplier: 4.0
                }
            )
        );
        assert_eq!(
            tl[1],
            (
                SimTime::from_millis(20),
                FaultEvent::Crash {
                    process: 1,
                    torn_tail: true
                }
            )
        );
        assert_eq!(
            tl[2],
            (
                SimTime::from_millis(50),
                FaultEvent::GraySet {
                    device: 0,
                    multiplier: 1.0
                }
            )
        );
        assert_eq!(
            tl[3],
            (SimTime::from_millis(60), FaultEvent::Restart { process: 1 })
        );
    }

    #[test]
    fn bit_rot_lands_on_the_timeline() {
        let plan = FaultPlan::none().with_bit_rot(BitRotSchedule {
            process: 2,
            at: SimTime::from_millis(15),
            object_lo: 4,
            object_hi: 12,
            flips: 3,
            media: RotMedia::CosData,
        });
        assert!(!plan.is_empty());
        assert_eq!(
            plan.timeline(),
            vec![(
                SimTime::from_millis(15),
                FaultEvent::BitRot {
                    process: 2,
                    object_lo: 4,
                    object_hi: 12,
                    flips: 3,
                    media: RotMedia::CosData,
                }
            )]
        );
    }

    #[test]
    #[should_panic(expected = "bit-rot object range must be non-empty")]
    fn empty_rot_range_rejected() {
        let _ = FaultPlan::none().with_bit_rot(BitRotSchedule {
            process: 0,
            at: SimTime::from_millis(1),
            object_lo: 5,
            object_hi: 5,
            flips: 1,
            media: RotMedia::NvmLog,
        });
    }

    #[test]
    #[should_panic(expected = "restart must come after the crash")]
    fn restart_before_crash_rejected() {
        let _ = FaultPlan::none().with_crash(CrashSchedule {
            process: 0,
            at: SimTime::from_millis(10),
            restart_at: Some(SimTime::from_millis(5)),
            torn_tail: false,
        });
    }
}
