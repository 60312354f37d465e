//! Deterministic per-op tracing and latency attribution.
//!
//! The paper's figures explain *that* an architecture wins; tracing explains
//! *where* the nanoseconds go. Every client op can carry a [`TraceId`];
//! drivers open [`Span`]s at each stage boundary the DES models (messenger,
//! stage service, network hops, NVM append, device queue, acks) and a
//! [`Recorder`] folds a completed op's spans into a per-[`Component`]
//! breakdown: queue-wait vs service vs network vs NVM vs device vs retry.
//!
//! # Determinism rules
//!
//! Tracing must never change simulation results. Recorders therefore:
//! * read only the simulated clock — never wall-clock time or RNG state;
//! * schedule no events and charge no CPU — recording is pure bookkeeping
//!   on the side of the event loop;
//! * live behind an `Option` so a disabled run does zero heap work.
//!
//! Exports ([`chrome_trace_json`], [`TimeSeries::to_csv`]) iterate only
//! sorted/ordered structures so repeated runs emit byte-identical files.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};

/// Unique id of one traced client operation.
///
/// Drivers derive it deterministically from protocol identity (e.g.
/// `(connection, op-sequence)`), so the same seed yields the same ids.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Packs a (connection, per-connection op counter) pair into an id.
    pub fn from_conn_op(conn: u32, op: u64) -> TraceId {
        TraceId(((conn as u64) << 40) | (op & 0xFF_FFFF_FFFF))
    }

    /// The connection this id was packed from.
    pub fn conn(self) -> u32 {
        (self.0 >> 40) as u32
    }

    /// The per-connection op counter this id was packed from.
    pub fn op(self) -> u64 {
        self.0 & 0xFF_FFFF_FFFF
    }
}

/// Number of latency-attribution components.
pub const COMPONENTS: usize = 7;

/// Where a slice of an op's latency was spent.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Component {
    /// Waiting in a thread's queue for a core (backlog + contention).
    Queue,
    /// CPU service at a stage (MP/RP/TP/OS handler work).
    Service,
    /// Network transfer + propagation on any hop.
    Network,
    /// NVM operation-log append (fixed + per-byte cost).
    Nvm,
    /// Device submit-to-completion (includes internal device queueing).
    Device,
    /// Timeout backoff before a retransmission.
    Retry,
    /// Residual wall time no span covers (e.g. waiting out a lost message).
    Other,
}

impl Component {
    /// All components, in reporting order.
    pub const ALL: [Component; COMPONENTS] = [
        Component::Queue,
        Component::Service,
        Component::Network,
        Component::Nvm,
        Component::Device,
        Component::Retry,
        Component::Other,
    ];

    /// Stable array index of this component.
    pub fn idx(self) -> usize {
        match self {
            Component::Queue => 0,
            Component::Service => 1,
            Component::Network => 2,
            Component::Nvm => 3,
            Component::Device => 4,
            Component::Retry => 5,
            Component::Other => 6,
        }
    }

    /// Short stable name used in CSV headers and reports.
    pub fn name(self) -> &'static str {
        match self {
            Component::Queue => "queue",
            Component::Service => "service",
            Component::Network => "network",
            Component::Nvm => "nvm",
            Component::Device => "device",
            Component::Retry => "retry",
            Component::Other => "other",
        }
    }
}

/// The entity a span executed on (Perfetto track assignment).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Track {
    /// A client connection.
    Client(u32),
    /// An OSD.
    Osd(u32),
}

/// One timed slice of a traced op.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// Stage-boundary label, e.g. `"rp.primary"`, `"net.repop"`, `"device"`.
    pub name: &'static str,
    /// Where it ran.
    pub track: Track,
    /// Start instant (sim clock).
    pub start: SimTime,
    /// Duration.
    pub dur: SimDuration,
    /// Attribution bucket.
    pub comp: Component,
}

/// Per-op bookkeeping while the op is in flight.
#[derive(Debug)]
struct OpTrace {
    is_write: bool,
    issued: SimTime,
    spans: Vec<Span>,
    comp_ns: [u64; COMPONENTS],
    retries: u32,
    /// Replication-map keys `(primary_osd, seq)` registered for this op, so
    /// the driver can drop its lookup entries when the op completes.
    rep_keys: Vec<(u32, u64)>,
}

/// A completed op in the slow-op ring: full span tree plus fold results.
#[derive(Clone, Debug)]
pub struct SlowOp {
    /// The op's trace id.
    pub id: TraceId,
    /// True for writes.
    pub is_write: bool,
    /// When the client issued it.
    pub issued: SimTime,
    /// End-to-end latency.
    pub total: SimDuration,
    /// Nanoseconds attributed to each [`Component`] (indexed by `idx()`).
    pub comp_ns: [u64; COMPONENTS],
    /// Retransmissions observed.
    pub retries: u32,
    /// All recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl SlowOp {
    /// The single longest span (the op's dominant time sink), if any.
    pub fn dominant_span(&self) -> Option<&Span> {
        self.spans.iter().max_by_key(|s| s.dur.as_nanos())
    }
}

/// Summary handed back to the driver when an op completes.
#[derive(Debug)]
pub struct FinishedOp {
    /// End-to-end latency.
    pub total: SimDuration,
    /// True for writes.
    pub is_write: bool,
    /// Replication-map keys the driver registered for this op.
    pub rep_keys: Vec<(u32, u64)>,
}

/// Five-point latency summary (replaces anonymous `[SimDuration; 4]` arrays).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatSummary {
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile (the 4K-random-write tail under churn).
    pub p999: SimDuration,
}

impl LatSummary {
    /// All-zero summary (no samples).
    pub const ZERO: LatSummary = LatSummary {
        mean: SimDuration::ZERO,
        p50: SimDuration::ZERO,
        p95: SimDuration::ZERO,
        p99: SimDuration::ZERO,
        p999: SimDuration::ZERO,
    };

    /// Builds a summary from raw nanosecond samples (sorts a copy).
    ///
    /// Percentile convention: nearest-rank on `(len-1)·p`, matching the
    /// driver's historical `LatencyRecorder` so values stay comparable
    /// across benchmark generations.
    pub fn from_samples(samples: &[u64]) -> LatSummary {
        if samples.is_empty() {
            return LatSummary::ZERO;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pick = |p: f64| {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            SimDuration::nanos(sorted[idx.min(sorted.len() - 1)])
        };
        let mean = sorted.iter().sum::<u64>() / sorted.len() as u64;
        LatSummary {
            mean: SimDuration::nanos(mean),
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            p999: pick(0.999),
        }
    }

    /// The summary's five fields in fingerprint order.
    pub fn fields(&self) -> [SimDuration; 5] {
        [self.mean, self.p50, self.p95, self.p99, self.p999]
    }
}

/// Aggregated per-component attribution for one measurement window.
#[derive(Clone, Debug, Default)]
pub struct AttributionReport {
    /// Ops folded into this report.
    pub ops: u64,
    /// Per component: latency summary over per-op totals plus the grand
    /// total nanoseconds, indexed by [`Component::idx`].
    pub components: Vec<(Component, LatSummary, u64)>,
    /// Worst ops observed, sorted worst-first.
    pub slow_ops: Vec<SlowOp>,
}

impl AttributionReport {
    /// Share (0..=1) of all attributed nanoseconds in `comp`.
    pub fn share(&self, comp: Component) -> f64 {
        let total: u64 = self.components.iter().map(|(_, _, ns)| ns).sum();
        if total == 0 {
            return 0.0;
        }
        self.components
            .iter()
            .find(|(c, _, _)| *c == comp)
            .map(|(_, _, ns)| *ns as f64 / total as f64)
            .unwrap_or(0.0)
    }
}

/// Collects spans for in-flight ops and folds them on completion.
///
/// Owned by the driver behind an `Option` — a `None` recorder is the
/// "tracing disabled" state and costs one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    ops: HashMap<u64, OpTrace>,
    /// Per-component per-op totals (ns) for completed ops in the window.
    comp_samples: [Vec<u64>; COMPONENTS],
    /// Slow-op ring, kept sorted ascending by (total, id).
    slow: Vec<SlowOp>,
    slow_cap: usize,
    span_cap: usize,
    completed: u64,
}

impl Recorder {
    /// A recorder keeping the `slow_cap` worst ops with full span trees.
    pub fn new(slow_cap: usize) -> Recorder {
        Recorder {
            ops: HashMap::new(),
            comp_samples: Default::default(),
            slow: Vec::with_capacity(slow_cap),
            slow_cap,
            span_cap: 128,
            completed: 0,
        }
    }

    /// Starts (or restarts after a crash-era drop) tracking an op.
    pub fn begin(&mut self, id: TraceId, is_write: bool, now: SimTime) {
        self.ops.entry(id.0).or_insert_with(|| OpTrace {
            is_write,
            issued: now,
            spans: Vec::new(),
            comp_ns: [0; COMPONENTS],
            retries: 0,
            rep_keys: Vec::new(),
        });
    }

    /// True if `id` is currently being tracked.
    pub fn is_open(&self, id: TraceId) -> bool {
        self.ops.contains_key(&id.0)
    }

    /// Records a span for `id` (ignored if the op is unknown). Zero-length
    /// spans still contribute to component totals but are not stored.
    pub fn span(
        &mut self,
        id: TraceId,
        name: &'static str,
        track: Track,
        start: SimTime,
        dur: SimDuration,
        comp: Component,
    ) {
        if let Some(op) = self.ops.get_mut(&id.0) {
            op.comp_ns[comp.idx()] += dur.as_nanos();
            if !dur.is_zero() && op.spans.len() < self.span_cap {
                op.spans.push(Span {
                    name,
                    track,
                    start,
                    dur,
                    comp,
                });
            }
        }
    }

    /// Adds component time without storing a span (fine-grained charges).
    pub fn add(&mut self, id: TraceId, comp: Component, ns: u64) {
        if let Some(op) = self.ops.get_mut(&id.0) {
            op.comp_ns[comp.idx()] += ns;
        }
    }

    /// Counts a retransmission of `id`.
    pub fn retry(&mut self, id: TraceId) {
        if let Some(op) = self.ops.get_mut(&id.0) {
            op.retries += 1;
        }
    }

    /// Remembers a replication-map key the driver registered for `id`, so
    /// [`Recorder::finish`] can hand it back for cleanup.
    pub fn note_rep_key(&mut self, id: TraceId, primary: u32, seq: u64) {
        if let Some(op) = self.ops.get_mut(&id.0) {
            op.rep_keys.push((primary, seq));
        }
    }

    /// Completes `id` at `now`: folds spans into the component histograms,
    /// admits the op into the slow ring if it qualifies, and returns the
    /// fold summary. Returns `None` for unknown ids (e.g. pre-window ops).
    pub fn finish(&mut self, id: TraceId, now: SimTime) -> Option<FinishedOp> {
        let mut op = self.ops.remove(&id.0)?;
        let total = now.saturating_since(op.issued);
        let attributed: u64 = op.comp_ns.iter().sum();
        let other = total.as_nanos().saturating_sub(attributed);
        op.comp_ns[Component::Other.idx()] += other;
        for c in Component::ALL {
            self.comp_samples[c.idx()].push(op.comp_ns[c.idx()]);
        }
        self.completed += 1;
        self.admit_slow(id, &op, total);
        Some(FinishedOp {
            total,
            is_write: op.is_write,
            rep_keys: std::mem::take(&mut op.rep_keys),
        })
    }

    /// Drops an op without folding it (e.g. permanently failed).
    pub fn abandon(&mut self, id: TraceId) -> Option<Vec<(u32, u64)>> {
        self.ops.remove(&id.0).map(|op| op.rep_keys)
    }

    fn admit_slow(&mut self, id: TraceId, op: &OpTrace, total: SimDuration) {
        if self.slow_cap == 0 {
            return;
        }
        let key = (total.as_nanos(), id.0);
        if self.slow.len() >= self.slow_cap {
            let min_key = (self.slow[0].total.as_nanos(), self.slow[0].id.0);
            if key <= min_key {
                return;
            }
            self.slow.remove(0);
        }
        let entry = SlowOp {
            id,
            is_write: op.is_write,
            issued: op.issued,
            total,
            comp_ns: op.comp_ns,
            retries: op.retries,
            spans: op.spans.clone(),
        };
        let pos = self
            .slow
            .partition_point(|s| (s.total.as_nanos(), s.id.0) < key);
        self.slow.insert(pos, entry);
    }

    /// Restarts the measurement window: completed-op aggregates are cleared,
    /// in-flight ops keep accumulating (ops straddling the boundary complete
    /// into the new window, mirroring the latency recorders).
    pub fn reset_window(&mut self) {
        for v in &mut self.comp_samples {
            v.clear();
        }
        self.slow.clear();
        self.completed = 0;
    }

    /// Ops completed in the current window.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Folds the window's aggregates into an [`AttributionReport`]
    /// (slow ops sorted worst-first).
    pub fn report(&self) -> AttributionReport {
        let components = Component::ALL
            .iter()
            .map(|&c| {
                let samples = &self.comp_samples[c.idx()];
                let total: u64 = samples.iter().sum();
                (c, LatSummary::from_samples(samples), total)
            })
            .collect();
        let mut slow: Vec<SlowOp> = self.slow.clone();
        slow.reverse();
        AttributionReport {
            ops: self.completed,
            components,
            slow_ops: slow,
        }
    }
}

/// A windowed time-series: fixed columns, one row per sample instant.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    cols: Vec<String>,
    rows: Vec<(SimTime, Vec<f64>)>,
}

impl TimeSeries {
    /// A series with the given column names.
    pub fn new<S: Into<String>>(cols: Vec<S>) -> TimeSeries {
        TimeSeries {
            cols: cols.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one sample row. `values.len()` must match the column count.
    pub fn push(&mut self, at: SimTime, values: Vec<f64>) {
        assert_eq!(values.len(), self.cols.len(), "time-series row arity");
        self.rows.push((at, values));
    }

    /// Column names.
    pub fn cols(&self) -> &[String] {
        &self.cols
    }

    /// Sampled rows.
    pub fn rows(&self) -> &[(SimTime, Vec<f64>)] {
        &self.rows
    }

    /// Discards all rows (window reset).
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Renders the series as CSV with a leading `t_ms` column.
    /// Deterministic: fixed formatting, insertion order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ms");
        for c in &self.cols {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (at, vals) in &self.rows {
            out.push_str(&format!("{:.3}", at.nanos() as f64 / 1e6));
            for v in vals {
                out.push_str(&format!(",{v:.3}"));
            }
            out.push('\n');
        }
        out
    }
}

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

/// Renders slow-op span trees plus optional telemetry counters as Chrome
/// trace-event JSON (loadable in Perfetto / `chrome://tracing`).
///
/// Layout: pid 1 hosts one track per slow op (worst first); pid 0 hosts one
/// counter track per time-series column. When `shard_of_osd` is given
/// (`shard_of_osd[osd]` = the shard/domain that executed OSD `osd`), pid 2
/// hosts one track per shard listing its OSDs, and every OSD-track span
/// carries a `"shard"` arg. Output is deterministic: ops and spans are
/// emitted in recorder order, counters in column order, shards ascending.
pub fn chrome_trace_json(
    slow: &[SlowOp],
    series: Option<&TimeSeries>,
    shard_of_osd: Option<&[u32]>,
) -> String {
    let mut ev: Vec<String> = Vec::new();
    ev.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"rablock slow ops\"}}"
            .to_string(),
    );
    ev.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"rablock telemetry\"}}"
            .to_string(),
    );
    if let Some(shards) = shard_of_osd {
        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"rablock shards\"}}"
                .to_string(),
        );
        let mut by_shard: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (osd, &shard) in shards.iter().enumerate() {
            by_shard.entry(shard).or_default().push(osd as u32);
        }
        for (shard, osds) in &by_shard {
            let list: Vec<String> = osds.iter().map(|o| format!("osd{o}")).collect();
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{shard},\
                 \"args\":{{\"name\":\"shard {shard}: {}\"}}}}",
                list.join(" "),
            ));
        }
    }
    for (rank, op) in slow.iter().enumerate() {
        let tid = rank + 1;
        let kind = if op.is_write { "write" } else { "read" };
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"#{rank} {kind} c{}op{} {}us\"}}}}",
            op.id.conn(),
            op.id.op(),
            us(op.total.as_nanos()),
        ));
        // A root span covering the whole op, then every recorded child span.
        ev.push(format!(
            "{{\"name\":\"{kind} c{}op{}\",\"cat\":\"op\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"retries\":{}}}}}",
            op.id.conn(),
            op.id.op(),
            us(op.issued.nanos()),
            us(op.total.as_nanos()),
            op.retries,
        ));
        for s in &op.spans {
            let (track_kind, track_id) = match s.track {
                Track::Client(c) => ("client", c),
                Track::Osd(o) => ("osd", o),
            };
            let shard_arg = match (s.track, shard_of_osd) {
                (Track::Osd(o), Some(shards)) => shards
                    .get(o as usize)
                    .map(|s| format!(",\"shard\":{s}"))
                    .unwrap_or_default(),
                _ => String::new(),
            };
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"{track_kind}\":{track_id}{shard_arg}}}}}",
                s.name,
                s.comp.name(),
                us(s.start.nanos()),
                us(s.dur.as_nanos()),
            ));
        }
    }
    if let Some(ts) = series {
        for (at, vals) in ts.rows() {
            for (col, v) in ts.cols().iter().zip(vals) {
                ev.push(format!(
                    "{{\"name\":\"{col}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                     \"tid\":0,\"args\":{{\"value\":{v:.3}}}}}",
                    us(at.nanos()),
                ));
            }
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips() {
        let id = TraceId::from_conn_op(13, 0xABCDEF);
        assert_eq!(id.conn(), 13);
        assert_eq!(id.op(), 0xABCDEF);
    }

    #[test]
    fn finish_folds_components_and_residual() {
        let mut r = Recorder::new(4);
        let id = TraceId::from_conn_op(0, 1);
        r.begin(id, true, SimTime::from_millis(1));
        r.span(
            id,
            "rp.primary",
            Track::Osd(0),
            SimTime::from_millis(1),
            SimDuration::millis(2),
            Component::Service,
        );
        r.add(id, Component::Nvm, 500_000);
        let fin = r.finish(id, SimTime::from_millis(11)).expect("open op");
        assert_eq!(fin.total, SimDuration::millis(10));
        let rep = r.report();
        assert_eq!(rep.ops, 1);
        let by = |c: Component| rep.components[c.idx()].2;
        assert_eq!(by(Component::Service), 2_000_000);
        assert_eq!(by(Component::Nvm), 500_000);
        // Residual: 10ms - 2ms - 0.5ms = 7.5ms in Other.
        assert_eq!(by(Component::Other), 7_500_000);
    }

    #[test]
    fn slow_ring_keeps_worst_n() {
        let mut r = Recorder::new(2);
        for i in 0..5u64 {
            let id = TraceId::from_conn_op(0, i);
            r.begin(id, true, SimTime::from_millis(0));
            r.finish(id, SimTime::from_millis(i + 1)).unwrap();
        }
        let rep = r.report();
        assert_eq!(rep.slow_ops.len(), 2);
        // Worst first: 5ms then 4ms.
        assert_eq!(rep.slow_ops[0].total, SimDuration::millis(5));
        assert_eq!(rep.slow_ops[1].total, SimDuration::millis(4));
    }

    #[test]
    fn dominant_span_is_longest() {
        let mut r = Recorder::new(1);
        let id = TraceId::from_conn_op(1, 7);
        r.begin(id, false, SimTime::from_millis(0));
        r.span(
            id,
            "queue.rp",
            Track::Osd(2),
            SimTime::from_millis(0),
            SimDuration::micros(5),
            Component::Queue,
        );
        r.span(
            id,
            "device",
            Track::Osd(2),
            SimTime::from_millis(0),
            SimDuration::micros(50),
            Component::Device,
        );
        r.finish(id, SimTime::from_millis(1)).unwrap();
        let rep = r.report();
        let dom = rep.slow_ops[0].dominant_span().unwrap();
        assert_eq!(dom.name, "device");
        assert!(matches!(dom.track, Track::Osd(2)));
    }

    #[test]
    fn lat_summary_matches_reference_convention() {
        let samples: Vec<u64> = (1..=1000).collect();
        let s = LatSummary::from_samples(&samples);
        assert_eq!(s.mean.as_nanos(), 500);
        assert_eq!(s.p50.as_nanos(), 501); // round((999)*0.5)=500 → samples[500]
        assert_eq!(s.p99.as_nanos(), 990);
        assert_eq!(s.p999.as_nanos(), 999);
        assert_eq!(LatSummary::from_samples(&[]), LatSummary::ZERO);
    }

    #[test]
    fn chrome_export_is_deterministic_and_parses_shape() {
        let mut r = Recorder::new(2);
        let id = TraceId::from_conn_op(3, 9);
        r.begin(id, true, SimTime::from_millis(2));
        r.span(
            id,
            "net.repop",
            Track::Osd(1),
            SimTime::from_millis(2),
            SimDuration::micros(30),
            Component::Network,
        );
        r.finish(id, SimTime::from_millis(4)).unwrap();
        let mut ts = TimeSeries::new(vec!["iops_w"]);
        ts.push(SimTime::from_millis(1), vec![123.0]);
        // OSDs 0-1 on shard 1, OSD 2 on shard 2.
        let shards = [1u32, 1, 2];
        let a = chrome_trace_json(&r.report().slow_ops, Some(&ts), Some(&shards));
        let b = chrome_trace_json(&r.report().slow_ops, Some(&ts), Some(&shards));
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("net.repop"));
        assert!(a.contains("iops_w"));
        // Shard topology: the span on OSD 1 is tagged with its shard, and
        // the shard process lists its members.
        assert!(a.contains("\"osd\":1,\"shard\":1"));
        assert!(a.contains("rablock shards"));
        assert!(a.contains("shard 1: osd0 osd1"));
        assert!(a.contains("shard 2: osd2"));
        // Balanced braces — cheap well-formedness check without a JSON dep.
        let open = a.matches('{').count();
        let close = a.matches('}').count();
        assert_eq!(open, close);
        // Without a shard map the export stays shard-free.
        let plain = chrome_trace_json(&r.report().slow_ops, Some(&ts), None);
        assert!(!plain.contains("shard"));
    }

    #[test]
    fn timeseries_csv_has_header_and_rows() {
        let mut ts = TimeSeries::new(vec!["a", "b"]);
        ts.push(SimTime::from_millis(1), vec![1.0, 2.5]);
        ts.push(SimTime::from_millis(2), vec![3.0, 4.0]);
        let csv = ts.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_ms,a,b"));
        assert_eq!(lines.next(), Some("1.000,1.000,2.500"));
        assert_eq!(lines.next(), Some("2.000,3.000,4.000"));
    }
}
