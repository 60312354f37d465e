//! In-memory span recorder for the benchmark's own calls into each layer.
//!
//! Every span is folded into a per-name aggregate (calls, total host ns),
//! which is what the per-layer metrics are computed from. The span records
//! themselves are kept for phases and for the first [`KEEP_PER_NAME`] calls
//! of each name, and written out as Chrome trace-event JSON (loadable in
//! Perfetto) when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span records kept per name; later calls only feed the aggregate.
const KEEP_PER_NAME: u64 = 256;

/// Index of a kept span (a parent reference).
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder.
pub struct Spans {
    t0: Instant,
    kept: Vec<Span>,
    agg: BTreeMap<&'static str, (u64, u64)>,
}

impl Spans {
    /// An empty recorder; span times are relative to now.
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            kept: Vec::new(),
            agg: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a phase span (always kept); close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.kept.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.kept.len() - 1
    }

    /// Closes a phase span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let span = &mut self.kept[id];
        span.end_ns = end;
        let dur = end - span.start_ns;
        let a = self.agg.entry(span.name).or_default();
        a.0 += 1;
        a.1 += dur;
        dur as f64 / 1e9
    }

    /// Records a span another process measured, `offset_s` after the
    /// start of `parent` (the span around that process).
    pub fn inside(&mut self, parent: SpanId, name: &'static str, offset_s: f64, dur_s: f64) {
        let start_ns = self.kept[parent].start_ns + (offset_s * 1e9) as u64;
        let dur_ns = (dur_s * 1e9) as u64;
        let a = self.agg.entry(name).or_default();
        a.0 += 1;
        a.1 += dur_ns;
        self.kept.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Times one call into a layer.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let a = self.agg.entry(name).or_default();
        a.0 += 1;
        a.1 += end_ns - start_ns;
        if a.0 <= KEEP_PER_NAME {
            self.kept.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
        out
    }

    /// `(calls, total ns)` recorded under `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.agg.get(name).copied().unwrap_or((0, 0))
    }

    /// Mean host nanoseconds per call of `name` (0 when never called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (calls, ns) = self.total(name);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// Chrome trace-event JSON of the kept spans plus every aggregate.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n],\"aggregates\":{");
        for (i, (name, (calls, ns))) in self.agg.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"calls\":{calls},\"total_ns\":{ns}}}",
                if i == 0 { "" } else { "," },
            );
        }
        out.push_str("}}\n");
        out
    }
}
