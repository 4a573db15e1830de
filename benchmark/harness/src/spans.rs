//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer (nothing inside the product crates is instrumented).  A span
//! is `(name, start, end, parent)`; all spans of one run share the
//! workload id.  They stay in memory and are written out once, at exit.
//! The end-to-end run keeps the recorder disabled: a disabled recorder
//! reads no clock and stores nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept per name; beyond it only the aggregate grows, so a 40 000
/// tick run does not write a 40 000 line trace.
const RAW_SPANS_PER_NAME: usize = 500;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary, e.g. `gen.publish` or `matcher.match`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Id of the span that caused this one (0 = none).
    pub parent: u32,
    /// This span's id (1-based).
    pub id: u32,
}

/// Aggregate over every span of one name, including those not kept raw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, SpanTotals>,
    next_id: u32,
}

impl Spans {
    /// A recorder that records nothing (end-to-end runs).
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// A recording recorder (traced runs).
    pub fn enabled() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span: the start stamp to hand back to [`Spans::end`].
    #[inline]
    pub fn start(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Closes a span opened with [`Spans::start`]; returns its id so child
    /// spans can name it as their parent (0 when disabled).
    #[inline]
    pub fn end(&mut self, name: &'static str, start_ns: u64, parent: u32) -> u32 {
        let id = self.reserve();
        self.end_with_id(name, start_ns, parent, id);
        id
    }

    /// Reserves a span id before the span's children run, for parents that
    /// close after them; pass it to [`Spans::end_with_id`].
    pub fn reserve(&mut self) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span timed elsewhere (another thread) after the fact.
    pub fn record(&mut self, name: &'static str, started: Instant, ended: Instant, parent: u32) {
        if !self.enabled {
            return;
        }
        let epoch = self.epoch;
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        let id = self.reserve();
        self.push(name, ns(started), ns(ended), parent, id);
    }

    /// Closes a span whose id was taken with [`Spans::reserve`].
    pub fn end_with_id(&mut self, name: &'static str, start_ns: u64, parent: u32, id: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.push(name, start_ns, end_ns, parent, id);
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32, id: u32) {
        let totals = self.totals.entry(name).or_default();
        totals.count += 1;
        totals.total_ns += end_ns - start_ns;
        if totals.count as usize <= RAW_SPANS_PER_NAME {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                id,
            });
        }
    }

    /// The aggregate of one span name.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The raw spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the trace file: the workload id, per-name aggregates and the
    /// raw spans.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"totals\": {{"
        );
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}}}",
                t.count, t.total_ns
            );
        }
        s.push_str("}, \"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "" };
            let _ = write!(
                s,
                "{sep}{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"workload\": \"{workload}\"}}",
                span.id, span.name, span.start_ns, span.end_ns, span.parent
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut spans = Spans::disabled();
        let t = spans.start();
        assert_eq!(spans.end("x", t, 0), 0);
        assert!(spans.spans().is_empty());
        assert_eq!(spans.totals("x").count, 0);
    }

    #[test]
    fn spans_nest_through_parent_ids() {
        let mut spans = Spans::enabled();
        let outer = spans.reserve();
        let t_outer = spans.start();
        let t = spans.start();
        let child = spans.end("child", t, outer);
        spans.end_with_id("outer", t_outer, 0, outer);
        assert_eq!(spans.spans().len(), 2);
        assert_eq!(spans.spans()[0].parent, outer);
        assert_ne!(child, outer);
        let json = spans.to_json("w", 1);
        assert!(json.contains("\"name\": \"child\""));
        assert!(json.contains("\"workload\": \"w\""));
    }

    #[test]
    fn raw_spans_are_capped_but_totals_are_not() {
        let mut spans = Spans::enabled();
        for _ in 0..RAW_SPANS_PER_NAME + 10 {
            let t = spans.start();
            spans.end("tick", t, 0);
        }
        assert_eq!(spans.spans().len(), RAW_SPANS_PER_NAME);
        assert_eq!(spans.totals("tick").count as usize, RAW_SPANS_PER_NAME + 10);
    }
}
