//! Spans the benchmark records around its own calls into each layer.
//!
//! The pass loop and the layer rounds are generic over [`Recorder`].  The
//! timed run instantiates them with [`NoTrace`], whose methods are empty, so
//! it contains no span recording at all; the traced run uses [`SpanLog`],
//! which keeps spans in memory and writes them out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; `ROOT` is "no parent".
pub type SpanId = u32;

/// Parent of a top-level span.
pub const ROOT: SpanId = 0;

/// Where the benchmark reports the calls it makes.
pub trait Recorder {
    /// Open a span that encloses later ones; close it with [`Recorder::close`].
    fn open(&mut self, name: &'static str, parent: SpanId, start: Instant) -> SpanId;

    /// Close a span opened with [`Recorder::open`].
    fn close(&mut self, id: SpanId, end: Instant);

    /// Record a finished span.
    fn span(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        let id = self.open(name, parent, start);
        self.close(id, end);
    }
}

/// The recorder of the timed run: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Recorder for NoTrace {
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: SpanId, _: Instant) -> SpanId {
        ROOT
    }

    #[inline(always)]
    fn close(&mut self, _: SpanId, _: Instant) {}
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Most spans one run keeps; later ones are counted, not stored.
const SPAN_CAPACITY: usize = 1 << 19;

/// Most spans written out one by one; the per-name summary covers them all.
const SPANS_WRITTEN: usize = 50_000;

/// In-memory span store of the traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// An empty log with its whole capacity allocated up front, so that
    /// recording never allocates inside a measured region.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
        }
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// How many more spans fit.
    pub fn remaining(&self) -> usize {
        SPAN_CAPACITY - self.spans.len()
    }

    /// Per span name: how many, their summed duration, and their summed self
    /// time (duration minus the part covered by child spans).
    fn summary(&self) -> BTreeMap<&'static str, (u64, u64, i64)> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as i64)
            .collect();
        for span in &self.spans {
            if span.parent != ROOT {
                self_ns[span.parent as usize - 1] -=
                    span.end_ns.saturating_sub(span.start_ns) as i64;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, i64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end_ns.saturating_sub(span.start_ns);
            entry.2 += own;
        }
        by_name
    }

    /// The log as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(96 * self.spans.len().min(SPANS_WRITTEN) + 4096);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans_dropped\":{},\"summary\":{{",
            self.spans.len(),
            self.dropped
        );
        for (i, (name, (count, total, own))) in self.summary().into_iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out.push_str("},\"spans\":[");
        for (i, span) in self.spans.iter().take(SPANS_WRITTEN).enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                span.name,
                span.parent,
                span.start_ns,
                span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Recorder for SpanLog {
    fn open(&mut self, name: &'static str, parent: SpanId, start: Instant) -> SpanId {
        if self.spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        let start_ns = self.since_origin(start);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as SpanId
    }

    fn close(&mut self, id: SpanId, end: Instant) {
        if id != ROOT {
            self.spans[id as usize - 1].end_ns = self.since_origin(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut log = SpanLog::new();
        let t0 = log.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let slice = log.open("slice", ROOT, at(0));
        log.span("batch", slice, at(10), at(40));
        log.span("batch", slice, at(50), at(70));
        log.close(slice, at(100));
        let summary = log.summary();
        assert_eq!(summary["slice"], (1, 100_000, 50_000));
        assert_eq!(summary["batch"], (2, 50_000, 50_000));
        let json = log.to_json("w", 7);
        let parsed = serde_json::parse_value(&json).expect("trace is valid JSON");
        assert!(parsed.as_map().is_some());
    }

    #[test]
    fn no_trace_records_nothing() {
        let mut none = NoTrace;
        let now = Instant::now();
        assert_eq!(none.open("x", ROOT, now), ROOT);
        none.close(ROOT, now);
    }
}
