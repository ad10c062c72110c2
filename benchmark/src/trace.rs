//! Spans recorded from outside the program, around calls into each
//! crate's public functions.
//!
//! Spans are kept in memory and written out once, when the workload has
//! finished. A layer's *self time* is its spans' duration minus the
//! part of it their child spans cover, so nested spans never count the
//! same nanosecond twice.

use std::path::Path;
use std::time::Instant;

use serde::Serialize;

/// One closed (or still open) span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Index of the span in the trace.
    pub id: usize,
    /// The span that was open when this one began (`None` for a root).
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `graph.base_trees`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Units of work the span covered (calls, scenarios, requests…).
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`]. `None`
/// inside when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The in-memory span recorder. A disabled tracer records nothing and
/// reads no clock: the same staged pipeline run through one is the
/// untraced side of the tracing-overhead measurement.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer (`enabled`) or a no-op one.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open one, recording
    /// how many units of work it covered.
    pub fn end(&mut self, span: SpanId, count: u64) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
        self.spans[id].count = count;
    }

    /// Runs `f` inside a span covering `count` units of work.
    pub fn span<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id, count);
        out
    }

    /// Self time of every span called `name`: duration minus the
    /// duration of direct children.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns().saturating_sub(child_ns[s.id]))
            .sum()
    }

    /// Self time of `name` in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns(name) as f64 * 1e-6
    }

    /// Units of work covered by every span called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.count).sum()
    }

    /// Self time of `name` per unit of work, in nanoseconds (0 when the
    /// span covered no work or was never opened).
    pub fn self_ns_per_unit(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.self_ns(name) as f64 / n as f64,
        }
    }

    /// Writes the trace of `workload` as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> Result<(), String> {
        assert!(self.open.is_empty(), "trace written with spans still open");
        let file = serde::Value::Object(vec![
            ("workload".to_string(), workload.to_value()),
            ("spans".to_string(), self.spans.to_value()),
        ]);
        let text = serde_json::to_string_pretty(&file).map_err(|e| format!("render trace: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }

    #[cfg(test)]
    fn push_closed(&mut self, name: &'static str, parent: Option<usize>, start: u64, end: u64) {
        let id = self.spans.len();
        self.spans.push(Span { id, parent, name, start_ns: start, end_ns: end, count: 1 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(true);
        t.push_closed("root", None, 0, 100);
        t.push_closed("a", Some(0), 10, 40); // 30, of which 20 is its own child
        t.push_closed("a.inner", Some(1), 15, 35);
        t.push_closed("b", Some(0), 50, 90);
        assert_eq!(t.self_ns("root"), 100 - 30 - 40);
        assert_eq!(t.self_ns("a"), 30 - 20, "grandchildren are charged to their parent only");
        assert_eq!(t.self_ns("a.inner"), 20);
        assert_eq!(t.self_ns("missing"), 0);
        // Self times partition the root exactly.
        let all: u64 = ["root", "a", "a.inner", "b"].iter().map(|n| t.self_ns(n)).sum();
        assert_eq!(all, 100);
    }

    #[test]
    fn same_named_spans_add_up_and_divide_by_their_counts() {
        let mut t = Tracer::new(true);
        t.push_closed("walk", None, 0, 30);
        t.push_closed("walk", None, 40, 50);
        assert_eq!(t.self_ns("walk"), 40);
        assert_eq!(t.count("walk"), 2);
        assert_eq!(t.self_ns_per_unit("walk"), 20.0);
        assert_eq!(t.self_ns_per_unit("missing"), 0.0);
    }

    #[test]
    fn begin_end_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let got = t.span("inner", 3, || 7);
        t.end(outer, 1);
        assert_eq!(got, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.count("inner"), 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("x");
        off.end(id, 1);
        assert_eq!(off.span("y", 1, || 5), 5);
        assert!(off.spans.is_empty());
    }
}
