//! Harness-side spans: the benchmark brackets every call it makes into a
//! library layer, keeps the spans in memory, and dumps them as Chrome
//! trace-event JSON when the run ends. A span names the span that caused
//! it (`parent`) and the batch or request it belongs to (`key`).
//!
//! A layer's *self time* is its span minus the part of that interval its
//! child spans cover.

use gnndrive::telemetry::{Json, TraceSpan};
use std::time::Instant;

/// `key` of a span that belongs to no particular batch or request.
pub const NO_KEY: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Layer (crate) the call went into: `graph`, `core`, `serve`, …
    pub layer: &'static str,
    pub key: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder (the harness thread owns it; spans
/// observed on other threads are added after the fact with [`SpanLog::add`]).
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A log on the same clock as another one (for a second thread whose
    /// spans are merged into the first log afterwards).
    pub fn with_origin(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span that is a child of the innermost open span.
    pub fn scoped<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        key: u64,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.ns_since_origin(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            key,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns_since_origin(Instant::now());
        out
    }

    /// Record a finished span measured elsewhere; returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        layer: &'static str,
        key: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            key,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span duration minus the union of its direct children's intervals
    /// (clipped to the span).
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        s.dur_ns() - covered
    }

    /// Chrome trace-event document of the harness spans (`pid` 1, one
    /// `tid` per layer) plus the library's own per-batch spans (`pid` 2),
    /// shifted onto the harness clock by `lib_offset_ns`.
    pub fn to_chrome_trace(&self, lib_spans: &[TraceSpan], lib_offset_ns: i64) -> String {
        let mut layers: Vec<&str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut events = Vec::with_capacity(self.spans.len() + lib_spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let tid = layers.iter().position(|l| *l == s.layer).unwrap_or(0) as u64 + 1;
            let mut args = Json::obj();
            args.set("id", (id as u64).into());
            if let Some(p) = s.parent {
                args.set("parent", (p as u64).into());
            }
            if s.key != NO_KEY {
                args.set("key", s.key.into());
            }
            let mut e = Json::obj();
            e.set("name", s.name.into())
                .set("cat", s.layer.into())
                .set("ph", "X".into())
                .set("ts", Json::Num(s.start_ns as f64 / 1000.0))
                .set("dur", Json::Num(s.dur_ns() as f64 / 1000.0))
                .set("pid", 1u64.into())
                .set("tid", tid.into())
                .set("args", args);
            events.push(e);
        }
        for s in lib_spans {
            let mut e = Json::obj();
            let mut args = Json::obj();
            if s.batch != NO_KEY {
                args.set("key", s.batch.into());
            }
            e.set("name", s.stage.into())
                .set("cat", s.cat.into())
                .set("ph", "X".into())
                .set(
                    "ts",
                    Json::Num((s.start_ns as i64 + lib_offset_ns).max(0) as f64 / 1000.0),
                )
                .set("dur", Json::Num(s.dur_ns as f64 / 1000.0))
                .set("pid", 2u64.into())
                .set("tid", s.tid.into())
                .set("args", args);
            events.push(e);
        }
        let mut doc = Json::obj();
        doc.set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms".into());
        doc.to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.add("extract", "core", 3, None, 100, 1100);
        // Two overlapping children, one child sticking out past the parent,
        // and a grandchild that must not be subtracted twice.
        let a = log.add("ring", "storage", 3, Some(root), 200, 500);
        log.add("crc", "storage", 3, Some(root), 400, 700);
        log.add("late", "storage", 3, Some(root), 1000, 1300);
        log.add("inner", "storage", 3, Some(a), 250, 300);
        // Covered: [200,700) = 500 and [1000,1100) = 100.
        assert_eq!(log.self_ns(root), 1000 - 600);
        assert_eq!(log.self_ns(a), 300 - 50);
    }

    #[test]
    fn scoped_spans_nest_under_the_open_span() {
        let mut log = SpanLog::new();
        log.scoped("outer", "core", 1, |log| {
            log.scoped("inner", "storage", 1, |_| {});
            log.scoped("inner", "storage", 1, |_| {});
        });
        log.scoped("sibling", "nn", NO_KEY, |_| {});
        let s = log.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parents_and_keys() {
        let mut log = SpanLog::new();
        let root = log.add("request", "serve", 9, None, 0, 5_000);
        log.add("queue", "serve", 9, Some(root), 0, 2_000);
        let lib = [TraceSpan {
            stage: "extract",
            cat: "pipeline",
            batch: 4,
            tid: 2,
            start_ns: 10_000,
            dur_ns: 1_000,
        }];
        let doc = Json::parse(&log.to_chrome_trace(&lib, -9_000)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 3);
        let child = &events[1];
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("key"))
                .and_then(Json::as_u64),
            Some(9)
        );
        // Library span shifted onto the harness clock: (10000 - 9000) ns = 1 µs.
        assert_eq!(events[2].get("ts").and_then(Json::as_f64), Some(1.0));
    }
}
