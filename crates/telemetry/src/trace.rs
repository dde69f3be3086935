//! Per-batch span tracing with Chrome trace-event export.
//!
//! Each stage of a mini-batch's life (sample → extract → transfer →
//! compute → release) is bracketed by an RAII [`SpanGuard`]. Completed
//! spans land in a per-thread buffer (one uncontended mutex each, drained
//! only at export), so the hot path is: one atomic load when tracing is
//! off; a clock read, a clock read, and a thread-local push when it is on.
//!
//! [`export_chrome_trace`] turns the spans into the Chrome trace-event JSON
//! format (`{"traceEvents": [...]}` with `ph: "X"` complete events), which
//! loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing` — a single trace of one epoch visually shows the
//! sync-stall vs. async-overlap distinction the paper's Figs 3/11 argue
//! about. See EXPERIMENTS.md for the capture recipe.

use crate::json::Json;
use crate::registry::origin;
use gnndrive_sync::{LockRank, OrderedMutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One completed stage of one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name: `sample`, `extract`, `transfer`, `compute`, `release`.
    pub stage: &'static str,
    /// Category shown in the viewer (defaults to `pipeline`).
    pub cat: &'static str,
    /// Mini-batch id this span belongs to (`u64::MAX` = not batch-scoped).
    pub batch: u64,
    /// Small dense id of the recording thread (trace-local, not the OS tid).
    pub tid: u64,
    /// Start, nanoseconds since the telemetry origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct TraceGlobal {
    enabled: AtomicBool,
    buffers: OrderedMutex<Vec<Arc<OrderedMutex<Vec<TraceSpan>>>>>,
    next_tid: AtomicU64,
}

static TRACE: TraceGlobal = TraceGlobal {
    enabled: AtomicBool::new(false),
    buffers: OrderedMutex::new(LockRank::Telemetry, Vec::new()),
    next_tid: AtomicU64::new(1),
};

struct TlsBuffer {
    tid: u64,
    spans: Arc<OrderedMutex<Vec<TraceSpan>>>,
}

thread_local! {
    static BUFFER: TlsBuffer = {
        let spans = Arc::new(OrderedMutex::new(LockRank::Telemetry, Vec::new()));
        TRACE.buffers.lock().push(Arc::clone(&spans));
        TlsBuffer {
            tid: TRACE.next_tid.fetch_add(1, Ordering::Relaxed),
            spans,
        }
    };
}

/// Start recording spans (until [`trace_disable`]).
pub fn trace_enable() {
    TRACE.enabled.store(true, Ordering::Relaxed);
}

/// Stop recording. Already-collected spans stay buffered until
/// [`trace_take`].
pub fn trace_disable() {
    TRACE.enabled.store(false, Ordering::Relaxed);
}

pub fn trace_enabled() -> bool {
    TRACE.enabled.load(Ordering::Relaxed)
}

/// Drain every thread's buffered spans, sorted by start time.
pub fn trace_take() -> Vec<TraceSpan> {
    let buffers = TRACE.buffers.lock();
    let mut out = Vec::new();
    for b in buffers.iter() {
        out.append(&mut b.lock());
    }
    drop(buffers);
    out.sort_by_key(|s| (s.start_ns, s.batch));
    out
}

/// RAII recorder for one stage of one batch. The span runs from guard
/// creation to drop; when tracing is disabled the guard is inert.
pub struct SpanGuard {
    active: Option<(&'static str, &'static str, u64, Instant)>,
}

/// Open a span for `stage` of batch `batch` (see [`span_cat`] for
/// non-pipeline categories).
pub fn span(stage: &'static str, batch: u64) -> SpanGuard {
    span_cat(stage, "pipeline", batch)
}

/// Open a span under an explicit category.
pub fn span_cat(stage: &'static str, cat: &'static str, batch: u64) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some((stage, cat, batch, Instant::now())),
    }
}

/// Record a span retroactively (e.g. an epoch-slice verdict band computed
/// after the fact). `started` anchors the span on the same clock the RAII
/// guards use; a no-op while tracing is disabled.
pub fn record_span(
    stage: &'static str,
    cat: &'static str,
    batch: u64,
    started: Instant,
    dur: std::time::Duration,
) {
    if !trace_enabled() {
        return;
    }
    let start_ns = started
        .saturating_duration_since(origin())
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64;
    let dur_ns = dur.as_nanos().min(u128::from(u64::MAX)) as u64;
    BUFFER.with(|b| {
        b.spans.lock().push(TraceSpan {
            stage,
            cat,
            batch,
            tid: b.tid,
            start_ns,
            dur_ns,
        });
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((stage, cat, batch, started)) = self.active.take() else {
            return;
        };
        let dur_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let start_ns = started
            .saturating_duration_since(origin())
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        BUFFER.with(|b| {
            b.spans.lock().push(TraceSpan {
                stage,
                cat,
                batch,
                tid: b.tid,
                start_ns,
                dur_ns,
            });
        });
    }
}

/// Serialize spans as Chrome trace-event JSON (Perfetto-loadable).
///
/// Timestamps are microseconds (`ts`/`dur`), per the format; batch ids ride
/// in `args.batch`.
pub fn export_chrome_trace(spans: &[TraceSpan]) -> String {
    let mut events = Vec::with_capacity(spans.len());
    for s in spans {
        let mut e = Json::obj();
        e.set("name", s.stage.into())
            .set("cat", s.cat.into())
            .set("ph", "X".into())
            .set("ts", Json::Num(s.start_ns as f64 / 1000.0))
            .set("dur", Json::Num(s.dur_ns as f64 / 1000.0))
            .set("pid", 1u64.into())
            .set("tid", s.tid.into());
        if s.batch != u64::MAX {
            let mut args = Json::obj();
            args.set("batch", s.batch.into());
            e.set("args", args);
        }
        events.push(e);
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms".into());
    doc.to_json_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_GATE;
    use std::time::Duration;

    #[test]
    fn spans_record_only_when_enabled() {
        let _l = TEST_GATE.lock();
        let _ = trace_take();
        trace_disable();
        {
            let _s = span("sample", 1);
        }
        assert!(trace_take()
            .iter()
            .all(|s| !(s.stage == "sample" && s.batch == 1)));
        trace_enable();
        {
            let _s = span("sample", 2);
            std::thread::sleep(Duration::from_millis(2));
        }
        trace_disable();
        let spans = trace_take();
        let s = spans
            .iter()
            .find(|s| s.stage == "sample" && s.batch == 2)
            .expect("span recorded");
        assert!(s.dur_ns >= 1_000_000);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let _l = TEST_GATE.lock();
        let _ = trace_take();
        trace_enable();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span("extract", i);
                    std::thread::sleep(Duration::from_millis(1));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        trace_disable();
        let spans = trace_take();
        let tids: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.stage == "extract")
            .map(|s| s.tid)
            .collect();
        assert!(tids.len() >= 3, "expected distinct tids, got {tids:?}");
    }

    #[test]
    fn retroactive_spans_land_in_the_buffer() {
        let _l = TEST_GATE.lock();
        let _ = trace_take();
        trace_disable();
        record_span(
            "balanced",
            "verdict",
            u64::MAX,
            Instant::now(),
            Duration::from_millis(1),
        );
        assert!(trace_take().iter().all(|s| s.cat != "verdict"));
        trace_enable();
        let started = Instant::now();
        record_span(
            "balanced",
            "verdict",
            u64::MAX,
            started,
            Duration::from_millis(7),
        );
        trace_disable();
        let spans = trace_take();
        let s = spans
            .iter()
            .find(|s| s.cat == "verdict")
            .expect("verdict span recorded");
        assert_eq!(s.stage, "balanced");
        assert_eq!(s.dur_ns, 7_000_000);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let spans = vec![
            TraceSpan {
                stage: "extract",
                cat: "pipeline",
                batch: 4,
                tid: 2,
                start_ns: 1_500,
                dur_ns: 2_000,
            },
            TraceSpan {
                stage: "compute",
                cat: "pipeline",
                batch: u64::MAX,
                tid: 1,
                start_ns: 4_000,
                dur_ns: 1_000,
            },
        ];
        let text = export_chrome_trace(&spans);
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("extract"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("batch")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        assert!(events[1].get("args").is_none());
    }
}
