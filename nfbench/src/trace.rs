//! Harness-side spans: one record around every call the benchmark makes
//! into a layer's public functions, kept in memory and written as JSONL
//! when the workload ends.
//!
//! A span is `{id, parent, layer, name, job, start_ns, end_ns}`. `layer`
//! is the crate the call enters; `name` reuses the `flow.*` / `sim.*`
//! vocabulary of `neurfill-obs` where the program already has a stage of
//! that name, so in-program spans can replace these later without
//! renaming a metric. The parent is the span open on the same thread when
//! this one started. With tracing off every call is a branch on a bool.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Job id of a span that belongs to no job.
pub const NO_JOB: i64 = -1;

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub job: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn millis(&self) -> f64 {
        self.nanos() as f64 / 1e6
    }

    pub fn seconds(&self) -> f64 {
        self.nanos() as f64 / 1e9
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard<'a> {
    /// The tracer and the span so far (its end is set on drop); `None`
    /// with tracing off.
    open: Option<(&'a Tracer, Span)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` named `name` for `job` ([`NO_JOB`] for none).
    pub fn span(&self, layer: &'static str, name: &'static str, job: i64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        SpanGuard {
            open: Some((self, Span { id, parent, layer, name, job, start_ns, end_ns: start_ns })),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        job: i64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = self.span(layer, name, job);
        f()
    }

    /// The spans finished so far, in order of their end.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span is pushed whole, so a poisoned list is still valid").clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((tracer, mut span)) = self.open.take() else {
            return;
        };
        span.end_ns = tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == span.id) {
                open.truncate(pos);
            }
        });
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_nanos(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut edge = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(edge), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
            }
            (s.id, s.nanos() - covered)
        })
        .collect()
}

/// Name of the span every workload opens around its timed job list. It
/// marks the phase and belongs to no layer's work.
pub const TIMED: &str = "nfbench.timed";

/// Self time per layer in seconds, over the spans that lie inside
/// `[from_ns, to_ns]` (the timed phase). A layer's spans on several
/// threads add up, so the total can exceed the wall clock.
pub fn layer_self_seconds(spans: &[Span], from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, f64> {
    let own = self_nanos(spans);
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name != TIMED && s.start_ns >= from_ns && s.end_ns <= to_ns) {
        *out.entry(s.layer).or_insert(0.0) += own[&s.id] as f64 / 1e9;
    }
    out
}

/// Start and end of the timed phase: the [`TIMED`] span (the whole run
/// when there is none).
pub fn timed_window(spans: &[Span]) -> (u64, u64) {
    spans.iter().find(|s| s.name == TIMED).map_or((0, u64::MAX), |s| (s.start_ns, s.end_ns))
}

/// Writes the spans as JSONL, one object per line.
pub fn write_jsonl(spans: &[Span], mut w: impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.layer, s.name, s.job, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, layer, name: "t", job: NO_JOB, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, None, "core", 0, 100),
            span(1, Some(0), "cmpsim", 10, 40),
            // Overlaps its sibling by 10 ns and outlives the parent by 5.
            span(2, Some(0), "nn", 30, 105),
            span(3, Some(1), "tensor", 15, 20),
        ];
        let own = self_nanos(&spans);
        assert_eq!(own[&0], 100 - (30 + 60));
        assert_eq!(own[&1], 30 - 5);
        assert_eq!(own[&2], 75);
        assert_eq!(own[&3], 5);
    }

    #[test]
    fn layer_totals_keep_to_the_window() {
        let spans = [
            span(0, None, "core", 0, 100),
            span(1, Some(0), "cmpsim", 10, 40),
            span(2, None, "core", 200, 300),
        ];
        let layers = layer_self_seconds(&spans, 0, 150);
        assert_eq!(layers["core"], 70e-9);
        assert_eq!(layers["cmpsim"], 30e-9);
    }

    #[test]
    fn guards_nest_per_thread_and_a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("core", "flow.synthesis_ns", 3);
            tracer.time("nn", "nn.planarity", 3, || ());
            std::thread::scope(|s| {
                s.spawn(|| tracer.time("serve", "serve.submit", 4, || ()));
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "flow.synthesis_ns").unwrap();
        let inner = spans.iter().find(|s| s.name == "nn.planarity").unwrap();
        let other = spans.iter().find(|s| s.name == "serve.submit").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(other.parent, None);
        assert_eq!((outer.job, other.job), (3, 4));

        let off = Tracer::new(false);
        off.time("core", "x", NO_JOB, || ());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(&[span(0, None, "core", 1, 2), span(1, Some(0), "nn", 1, 2)], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0,\"layer\":\"nn\""));
    }
}
