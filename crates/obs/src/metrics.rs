//! Metric primitives: counters, gauges and fixed-bucket histograms, plus
//! their mergeable point-in-time snapshots.
//!
//! All hot-path operations are single atomic instructions on
//! pre-registered cells; registration (the only allocating step) happens
//! once per metric name. Histograms use 65 fixed power-of-two buckets, so
//! two snapshots merge by element-wise addition — merging is associative
//! and commutative, which lets per-worker or per-run snapshots be combined
//! in any order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: bucket `0` holds zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const NUM_BUCKETS: usize = 65;

/// A monotone counter handle. Cloning shares the underlying cell; the
/// disabled handle ([`Counter::noop`]) ignores every operation.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores every operation and always reads zero.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds a duration in whole nanoseconds.
    pub fn add_duration(&self, d: std::time::Duration) {
        self.add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The current value (zero for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a last-write-wins `f64` cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that ignores every operation and always reads zero.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value (zero for a no-op handle).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// Shared storage of one histogram: per-bucket counts plus sum/count and
/// running min/max.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: [(); NUM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: `0` for zero, else `64 - leading_zeros`.
#[must_use]
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl HistogramCore {
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, cell) in buckets.iter_mut().zip(&self.buckets) {
            *slot = cell.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A histogram handle recording `u64` values (typically nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that ignores every operation.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Records a duration in whole nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// A point-in-time copy of one histogram, mergeable with others.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`NUM_BUCKETS`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Element-wise merge: counts add, min/max combine. Associative and
    /// commutative.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        if other.count > 0 {
            self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), linearly interpolated
    /// within the containing power-of-two bucket and clamped to the
    /// observed `[min, max]`. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based target rank.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                let within = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + within * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

/// Inclusive-exclusive value bounds of bucket `i`.
#[must_use]
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), 1u64 << i)
    }
}

/// One recorded telemetry event (a span completion or a named incident
/// such as a golden-simulator degradation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event class: `"span"` for span completions, callers' own kinds
    /// (e.g. `"fault"`) otherwise.
    pub kind: String,
    /// Event name (the span name, or an incident name like
    /// `"golden_degraded"`).
    pub name: String,
    /// Slash-joined span path at the time of the event (`""` outside any
    /// span).
    pub path: String,
    /// Clock timestamp (ns) when the event fired (span *start* for spans).
    pub t_ns: u64,
    /// Span duration; `None` for non-span events.
    pub dur_ns: Option<u64>,
    /// Free-form key/value payload.
    pub fields: Vec<(String, String)>,
}

/// A mergeable point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Recorded events, in recording order (capped; see `events_dropped`).
    pub events: Vec<Event>,
    /// Events discarded once the cap was reached — never silently zero.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters and histograms add, gauges
    /// take `other`'s value where present, events concatenate.
    /// Associative, so per-worker or per-phase snapshots can be combined
    /// in any grouping.
    pub fn merge(&mut self, other: &Self) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        self.events.extend(other.events.iter().cloned());
        self.events_dropped += other.events_dropped;
    }

    /// A counter's value, defaulting to zero.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram snapshot by name, if recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Events of one kind, in recording order.
    #[must_use]
    pub fn events_of_kind(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// A human-readable summary: counters, gauges, then a latency table
    /// (count / mean / p50 / p95 / p99 / max) for every histogram.
    /// Histogram values whose metric name ends in `_ns` are formatted as
    /// durations.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            let width = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            let width = self.gauges.keys().map(String::len).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        if !self.histograms.is_empty() {
            let width = self.histograms.keys().map(String::len).max().unwrap_or(0).max(4);
            let _ = writeln!(
                out,
                "histograms:\n  {:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let ns = name.ends_with("_ns");
                let fmt = |v: f64| if ns { format_ns(v) } else { format!("{v:.0}") };
                let _ = writeln!(
                    out,
                    "  {name:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                    h.count,
                    fmt(h.mean()),
                    fmt(h.quantile(0.50) as f64),
                    fmt(h.quantile(0.95) as f64),
                    fmt(h.quantile(0.99) as f64),
                    fmt(h.max as f64),
                );
            }
        }
        if self.events_dropped > 0 {
            let _ =
                writeln!(out, "events: {} recorded, {} dropped", self.events.len(), self.events_dropped);
        }
        out
    }
}

/// Formats a nanosecond quantity adaptively (`ns`, `us`, `ms`, `s`).
#[must_use]
pub fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.3}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(v >= lo && (v < hi || (i == 64 && v <= hi)), "v={v} i={i} [{lo},{hi})");
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let core = HistogramCore::default();
        for v in 1..=1000u64 {
            core.record(v);
        }
        let h = core.snapshot();
        assert_eq!(h.count, 1000);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        let p50 = h.quantile(0.5);
        // Power-of-two buckets: the estimate is coarse but must stay in
        // the right bucket neighborhood.
        assert!((256..=1000).contains(&p50), "p50 {p50}");
        assert!(h.quantile(0.99) >= p50);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_is_commutative_on_histograms() {
        let a_core = HistogramCore::default();
        let b_core = HistogramCore::default();
        for v in [5u64, 100, 3] {
            a_core.record(v);
        }
        for v in [70u64, 2] {
            b_core.record(v);
        }
        let (a, b) = (a_core.snapshot(), b_core.snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.min, 2);
        assert_eq!(ab.max, 100);
    }

    #[test]
    fn noop_handles_read_zero() {
        let c = Counter::noop();
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(1.5);
        assert_eq!(g.get(), 0.0);
        Histogram::noop().record(9); // must not panic
    }

    #[test]
    fn summary_formats_durations() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("runtime.jobs_completed".into(), 3);
        let core = HistogramCore::default();
        core.record(2_500_000);
        snap.histograms.insert("job.total_ns".into(), core.snapshot());
        let text = snap.summary();
        assert!(text.contains("runtime.jobs_completed"));
        assert!(text.contains("job.total_ns"));
        assert!(text.contains("ms"), "{text}");
    }
}
