//! The telemetry handle: a cheaply-cloneable registry of counters, gauges
//! and histograms plus a capped event log and hierarchical span timing.
//!
//! [`Telemetry::disabled`] is the default everywhere: every operation on
//! it is a branch on a `None` and nothing else — no clock reads, no
//! allocation, no atomics — so instrumented hot paths behave
//! byte-identically to uninstrumented ones. An enabled handle
//! ([`Telemetry::new`], or [`Telemetry::with_clock`] for tests) records
//! into pre-registered atomic cells; the only allocating operations are
//! first-time metric registration and event recording.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Counter, Event, Gauge, Histogram, HistogramCore, MetricsSnapshot};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default cap on recorded events; excess events increment
/// `events_dropped` instead of growing memory without bound.
pub const DEFAULT_MAX_EVENTS: usize = 65_536;

thread_local! {
    /// The active span-name stack of this thread (for event paths).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct Inner {
    clock: Arc<dyn Clock>,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<String, Arc<HistogramCore>>>,
    events: Mutex<Vec<Event>>,
    max_events: usize,
    events_dropped: AtomicU64,
}

/// Recovers the data from a poisoned mutex: telemetry must keep working
/// (and never panic) even if a panicking thread died mid-registration.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The telemetry handle (see the module docs). Clones share all state.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled registry on the production monotonic clock.
    #[must_use]
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// An enabled registry on a caller-supplied clock (tests inject a
    /// [`crate::FakeClock`] here).
    #[must_use]
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                counters: Mutex::new(HashMap::new()),
                gauges: Mutex::new(HashMap::new()),
                histograms: Mutex::new(HashMap::new()),
                events: Mutex::new(Vec::new()),
                max_events: DEFAULT_MAX_EVENTS,
                events_dropped: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op handle: ignores everything, allocates nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This handle if enabled, else a fresh private enabled registry —
    /// for components (like the runtime pool) whose own counters must
    /// always count even when the caller did not ask for telemetry.
    #[must_use]
    pub fn or_enabled(&self) -> Self {
        if self.is_enabled() {
            self.clone()
        } else {
            Self::new()
        }
    }

    /// The clock's current reading, or 0 when disabled.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Gets or registers a counter. Registration allocates once per name;
    /// the returned handle is a bare atomic afterwards.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else { return Counter::noop() };
        let mut map = lock(&inner.counters);
        if let Some(cell) = map.get(name) {
            return Counter(Some(Arc::clone(cell)));
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Arc::clone(&cell));
        Counter(Some(cell))
    }

    /// Gets or registers a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else { return Gauge::noop() };
        let mut map = lock(&inner.gauges);
        if let Some(cell) = map.get(name) {
            return Gauge(Some(Arc::clone(cell)));
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Arc::clone(&cell));
        Gauge(Some(cell))
    }

    /// Gets or registers a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else { return Histogram::noop() };
        let mut map = lock(&inner.histograms);
        if let Some(core) = map.get(name) {
            return Histogram(Some(Arc::clone(core)));
        }
        let core = Arc::new(HistogramCore::default());
        map.insert(name.to_string(), Arc::clone(&core));
        Histogram(Some(core))
    }

    /// Convenience: `counter(name).add(n)`.
    pub fn add(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// Convenience: `counter(name).inc()`.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Convenience: `histogram(name).record(v)`.
    pub fn record(&self, name: &str, v: u64) {
        if self.inner.is_some() {
            self.histogram(name).record(v);
        }
    }

    /// A histogram-only timing guard: on drop, the elapsed clock time is
    /// recorded into `histogram(name)`. No event, no span stack — this is
    /// the per-iteration primitive for tight loops. When disabled the
    /// guard is fully inert (no clock read).
    pub fn time(&self, name: &'static str) -> Timer {
        match &self.inner {
            Some(inner) => {
                Timer { state: Some((self.clone(), name, inner.clock.now_ns())), span: false }
            }
            None => Timer { state: None, span: false },
        }
    }

    /// A hierarchical span guard: like [`Telemetry::time`], but the span
    /// name also joins the thread's span path and span completion is
    /// recorded as a `"span"` event (capped). Guards must drop in LIFO
    /// order (natural RAII nesting).
    pub fn span(&self, name: &'static str) -> Timer {
        match &self.inner {
            Some(inner) => {
                SPAN_STACK.with(|s| s.borrow_mut().push(name));
                Timer { state: Some((self.clone(), name, inner.clock.now_ns())), span: true }
            }
            None => Timer { state: None, span: false },
        }
    }

    /// Records a non-span event (e.g. a degradation-ladder transition).
    /// Ignored when disabled; counted as dropped once the event cap is
    /// reached.
    pub fn event(&self, kind: &'static str, name: &str, fields: &[(&'static str, String)]) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            kind: kind.to_string(),
            name: name.to_string(),
            path: current_path(),
            t_ns: inner.clock.now_ns(),
            dur_ns: None,
            fields: fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
        };
        push_event(inner, event);
    }

    /// A copy of every metric and event recorded so far. Disabled handles
    /// return the empty snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else { return MetricsSnapshot::default() };
        let mut snap = MetricsSnapshot::default();
        for (name, cell) in lock(&inner.counters).iter() {
            snap.counters.insert(name.clone(), cell.load(Ordering::Relaxed));
        }
        for (name, cell) in lock(&inner.gauges).iter() {
            snap.gauges.insert(name.clone(), f64::from_bits(cell.load(Ordering::Relaxed)));
        }
        for (name, core) in lock(&inner.histograms).iter() {
            snap.histograms.insert(name.clone(), core.snapshot());
        }
        snap.events = lock(&inner.events).clone();
        snap.events_dropped = inner.events_dropped.load(Ordering::Relaxed);
        snap
    }
}

/// A name-prefixing view over a [`Telemetry`] handle.
///
/// Every metric obtained through a scope is registered under
/// `<prefix>.<name>` in the underlying registry, so per-entity metric
/// families (e.g. per-tenant SLO histograms in `neurfill-serve`:
/// `serve.tenant.<t>.queue_wait_ns`) share one registry and one snapshot
/// without every call site re-assembling the prefix. Scopes are as cheap
/// as the handle they wrap: on a disabled handle every operation is still
/// a no-op and the prefix is never formatted into a registration.
#[derive(Debug, Clone)]
pub struct Scope {
    telemetry: Telemetry,
    prefix: String,
}

impl Scope {
    fn full(&self, name: &str) -> String {
        let mut full = String::with_capacity(self.prefix.len() + 1 + name.len());
        full.push_str(&self.prefix);
        full.push('.');
        full.push_str(name);
        full
    }

    /// The prefix applied to every metric name.
    #[must_use]
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Whether the underlying handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// A nested scope: `<prefix>.<sub>`.
    #[must_use]
    pub fn scoped(&self, sub: &str) -> Scope {
        Scope { telemetry: self.telemetry.clone(), prefix: self.full(sub) }
    }

    /// Gets or registers `<prefix>.<name>` as a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        if !self.telemetry.is_enabled() {
            return Counter::noop();
        }
        self.telemetry.counter(&self.full(name))
    }

    /// Gets or registers `<prefix>.<name>` as a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.telemetry.is_enabled() {
            return Gauge::noop();
        }
        self.telemetry.gauge(&self.full(name))
    }

    /// Gets or registers `<prefix>.<name>` as a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.telemetry.is_enabled() {
            return Histogram::noop();
        }
        self.telemetry.histogram(&self.full(name))
    }

    /// Convenience: `counter(name).inc()`.
    pub fn inc(&self, name: &str) {
        if self.telemetry.is_enabled() {
            self.counter(name).inc();
        }
    }

    /// Convenience: `histogram(name).record(v)`.
    pub fn record(&self, name: &str, v: u64) {
        if self.telemetry.is_enabled() {
            self.histogram(name).record(v);
        }
    }
}

impl Telemetry {
    /// A [`Scope`] registering every metric under `<prefix>.<name>`.
    #[must_use]
    pub fn scoped(&self, prefix: impl Into<String>) -> Scope {
        Scope { telemetry: self.clone(), prefix: prefix.into() }
    }
}

fn current_path() -> String {
    SPAN_STACK.with(|s| s.borrow().join("/"))
}

fn push_event(inner: &Inner, event: Event) {
    let mut events = lock(&inner.events);
    if events.len() >= inner.max_events {
        inner.events_dropped.fetch_add(1, Ordering::Relaxed);
    } else {
        events.push(event);
    }
}

/// RAII timing guard returned by [`Telemetry::time`] / [`Telemetry::span`].
#[derive(Debug)]
#[must_use = "a timer records on drop; binding it to _ drops it immediately"]
pub struct Timer {
    state: Option<(Telemetry, &'static str, u64)>,
    span: bool,
}

impl Drop for Timer {
    fn drop(&mut self) {
        let Some((telemetry, name, start)) = self.state.take() else { return };
        let Some(inner) = &telemetry.inner else { return };
        let end = inner.clock.now_ns();
        let dur = end.saturating_sub(start);
        telemetry.histogram(name).record(dur);
        if self.span {
            let path = current_path();
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            push_event(
                inner,
                Event {
                    kind: "span".to_string(),
                    name: name.to_string(),
                    path,
                    t_ns: start,
                    dur_ns: Some(dur),
                    fields: Vec::new(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        t.inc("a");
        t.record("h", 5);
        t.event("fault", "retry", &[]);
        {
            let _guard = t.span("phase");
        }
        assert!(!t.is_enabled());
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn fake_clock_spans_nest_and_time_exactly() {
        let clock = Arc::new(FakeClock::at(0));
        let t = Telemetry::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        {
            let _outer = t.span("outer");
            clock.advance(10);
            {
                let _inner = t.span("inner");
                clock.advance(5);
            }
            clock.advance(1);
        }
        let snap = t.snapshot();
        let outer = snap.histogram("outer").expect("outer recorded");
        let inner = snap.histogram("inner").expect("inner recorded");
        assert_eq!(outer.sum, 16);
        assert_eq!(inner.sum, 5);
        let spans = snap.events_of_kind("span");
        assert_eq!(spans.len(), 2);
        // Inner drops (and records) first; its path includes the parent.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].path, "outer/inner");
        assert_eq!(spans[0].dur_ns, Some(5));
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].path, "outer");
        assert_eq!(spans[1].t_ns, 0);
        assert_eq!(spans[1].dur_ns, Some(16));
    }

    #[test]
    fn counters_shared_across_clones() {
        let t = Telemetry::new();
        let c = t.counter("jobs");
        c.add(2);
        t.clone().counter("jobs").inc();
        assert_eq!(t.snapshot().counter("jobs"), 3);
    }

    #[test]
    fn or_enabled_keeps_an_enabled_handle() {
        let t = Telemetry::new();
        t.inc("x");
        let same = t.or_enabled();
        same.inc("x");
        assert_eq!(t.snapshot().counter("x"), 2);
        let fresh = Telemetry::disabled().or_enabled();
        assert!(fresh.is_enabled());
        assert_eq!(fresh.snapshot().counter("x"), 0);
    }

    #[test]
    fn scoped_handles_prefix_names_and_nest() {
        let t = Telemetry::new();
        let tenant = t.scoped("serve.tenant").scoped("acme");
        tenant.inc("admitted");
        tenant.counter("admitted").add(2);
        tenant.record("queue_wait_ns", 40);
        tenant.gauge("depth").set(3.0);
        let snap = t.snapshot();
        assert_eq!(snap.counter("serve.tenant.acme.admitted"), 3);
        assert_eq!(snap.histogram("serve.tenant.acme.queue_wait_ns").map(|h| h.count), Some(1));
        assert_eq!(tenant.prefix(), "serve.tenant.acme");
        // A disabled handle's scope is inert.
        let off = Telemetry::disabled().scoped("x");
        assert!(!off.is_enabled());
        off.inc("y");
        off.record("z", 1);
        assert_eq!(Telemetry::disabled().snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn event_cap_counts_drops() {
        let clock = Arc::new(FakeClock::at(0));
        let t = Telemetry::with_clock(clock as Arc<dyn Clock>);
        // Shrink the cap by filling through the public API would take
        // 65k events; instead verify the accounting fields line up.
        for i in 0..10 {
            t.event("fault", "retry", &[("attempt", i.to_string())]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 10);
        assert_eq!(snap.events_dropped, 0);
        assert_eq!(snap.events[3].fields[0].1, "3");
    }
}
