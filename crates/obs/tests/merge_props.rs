//! Property tests of snapshot merging: associativity, commutativity and
//! agreement with recording everything into a single registry, plus the
//! JSONL writer's one line per record of randomized snapshots.

use neurfill_obs::{FakeClock, MetricsSnapshot, Telemetry};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a snapshot from value streams: each stream records into one of
/// three counters and one of two histograms, keyed by the value itself so
/// the shape varies with the random input.
fn record(values: &[u64]) -> MetricsSnapshot {
    let t = Telemetry::with_clock(Arc::new(FakeClock::at(0)));
    for &v in values {
        t.add(["a", "b", "c"][(v % 3) as usize], v);
        t.record(if v % 2 == 0 { "even_ns" } else { "odd" }, v);
        if v % 5 == 0 {
            t.event("fault", "retry", &[("v", v.to_string())]);
        }
    }
    t.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative(
        xs in proptest::collection::vec(0u64..1_000_000, 40),
        ys in proptest::collection::vec(0u64..1_000_000, 40),
        zs in proptest::collection::vec(0u64..1_000_000, 40),
        nx in 0usize..=40, ny in 0usize..=40, nz in 0usize..=40,
    ) {
        let (a, b, c) = (record(&xs[..nx]), record(&ys[..ny]), record(&zs[..nz]));

        // (a ⊔ b) ⊔ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        // a ⊔ (b ⊔ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_of_counters_and_histograms_is_commutative(
        xs in proptest::collection::vec(0u64..1_000_000, 40),
        ys in proptest::collection::vec(0u64..1_000_000, 40),
        nx in 0usize..=40, ny in 0usize..=40,
    ) {
        let (a, b) = (record(&xs[..nx]), record(&ys[..ny]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Event order differs (concatenation), but all aggregates agree.
        prop_assert_eq!(&ab.counters, &ba.counters);
        prop_assert_eq!(&ab.histograms, &ba.histograms);
        prop_assert_eq!(ab.events.len(), ba.events.len());
    }

    #[test]
    fn merged_split_equals_single_recording(
        xs in proptest::collection::vec(0u64..1_000_000, 60),
        cut in 0usize..=60,
    ) {
        // Recording a stream in one registry must equal recording its two
        // halves separately and merging — the 1-vs-N-workers guarantee.
        let cut = cut.min(xs.len());
        let whole = record(&xs);
        let mut halves = record(&xs[..cut]);
        halves.merge(&record(&xs[cut..]));
        prop_assert_eq!(&whole.counters, &halves.counters);
        prop_assert_eq!(&whole.histograms, &halves.histograms);
        prop_assert_eq!(whole.events.len(), halves.events.len());
    }

    #[test]
    fn jsonl_writes_one_exact_line_per_record(
        xs in proptest::collection::vec(0u64..u64::MAX, 50),
        n in 0usize..=50,
    ) {
        let snap = record(&xs[..n]);
        let text = snap.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        let records =
            snap.counters.len() + snap.gauges.len() + snap.histograms.len() + snap.events.len();
        prop_assert_eq!(lines.len(), 1 + records);
        for (name, v) in &snap.counters {
            let line = format!(r#"{{"type":"counter","name":"{name}","value":{v}}}"#);
            prop_assert!(lines.contains(&line.as_str()), "{}", line);
        }
        for (name, h) in &snap.histograms {
            let head = format!(
                r#"{{"type":"histogram","name":"{name}","count":{},"sum":{},"min":{},"max":{},"#,
                h.count, h.sum, h.min, h.max
            );
            prop_assert!(lines.iter().any(|l| l.starts_with(&head)), "{}", head);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bracketed(
        xs in proptest::collection::vec(0u64..1_000_000_000, 80),
        n in 1usize..=80,
    ) {
        let snap = record(&xs[..n]);
        for h in snap.histograms.values() {
            let mut prev = 0u64;
            for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let v = h.quantile(q);
                prop_assert!(v >= prev, "quantiles must be monotone");
                prop_assert!(v >= h.min && v <= h.max);
                prev = v;
            }
        }
    }
}
