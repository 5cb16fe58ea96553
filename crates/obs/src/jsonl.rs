//! JSONL (one JSON object per line) export of a [`MetricsSnapshot`]:
//! the dependency-free writer behind `--metrics-out` and `GET /metrics`.
//! Nothing in the workspace reads JSONL back; the schema is pinned by an
//! exact-text test of a small snapshot.
//!
//! Line schema (field order is fixed by the writer):
//!
//! ```text
//! {"type":"meta","version":1,"events_dropped":0}
//! {"type":"counter","name":"runtime.jobs_completed","value":12}
//! {"type":"gauge","name":"data.train.loss","value":0.125}
//! {"type":"histogram","name":"job.total_ns","count":3,"sum":90,"min":10,"max":50,"buckets":[[4,2],[6,1]]}
//! {"type":"event","kind":"span","name":"synthesis","path":"job/synthesis","t_ns":5,"dur_ns":17,"fields":{}}
//! ```
//!
//! Histogram `buckets` are sparse `[index, count]` pairs; integer fields
//! are written as exact `u64`s, gauges as shortest-round-trip `f64`s.

use crate::metrics::MetricsSnapshot;
use std::io::{self, Write};

/// Schema version written in the `meta` line.
pub const SCHEMA_VERSION: u64 = 1;

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl MetricsSnapshot {
    /// Writes the snapshot as JSONL (see the module docs for the schema).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_jsonl_impl(w)
    }

    /// Writes the snapshot as JSONL to a file at `path` (created or
    /// truncated) — the `--metrics-out` implementation the CLIs share.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl_file(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl_impl(&mut w)?;
        w.flush()
    }

    fn write_jsonl_impl(&self, w: &mut impl Write) -> io::Result<()> {
        let mut line = String::new();
        line.push_str(&format!(
            "{{\"type\":\"meta\",\"version\":{SCHEMA_VERSION},\"events_dropped\":{}}}",
            self.events_dropped
        ));
        writeln!(w, "{line}")?;
        for (name, v) in &self.counters {
            line.clear();
            line.push_str("{\"type\":\"counter\",\"name\":");
            escape(name, &mut line);
            line.push_str(&format!(",\"value\":{v}}}"));
            writeln!(w, "{line}")?;
        }
        for (name, v) in &self.gauges {
            line.clear();
            line.push_str("{\"type\":\"gauge\",\"name\":");
            escape(name, &mut line);
            line.push_str(&format!(",\"value\":{v}}}"));
            writeln!(w, "{line}")?;
        }
        for (name, h) in &self.histograms {
            line.clear();
            line.push_str("{\"type\":\"histogram\",\"name\":");
            escape(name, &mut line);
            line.push_str(&format!(
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            ));
            let mut first = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    if !first {
                        line.push(',');
                    }
                    first = false;
                    line.push_str(&format!("[{i},{n}]"));
                }
            }
            line.push_str("]}");
            writeln!(w, "{line}")?;
        }
        for e in &self.events {
            line.clear();
            line.push_str("{\"type\":\"event\",\"kind\":");
            escape(&e.kind, &mut line);
            line.push_str(",\"name\":");
            escape(&e.name, &mut line);
            line.push_str(",\"path\":");
            escape(&e.path, &mut line);
            line.push_str(&format!(",\"t_ns\":{}", e.t_ns));
            match e.dur_ns {
                Some(d) => line.push_str(&format!(",\"dur_ns\":{d}")),
                None => line.push_str(",\"dur_ns\":null"),
            }
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                escape(k, &mut line);
                line.push(':');
                escape(v, &mut line);
            }
            line.push_str("}}");
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// The snapshot as one JSONL string.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut buf = Vec::new();
        // Writing to a Vec cannot fail.
        let _ = self.write_jsonl(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Event, HistogramSnapshot};

    #[test]
    fn schema_v1_text_is_pinned() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("runtime.jobs_completed".into(), 7);
        snap.counters.insert("optim.sqp.iterations".into(), u64::MAX / 3);
        snap.gauges.insert("data.train.loss".into(), 0.062_5);
        snap.gauges.insert("negative".into(), -1.5e-3);
        let mut h = HistogramSnapshot { count: 3, sum: 90, min: 10, max: 50, ..Default::default() };
        h.buckets[4] = 2;
        h.buckets[6] = 1;
        snap.histograms.insert("job.total_ns".into(), h);
        snap.events.push(Event {
            kind: "span".into(),
            name: "synthesis".into(),
            path: "job/synthesis".into(),
            t_ns: 5,
            dur_ns: Some(17),
            fields: vec![],
        });
        snap.events.push(Event {
            kind: "fault".into(),
            name: "golden_degraded".into(),
            path: String::new(),
            t_ns: 999,
            dur_ns: None,
            fields: vec![
                ("job".into(), "weird \"name\"\nwith\tescapes\\".into()),
                ("π".into(), "\u{1}".into()),
            ],
        });
        snap.events_dropped = 3;
        let expected = [
            r#"{"type":"meta","version":1,"events_dropped":3}"#,
            r#"{"type":"counter","name":"optim.sqp.iterations","value":6148914691236517205}"#,
            r#"{"type":"counter","name":"runtime.jobs_completed","value":7}"#,
            r#"{"type":"gauge","name":"data.train.loss","value":0.0625}"#,
            r#"{"type":"gauge","name":"negative","value":-0.0015}"#,
            r#"{"type":"histogram","name":"job.total_ns","count":3,"sum":90,"min":10,"max":50,"buckets":[[4,2],[6,1]]}"#,
            r#"{"type":"event","kind":"span","name":"synthesis","path":"job/synthesis","t_ns":5,"dur_ns":17,"fields":{}}"#,
            r#"{"type":"event","kind":"fault","name":"golden_degraded","path":"","t_ns":999,"dur_ns":null,"fields":{"job":"weird \"name\"\nwith\tescapes\\","π":"\u0001"}}"#,
        ];
        assert_eq!(snap.to_jsonl(), expected.map(|l| format!("{l}\n")).concat());
    }
}
