//! `nfbench compare <a> <b>`: applies the bounds `BENCHMARK.json` fixes to
//! two result sets.
//!
//! A result set is a file of records, one JSON object per line (what
//! `--out FILE` appends), or a directory of such files. Per workload and
//! end-to-end metric the verdict is `regressed` when `b`'s median is worse
//! than `a`'s by more than the bound, `unresolved` when either side's
//! spread (interquartile distance over median) exceeds the bound, and
//! `ok` otherwise.

use crate::json::{self, Value};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// `workload → metric → values`, over the untraced records of a set.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when `b` is better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    // A single run has no spread to speak of; it is judged on its value.
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worsening(median(a), median(b), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn add_records(text: &str, set: &mut ResultSet) -> Result<(), String> {
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = json::parse(line)?;
        if record.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload =
            record.get("workload").and_then(Value::as_str).ok_or("record without a workload")?;
        let metrics = record.get("end_to_end").ok_or("record without end_to_end metrics")?;
        for (name, m) in metrics.members() {
            let value =
                m.get("value").and_then(Value::as_f64).ok_or_else(|| format!("{name} has no value"))?;
            set.entry(workload.to_string()).or_default().entry(name.clone()).or_default().push(value);
        }
    }
    Ok(())
}

fn load(path: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|e| e == "json" || e == "jsonl")
                && !p.to_string_lossy().ends_with(".spans.jsonl")
            {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    for file in files {
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        add_records(&text, &mut set).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    Ok(set)
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(doc: &Value) -> Result<Vec<(String, String, f64)>, String> {
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k).and_then(Value::as_str).map(str::to_string).ok_or(format!("metric without {k}"))
            };
            Ok((
                field("name")?,
                field("better")?,
                m.get("bound").and_then(Value::as_f64).ok_or("metric without bound")?,
            ))
        })
        .collect()
}

pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?)?;
    let (set_a, set_b) = (load(a)?, load(b)?);
    let mut regressed = false;
    println!(
        "{:<12} {:<14} {:>4} {:>14} {:>8} {:>4} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n_a", "median_a", "iqr_a", "n_b", "median_b", "iqr_b", "worse", "bound"
    );
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            println!("{workload:<12} only in {}", a.display());
            continue;
        };
        for (name, better, bound) in bounds(&doc)? {
            let (Some(va), Some(vb)) = (metrics_a.get(&name), metrics_b.get(&name)) else {
                continue;
            };
            let verdict = judge(va, vb, &better, bound);
            regressed |= verdict == Verdict::Regressed;
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{workload:<12} {name:<14} {:>4} {:>14.6} {:>8} {:>4} {:>14.6} {:>8} {:>7.2}% {:>5.1}%  {}",
                va.len(),
                median(va),
                pct(spread(va)),
                vb.len(),
                median(vb),
                pct(spread(vb)),
                worsening(median(va), median(vb), &better) * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 10.0, 13.0, 6.0, 11.0, 9.0];
        assert_eq!(judge(&steady, &steady, "lower", 0.1), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, "lower", 0.1), Verdict::Regressed);
        // The same numbers are an improvement when higher is better.
        assert_eq!(judge(&steady, &slower, "higher", 0.1), Verdict::Ok);
        assert_eq!(judge(&slower, &steady, "higher", 0.1), Verdict::Regressed);
        assert_eq!(judge(&steady, &noisy, "lower", 0.1), Verdict::Unresolved);
        assert_eq!(judge(&[10.0], &[10.5], "lower", 0.1), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.5], "lower", 0.1), Verdict::Regressed);
    }

    #[test]
    fn records_are_grouped_by_workload_and_traced_ones_skipped() {
        let mut set = ResultSet::new();
        let text = "{\"workload\": \"flow_abc\", \"trace\": false, \"end_to_end\": {\"wall_s\": {\"value\": 12.5, \"unit\": \"s\"}}}\n\
                    \n\
                    {\"workload\": \"flow_abc\", \"trace\": true, \"end_to_end\": {\"wall_s\": {\"value\": 99.0, \"unit\": \"s\"}}}\n\
                    {\"workload\": \"flow_abc\", \"trace\": false, \"end_to_end\": {\"wall_s\": {\"value\": 13.5, \"unit\": \"s\"}}}\n";
        add_records(text, &mut set).unwrap();
        assert_eq!(set["flow_abc"]["wall_s"], [12.5, 13.5]);
        assert!(add_records("{\"trace\": false}", &mut set).is_err());
    }
}
