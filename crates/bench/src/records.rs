//! Machine-readable benchmark records and the repo-root `BENCH_*.json`
//! table they are written to: a flat JSON array with one record per line.

use std::io;
use std::path::{Path, PathBuf};

/// One benchmark row: an op timed at a shape, optionally against a
/// reference implementation.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Operation name (`gemm`, `unet_infer`, …).
    pub op: String,
    /// Problem shape label (`8x54x8192`, `batch8_32x32`, …).
    pub shape: String,
    /// Best-of-samples wall-clock per iteration.
    pub ns: f64,
    /// Reference implementation's ns/iter, when one was timed.
    pub reference_ns: Option<f64>,
}

impl BenchRecord {
    /// `reference / optimized`, when a reference was timed.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        self.reference_ns.map(|r| r / self.ns)
    }

    fn json_f64(v: Option<f64>) -> String {
        match v {
            Some(x) => format!("{x:.1}"),
            None => "null".to_string(),
        }
    }

    /// The record as one JSON object line (no trailing comma), stamped
    /// with the host that produced it.
    #[must_use]
    pub fn to_json_line(&self, host: &str) -> String {
        format!(
            "{{\"op\": \"{}\", \"shape\": \"{}\", \"ns_per_iter\": {:.1}, \
             \"reference_ns_per_iter\": {}, \"speedup\": {}, \"host\": \"{}\"}}",
            self.op,
            self.shape,
            self.ns,
            Self::json_f64(self.reference_ns),
            Self::json_f64(self.speedup()),
            host,
        )
    }
}

/// One-line description of the machine a bench ran on — core count, CPU
/// model and the SIMD features the kernels dispatch on — so a timing is
/// never read without its host.
#[must_use]
pub fn host_stamp() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown", str::trim)
            .replace(['"', '\\'], "")
    };
    let flags = field("flags");
    let simd: Vec<&str> =
        ["avx2", "fma", "avx512f"].into_iter().filter(|f| flags.split(' ').any(|g| g == *f)).collect();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{nproc} x {} [{}]", field("model name"), simd.join(" "))
}

/// Where a bench binary writes its table: `NEURFILL_BENCH_OUT` when set,
/// else `file_name` at the repo root (resolved from the bench crate's
/// manifest directory).
#[must_use]
pub fn output_path(manifest_dir: &str, file_name: &str) -> PathBuf {
    std::env::var("NEURFILL_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(manifest_dir).join("../..").join(file_name))
}

/// Writes `rows` as the table at `path`, each stamped with
/// [`host_stamp`].
///
/// # Errors
///
/// Propagates the write error.
pub fn write_table(path: &Path, rows: &[BenchRecord]) -> io::Result<()> {
    let host = host_stamp();
    let lines: Vec<String> = rows.iter().map(|row| format!("  {}", row.to_json_line(&host))).collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

/// Prints the standard stdout table for a slice of records.
pub fn print_table(rows: &[BenchRecord]) {
    println!("{:<20} {:<24} {:>14} {:>16} {:>9}", "op", "shape", "ns/iter", "reference", "speedup");
    for row in rows {
        let speedup = match row.speedup() {
            Some(s) => format!("{s:.2}x"),
            None => "-".to_string(),
        };
        let reference = match row.reference_ns {
            Some(r) => format!("{r:.0}"),
            None => "-".to_string(),
        };
        println!("{:<20} {:<24} {:>14.0} {:>16} {:>9}", row.op, row.shape, row.ns, reference, speedup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_json_record_per_line() {
        let dir = std::env::temp_dir().join(format!("nf_bench_records_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.json");
        let record = |op: &str, ns: f64, reference_ns| BenchRecord {
            op: op.to_string(),
            shape: "s".to_string(),
            ns,
            reference_ns,
        };
        write_table(&path, &[record("gemm", 10.0, Some(20.0)), record("unet_infer", 5.0, None)])
            .unwrap();

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!((lines[0], lines[3]), ("[", "]"), "{body}");
        assert!(lines[1].starts_with("  {\"op\": \"gemm\", \"shape\": \"s\", \"ns_per_iter\": 10.0, "));
        assert!(lines[1].contains("\"reference_ns_per_iter\": 20.0, \"speedup\": 2.0, \"host\": "));
        assert!(lines[1].ends_with("},"), "{body}");
        assert!(lines[2].contains("\"reference_ns_per_iter\": null, \"speedup\": null"), "{body}");
        assert!(lines[2].ends_with('}'), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
