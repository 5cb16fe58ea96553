//! The metric tables: every name the benchmark may print, with its unit,
//! direction and — for end-to-end metrics — the bound by which its median
//! may worsen before a change counts as a regression. `BENCHMARK.json`
//! repeats these tables: `nfbench manifest` prints it from them, and a unit
//! test keeps the two in step.

use crate::json::Value;

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// What a user of the system sees; every workload reports all of them,
/// measured with tracing off.
///
/// The timing bounds are the widest the contract allows. The reference
/// host is two virtual cores of a shared machine. Code whose working set
/// lives in the shared last-level cache runs there at anything between
/// full speed and two thirds of it, for seconds to minutes at a time (one
/// surrogate call of `flow_abc`: 3.5 ms on a quiet host, 3.5-6.2 ms on a
/// busy one), so ten runs of identical work spread (interquartile distance
/// over median) by 3 % at best and by 6-25 % in one set and 3-34 % in the
/// next with one busy thread, and by more with two, which is why every
/// timed phase keeps one core busy (`bench::TIMED_WORKERS`). A bound has to
/// sit above what it bounds. Gains and regressions are judged on
/// alternating pairs (README.md).
pub const END_TO_END: &[EndToEnd] = &[
    // Process start to first timed operation: design generation, labeling
    // and surrogate training, bundle, pool or server start. Single sample
    // when it takes seconds, otherwise the median of several set-ups.
    ("setup_s", "s", "lower", 0.25),
    // Wall clock of the timed job list.
    ("wall_s", "s", "lower", 0.25),
    // Core layout windows (layers x rows x cols; halo and padding
    // excluded) taken from input to golden-verified plan, per second.
    ("windows_per_s", "1/s", "higher", 0.25),
    // Median submit-to-verified-result time of one job of the list: a
    // flow job, a served job, a whole chip run.
    ("job_s.p50", "s", "lower", 0.25),
    // Mean golden-scored Quality (Table III column) of the produced
    // plans: guards "faster by optimising less".
    ("quality_mean", "score", "higher", 0.02),
    // VmHWM at the end of the timed phase. Repeats to 0.1 % with one pool
    // worker; the bound leaves room for a change of allocation pattern.
    ("peak_rss_mib", "MiB", "lower", 0.25),
];

/// Layers are the crate names. A metric reads 0 on a workload that does
/// not exercise (or does not probe) its layer; README.md says which
/// workload measures which.
pub const PER_LAYER: &[PerLayer] = &[
    // Self time of each layer inside the timed phase, from harness-side
    // spans (the span's duration minus what its child spans cover).
    ("layout.self_s", "s", "lower"),
    ("cmpsim.self_s", "s", "lower"),
    ("tensor.self_s", "s", "lower"),
    ("nn.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("optim.self_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("chip.self_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("data.self_s", "s", "lower"),
    ("nfbench.self_s", "s", "lower"),
    // layout
    ("layout.insertion_ms", "ms", "lower"),
    ("layout.tile_materialize_ms", "ms", "lower"),
    // cmpsim
    ("cmpsim.simulate_ms", "ms", "lower"),
    ("cmpsim.simulate_fast_ms", "ms", "lower"),
    ("cmpsim.padconv_us", "us", "lower"),
    ("cmpsim.padconv_tile_us", "us", "lower"),
    ("cmpsim.contact_solve_us", "us", "lower"),
    ("cmpsim.contact_solve_chip_us", "us", "lower"),
    ("cmpsim.polish_us", "us", "lower"),
    ("cmpsim.window_steps_per_s", "1/s", "higher"),
    ("cmpsim.numgrad_eval_ms", "ms", "lower"),
    // tensor
    ("tensor.gemm_b1_us", "us", "lower"),
    ("tensor.gemm_b1_gflops", "Gflop/s", "higher"),
    ("tensor.gemm_b1_computed_bytes", "B", "lower"),
    ("tensor.gemm_b8_us", "us", "lower"),
    // nn
    ("nn.unet_forward_ms", "ms", "lower"),
    ("nn.unet_backward_ms", "ms", "lower"),
    ("nn.unet_infer_b1_ms", "ms", "lower"),
    ("nn.unet_infer_b6_ms", "ms", "lower"),
    ("nn.train_samples_per_s", "1/s", "higher"),
    // core
    ("core.calibrate_ms", "ms", "lower"),
    ("core.pkb_ms", "ms", "lower"),
    ("core.synthesis_s", "s", "lower"),
    ("core.verify_ms", "ms", "lower"),
    ("core.stage_share", "ratio", "higher"),
    ("core.extract_ms", "ms", "lower"),
    ("core.objective_value_ms", "ms", "lower"),
    ("core.objective_grad_ms", "ms", "lower"),
    ("core.forward_evals", "count", "lower"),
    ("core.backward_evals", "count", "lower"),
    ("core.nn_share", "ratio", "lower"),
    ("core.bundle_roundtrip_ms", "ms", "lower"),
    ("core.grad_speedup_vs_numgrad", "ratio", "higher"),
    // optim
    ("optim.sqp_iterations", "count", "lower"),
    ("optim.self_ms", "ms", "lower"),
    ("optim.sqp_dim3072_ms", "ms", "lower"),
    // runtime
    ("runtime.pool_start_ms", "ms", "lower"),
    ("runtime.submit_us.p50", "us", "lower"),
    ("runtime.job_s.p50", "s", "lower"),
    ("runtime.batch_predict_ms", "ms", "lower"),
    ("runtime.batches", "count", "lower"),
    ("runtime.mean_batch_occupancy", "ratio", "higher"),
    ("runtime.worker_scaling", "ratio", "higher"),
    ("runtime.wide_batch_occupancy", "ratio", "higher"),
    // chip
    ("chip.tiles", "count", "lower"),
    ("chip.halo_bytes", "B", "lower"),
    ("chip.peak_tiles_in_flight", "count", "lower"),
    ("chip.simulate_s", "s", "lower"),
    ("chip.fill_rule_s", "s", "lower"),
    ("chip.synthesize_s", "s", "lower"),
    ("chip.verify_s", "s", "lower"),
    ("chip.sim_share", "ratio", "lower"),
    ("chip.tile_job_s.mean", "s", "lower"),
    ("chip.merge_ms", "ms", "lower"),
    ("chip.worker_scaling", "ratio", "higher"),
    ("chip.sharded_overhead", "ratio", "lower"),
    ("chip.height_range_gain", "ratio", "higher"),
    // serve
    ("serve.submit_ms.p50", "ms", "lower"),
    ("serve.submit_ms.p90", "ms", "lower"),
    ("serve.result_fetch_ms.p50", "ms", "lower"),
    ("serve.job_s.p90", "s", "lower"),
    ("serve.wire_encode_us", "us", "lower"),
    ("serve.wire_decode_us", "us", "lower"),
    ("serve.journal_append_us.p50", "us", "lower"),
    ("serve.admission_us", "us", "lower"),
    ("serve.refused", "count", "lower"),
    ("serve.overhead_share", "ratio", "lower"),
    // data
    ("data.label_layouts_per_s", "1/s", "higher"),
    ("data.shard_read_mb_s", "MB/s", "higher"),
    // obs: spans recorded, and their computed cost as a share of wall_s
    ("obs.spans", "count", "lower"),
    ("obs.trace_overhead_share", "ratio", "lower"),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    ("flow_abc", "the paper's flow job by job on one thread: autograd UNet forward/backward, SQP line search and two small golden sims do all the work; runtime, serve and chip do none"),
    ("serve_burst", "closed-loop bursts of small jobs through the HTTP service with the journal on: the only workload where HTTP parse, admission, journal append and queue wait run, beside one pool worker"),
    ("chip_nn", "the surrogate at chip scale through chip::pool: same nn/core/optim work as flow_abc but fed by tile materialisation, the runtime pool and core-merge, between two sharded golden sims"),
    ("chip_golden", "bypass workload for tensor/nn/optim changes (prediction: no movement) and the cmpsim stress: halo-exchanging shards and a chip-global contact solve far larger than cache"),
];

/// How long one run measures on the reference host; the driver passes it
/// back as `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, from the metric tables.
pub fn manifest() -> String {
    let list = |items: Vec<Value>| {
        format!("[\n{}\n  ]", items.iter().map(|v| format!("    {v}")).collect::<Vec<_>>().join(",\n"))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "nfbench/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|&(name, why)| Value::obj([("name", Value::str(name)), ("why", why.into())]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            Value::obj([
                ("name", Value::str(name)),
                ("unit", unit.into()),
                ("better", better.into()),
                ("bound", Value::Num(bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            Value::obj([("name", Value::str(name)), ("unit", unit.into()), ("better", better.into())])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"nfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        Value::Arr(command.iter().map(|&c| c.into()).collect()),
        list(workloads),
        list(e2e),
        list(layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` at the repository root is the contract the
    /// acceptance driver reads; the tables above are what the program
    /// prints. They must list the same metrics, units, directions, bounds
    /// and workloads in the same order.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
                .unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, &(name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!((text(v, "name"), text(v, "unit"), text(v, "better")), (name, unit, better));
            assert_eq!(v.get("bound").and_then(Value::as_f64), Some(bound), "{name}");
            assert!(bound <= 0.25);
        }
        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (v, &(name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!((text(v, "name"), text(v, "unit"), text(v, "better")), (name, unit, better));
        }
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, &(name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((text(v, "name"), text(v, "why")), (name, why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "s")))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let doc = json::parse(&manifest()).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
        assert_eq!(
            doc.get("end_to_end").and_then(Value::as_arr).map(<[Value]>::len),
            Some(END_TO_END.len())
        );
        assert!(manifest().len() < 64 * 1024);
    }
}
