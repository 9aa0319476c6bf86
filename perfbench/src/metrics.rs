//! The metrics the benchmark reports, and the result line it prints.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares (a test keeps the two in step). An untraced run prints every
//! end-to-end metric; a traced run prints every per-layer metric, with
//! `0` for a layer the workload does not exercise.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Copy, Clone, Debug)]
pub struct Decl {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", "lower"),
    d("jobs_per_s", "1/s", "higher"),
    d("p50_ms", "ms", "lower"),
    d("p90_ms", "ms", "lower"),
    d("peak_rss_mb", "MB", "lower"),
];

/// Metrics of single layers, measured by the traced run.
pub const PER_LAYER: &[Decl] = &[
    d("trace.synth_s", "s", "lower"),
    d("trace.record_s", "s", "lower"),
    d("trace.analyze_s", "s", "lower"),
    d("trace.buffer_mb", "MB", "lower"),
    d("core.sim_s", "s", "lower"),
    d("core.sim_mips", "MIPS", "higher"),
    d("core.ns_per_cycle", "ns", "lower"),
    d("core.sample_s", "s", "lower"),
    d("core.sample_detail_pct", "%", "lower"),
    d("core.ckpt_encode_ms", "ms", "lower"),
    d("core.ckpt_kb", "KB", "lower"),
    d("lab.campaign_s", "s", "lower"),
    d("lab.pool_util", "ratio", "higher"),
    d("lab.artifacts_s", "s", "lower"),
    d("lab.serial_ms", "ms", "lower"),
    d("serve.ack_ms", "ms", "lower"),
    d("serve.cold_ms", "ms", "lower"),
    d("serve.large_ms", "ms", "lower"),
    d("serve.hot_ms", "ms", "lower"),
    d("serve.first_event_ms", "ms", "lower"),
    d("serve.cache_hit_pct", "%", "higher"),
    d("serve.done_kb", "KB", "lower"),
    d("serve.busy_refusals", "count", "lower"),
    d("journal.append_ms", "ms", "lower"),
    d("journal.ckpt_append_ms", "ms", "lower"),
    d("journal.ckpt_record_kb", "KB", "lower"),
    d("journal.bytes_per_job", "B", "lower"),
    d("sim.insts", "count", "higher"),
    d("sim.cycles", "count", "lower"),
    d("sim.ipc", "ratio", "higher"),
    d("sim.bypassed_pct", "%", "higher"),
    d("sim.mispredicts_per_10k", "1/10k", "lower"),
    d("sim.reexec_rate", "ratio", "lower"),
    d("sampled_s", "s", "lower"),
    d("ipc_err_pct", "%", "lower"),
    d("error_pct", "%", "lower"),
    d("trace_overhead_pct", "%", "lower"),
    d("span_coverage_pct", "%", "higher"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Failed operations as a share of attempted ones, in percent.
pub fn error_pct(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        100.0
    } else {
        100.0 * failed as f64 / attempted as f64
    }
}

/// What one run measured.
pub struct Outcome {
    /// Operations attempted (rounds, or requests on `serve`).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced output that
    /// did not match.
    pub failed: u64,
    /// Digest of the run's deterministic outputs.
    pub digest: u64,
    /// Every metric the run measured.
    pub values: Values,
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics of `decls`, each with its unit. A declared metric the run
/// did not measure is an error for end-to-end metrics and `0` (layer
/// not exercised) for per-layer ones.
pub fn result_line(outcome: &Outcome, decls: &[Decl], strict: bool) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(decls.len());
    for decl in decls {
        let value = match outcome.values.get(decl.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {} is not finite ({v})", decl.name)),
            None if strict => return Err(format!("metric {} was not measured", decl.name)),
            None => 0.0,
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            decl.name,
            json_number(value),
            decl.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// A finite number in JSON form with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosq_lab::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(decls: &[Decl]) -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));

        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            digest: 0,
            values: END_TO_END.iter().map(|d| (d.name, 1.5)).collect(),
        };
        let line = result_line(&outcome, END_TO_END, true).expect("all measured");
        let printed = json::parse(&line).expect("result line is JSON");
        let names: Vec<String> = printed
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        let want: Vec<String> = END_TO_END.iter().map(|d| d.name.to_owned()).collect();
        assert_eq!(names, want);
        assert_eq!(printed.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            digest: 0,
            values: Values::new(),
        };
        assert!(result_line(&outcome, END_TO_END, true).is_err());
        assert!(result_line(&outcome, PER_LAYER, false).is_ok());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let outcome = Outcome {
            attempted: 4,
            failed: 1,
            digest: 0,
            values: Values::new(),
        };
        let line = result_line(&outcome, PER_LAYER, false).expect("renders");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        assert_eq!(error_pct(4, 1), 25.0);
    }
}
