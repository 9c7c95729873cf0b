//! Metric tables, summary statistics, and the result line.
//!
//! The two tables below are the benchmark's contract with `BENCHMARK.json`:
//! a run without `--trace` reports every [`END_TO_END`] metric, a traced
//! run every [`PER_LAYER`] metric, under exactly these names and units (the
//! crate's `quick` test checks them against the manifest).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_s_1t", "s"),
    ("adrs", "ratio"),
    ("sim_hours", "tool_h"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not exercise
/// reports 0 (see README.md, "Per-layer metrics").
pub const PER_LAYER: [(&str, &str); 40] = [
    ("hls_model.prune_ms", "ms"),
    ("fidelity_sim.truth_ms", "ms"),
    ("fidelity_sim.run_us", "us"),
    ("fidelity_sim.tool_runs", "count"),
    ("models.fit_s", "s"),
    ("models.fit_optimize_s", "s"),
    ("models.fit_refit_s", "s"),
    ("models.fit_extend_s", "s"),
    ("models.nll_evals", "count"),
    ("models.restarts_run", "count"),
    ("models.warm_start_hit_ratio", "ratio"),
    ("models.warm_start_probes", "count"),
    ("models.replay_fit_optimize_ms", "ms"),
    ("models.replay_fit_refit_ms", "ms"),
    ("models.replay_fit_extend_ms", "ms"),
    ("models.predict_batch_ms", "ms"),
    ("models.final_pool_predict_ms", "ms"),
    ("eipv.acq_s", "s"),
    ("eipv.candidates_scored", "count"),
    ("eipv.us_per_candidate", "us"),
    ("eipv.mc_us", "us"),
    ("pareto.front_index_us", "us"),
    ("scheduler.dispatches", "count"),
    ("scheduler.mean_in_flight", "count"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_load_ms", "ms"),
    ("trace.events", "count"),
    ("trace.journal_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.run_wall_s", "s"),
    ("serve.submit_ack_ms_p50", "ms"),
    ("serve.submit_ack_ms_p95", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.status_ms_p95", "ms"),
    ("serve.rejects", "count"),
    ("rayon.speedup", "ratio"),
    ("unattributed_s", "s"),
    ("unattributed.predict_share", "ratio"),
    ("host.slowdown", "ratio"),
];

/// What one workload run produced: operation counts, failed checks, and
/// metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (optimizer runs, sessions, output checks).
    pub attempted: u64,
    /// Human-readable description of every failed operation or check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one attempted operation, recording `failure` if it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failures.push(f);
        }
    }

    /// Renders the result line: the [`PER_LAYER`] metrics when `traced`,
    /// else the [`END_TO_END`] ones. Every end-to-end metric must have been
    /// set; per-layer metrics a workload leaves unset read 0.
    ///
    /// # Errors
    ///
    /// Names a missing end-to-end metric or a non-finite value.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (k, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Median (mean of the middle pair for even lengths); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolation percentile (`p` in 0..=100); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MB.
///
/// # Errors
///
/// When the kernel's status file is unreadable or lacks the field.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_requires_every_end_to_end_metric() {
        let mut o = Outcome::default();
        assert!(o.result_line(false).is_err());
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Unmeasured layers read 0 rather than failing the run.
        assert!(o.result_line(true).unwrap().contains("\"rayon.speedup\""));
    }
}
