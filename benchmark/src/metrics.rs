//! Metric catalog, order statistics and the report a run prints.
//!
//! The two catalogs are the benchmark's contract with `BENCHMARK.json`: an
//! untraced run reports exactly the end-to-end catalog, a traced run exactly
//! the per-layer catalog.  [`Report::finish`] refuses to print a report that
//! misses a catalogued metric or carries an unknown one.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("gen_tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("itl_mean_ms", "ms"),
    ("slo_ok_frac", "frac"),
    ("cpu_s_per_ktok", "s/ktok"),
];

/// `(name, unit)` of every per-layer metric, in print order.  The prefix is
/// the repository crate the metric belongs to.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemv_256x256_ns", "ns"),
    ("tensor.gemv_704x256_ns", "ns"),
    ("tensor.gemm8_704x256_ns_per_row", "ns"),
    ("tensor.rmsnorm_256_ns", "ns"),
    ("tensor.softmax_512_ns", "ns"),
    ("tensor.gemv_gbps", "GB/s"),
    ("model.decode_ms_ctx64", "ms"),
    ("model.decode_ms_ctx512", "ms"),
    ("model.prefill_ms_256tok", "ms"),
    ("model.verify_ms_m5", "ms"),
    ("model.forest_ms_per_row_m8", "ms"),
    ("model.logits_ms", "ms"),
    ("model.kv_branch_commit_ns", "ns"),
    ("model.kv_branch_rollback_ns", "ns"),
    ("model.pool_begin_ns", "ns"),
    ("model.pool_commit_ns", "ns"),
    ("model.pool_hit_frac", "frac"),
    ("model.pool_evictions", "count"),
    ("model.pool_pages_peak", "count"),
    ("cluster.msg_rtt_us", "us"),
    ("cluster.spawn_ms", "ms"),
    ("cluster.msgs_per_tok", "1/tok"),
    ("cluster.bytes_per_tok", "B/tok"),
    ("cluster.rank_busy_frac", "frac"),
    ("cluster.bubble_frac", "frac"),
    ("cluster.bubble_awaiting_draft_frac", "frac"),
    ("cluster.bubble_cancelled_work_frac", "frac"),
    ("cluster.bubble_scheduling_gap_frac", "frac"),
    ("spec.draft_ms_ctx128", "ms"),
    ("spec.draft_ms_ctx512", "ms"),
    ("spec.accept_rate", "frac"),
    ("spec.tok_per_run", "tok/run"),
    ("spec.step_prefill_ms", "ms"),
    ("spec.step_decode_ms_p50", "ms"),
    ("spec.step_rows_mean", "rows"),
    ("spec.prepare_ms", "ms"),
    ("spec.pair_probe_accept", "frac"),
    ("spec.iterative_tok_s", "tok/s"),
    ("spec.speculative_tok_s", "tok/s"),
    ("core.pipeinfer_tok_s", "tok/s"),
    ("core.runs_per_tok", "1/tok"),
    ("core.cancelled_frac", "frac"),
    ("core.cancellations_saved", "1/ktok"),
    ("core.runs_rescued", "1/ktok"),
    ("core.speedup_vs_iterative", "x"),
    ("core.speedup_vs_speculative", "x"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.cohort_width_mean", "req/step"),
    ("serve.steps", "count"),
    ("serve.prefix_hit_rate", "frac"),
    ("serve.refusals", "count"),
    ("serve.step_sum_over_wall", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.events_per_tok", "1/tok"),
    ("perf.pred_over_meas_decode", "x"),
    // End-to-end readings whose run-to-run spread is too wide to carry a
    // regression bound on this machine (see README, "Demoted metrics").
    ("e2e.ttft_p90_ms", "ms"),
    ("e2e.itl_p99_ms", "ms"),
    ("e2e.e2e_p90_ms", "ms"),
    ("e2e.peak_rss_mb", "MB"),
];

/// Quantile `p` of `sorted` by linear interpolation between order statistics.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// A distribution as the report shows it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Sorts `values` and returns them with their summary.
pub fn summarize(values: &[f64]) -> (Vec<f64>, Summary) {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let summary = Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    };
    (sorted, summary)
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).1.median
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Entry {
    value: f64,
    /// Present when the value is a statistic of a sample.
    dist: Option<Summary>,
}

/// The metrics of one run, checked against a catalog when printed.
pub struct Report {
    catalog: &'static [(&'static str, &'static str)],
    entries: BTreeMap<&'static str, Entry>,
    /// Free-form lines printed above the table (pair probe, counts, bases).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(catalog: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            catalog,
            entries: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        // `+ 0.0` turns a negative zero into a plain one.
        let value = value + 0.0;
        self.entries.insert(name, Entry { value, dist: None });
    }

    /// Sets a metric that is a statistic of `dist`'s sample.
    pub fn set_dist(&mut self, name: &'static str, value: f64, dist: Summary) {
        self.entries.insert(
            name,
            Entry {
                value,
                dist: Some(dist),
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries.get(name).map_or(0.0, |e| e.value)
    }

    /// Prints the table and, as the last line, the result object.
    pub fn finish(&self, workload: &str, correct: bool, attempted: usize, failed: usize) {
        for name in self.entries.keys() {
            assert!(
                self.catalog.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalog"
            );
        }
        for note in &self.notes {
            println!("# {note}");
        }
        println!(
            "# workload {workload}: attempted {attempted}, failed {failed}, correct {correct}"
        );
        let mut json = String::new();
        for (i, (name, unit)) in self.catalog.iter().enumerate() {
            let entry = self
                .entries
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(entry.value.is_finite(), "metric {name} is not finite");
            match entry.dist {
                Some(d) => println!(
                    "{name:<40} {:>14.4} {unit:<8} median {:.4}  q1 {:.4}  q3 {:.4}  n {}",
                    entry.value, d.median, d.q1, d.q3, d.n
                ),
                None => println!("{name:<40} {:>14.4} {unit}", entry.value),
            }
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                entry.value
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn catalogs_have_unique_contract_conforming_names() {
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && ok_unit(unit), "{name} [{unit}]");
        }
    }
}
