//! # pi-metrics
//!
//! Measurement summaries and report rendering for the PipeInfer evaluation
//! harness: repeated-run statistics (the paper averages each experiment over
//! ten runs), metric series keyed by (strategy, node count), and plain-text
//! table rendering used by the figure benches.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `q`-quantile (`q` in `[0, 1]`) of ascending `sorted`, interpolating
/// linearly between order statistics (the "linear" / type-7 estimator most
/// tools default to).
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Summary statistics over repeated measurements.
///
/// Besides the classic moments this carries the latency percentiles the
/// serving harness reports per request stream (`p50`/`p95`/`p99`); for fewer
/// samples than a percentile can resolve the estimator degrades gracefully
/// toward the maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`; returns a zeroed summary for
    /// an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }
}

/// A single measured data point of a figure: one strategy/variant evaluated
/// at one x-axis position (node count, model pair, prompt, …).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Series label (e.g. `"PipeInfer (TinyLlama)"`).
    pub series: String,
    /// X-axis label (e.g. `"8 Node"`).
    pub x: String,
    /// Measured value (e.g. tokens/second).
    pub value: f64,
}

/// A figure or table being reproduced: a set of series sampled at common
/// x-axis positions.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// Figure identifier, e.g. `"Fig. 4a"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Unit of the measured values, e.g. `"tokens/s"`.
    pub unit: String,
    points: Vec<DataPoint>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: &str, title: &str, unit: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            unit: unit.to_string(),
            points: Vec::new(),
        }
    }

    /// Adds one data point.
    pub fn push(&mut self, series: &str, x: &str, value: f64) {
        self.points.push(DataPoint {
            series: series.to_string(),
            x: x.to_string(),
            value,
        });
    }

    /// All data points.
    pub fn points(&self) -> &[DataPoint] {
        &self.points
    }

    /// The value of `series` at `x`, if present.
    pub fn value(&self, series: &str, x: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.series == series && p.x == x)
            .map(|p| p.value)
    }

    /// Distinct x-axis labels, in first-appearance order.
    pub fn x_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.points {
            if !out.contains(&p.x) {
                out.push(p.x.clone());
            }
        }
        out
    }

    /// Distinct series labels, in first-appearance order.
    pub fn series_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.points {
            if !out.contains(&p.series) {
                out.push(p.series.clone());
            }
        }
        out
    }

    /// Ratio between two series at the same x position, if both exist.
    pub fn ratio(&self, numerator: &str, denominator: &str, x: &str) -> Option<f64> {
        let a = self.value(numerator, x)?;
        let b = self.value(denominator, x)?;
        if b == 0.0 {
            None
        } else {
            Some(a / b)
        }
    }

    /// Renders the figure as a plain-text table: one row per series, one
    /// column per x label — the same layout the paper's bar charts encode.
    pub fn render(&self) -> String {
        let xs = self.x_labels();
        let series = self.series_labels();
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ({}) ===", self.id, self.title, self.unit);
        let name_w = series
            .iter()
            .map(|s| s.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let _ = write!(out, "{:name_w$}", "");
        for x in &xs {
            let _ = write!(out, " | {x:>12}");
        }
        let _ = writeln!(out);
        for s in &series {
            let _ = write!(out, "{s:name_w$}");
            for x in &xs {
                match self.value(s, x) {
                    Some(v) => {
                        let _ = write!(out, " | {v:>12.3}");
                    }
                    None => {
                        let _ = write!(out, " | {:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// A collection of figures, keyed by figure id, rendered together by the
/// figure bench.
#[derive(Debug, Clone, Default)]
pub struct Report {
    figures: BTreeMap<String, Figure>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a figure.
    pub fn insert(&mut self, figure: Figure) {
        self.figures.insert(figure.id.clone(), figure);
    }

    /// Gets a figure by id.
    pub fn figure(&self, id: &str) -> Option<&Figure> {
        self.figures.get(id)
    }

    /// Number of figures.
    pub fn len(&self) -> usize {
        self.figures.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.figures.is_empty()
    }

    /// Renders every figure in id order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for fig in self.figures.values() {
            out.push_str(&fig.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - 1.29099).abs() < 1e-4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_edge_cases() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.p99, 0.0);
        let single = Summary::of(&[7.0]);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.mean, 7.0);
        assert_eq!(single.p50, 7.0);
        assert_eq!(single.p99, 7.0);
    }

    #[test]
    fn percentiles_interpolate_linearly() {
        // 1..=100: p50 sits between the 50th and 51st order statistics.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&samples);
        assert!((s.p50 - 50.5).abs() < 1e-12);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        // Order must not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(Summary::of(&reversed), s);
        let samples: Vec<f64> = (0..37).map(|i| (i as f64 * 1.7).sin() * 10.0).collect();
        let s = Summary::of(&samples);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    fn sample_figure() -> Figure {
        let mut f = Figure::new("Fig. 4a", "Dolphin-70B generation speed", "tokens/s");
        f.push("Iterative", "4 Node", 1.5);
        f.push("Speculative", "4 Node", 3.0);
        f.push("PipeInfer", "4 Node", 4.0);
        f.push("Iterative", "8 Node", 1.5);
        f.push("PipeInfer", "8 Node", 4.5);
        f
    }

    #[test]
    fn figure_lookup_and_labels() {
        let f = sample_figure();
        assert_eq!(f.value("PipeInfer", "4 Node"), Some(4.0));
        assert_eq!(f.value("PipeInfer", "64 Node"), None);
        assert_eq!(f.x_labels(), vec!["4 Node", "8 Node"]);
        assert_eq!(
            f.series_labels(),
            vec!["Iterative", "Speculative", "PipeInfer"]
        );
    }

    #[test]
    fn figure_ratio() {
        let f = sample_figure();
        let r = f.ratio("PipeInfer", "Iterative", "4 Node").unwrap();
        assert!((r - 4.0 / 1.5).abs() < 1e-12);
        assert_eq!(f.ratio("PipeInfer", "Missing", "4 Node"), None);
    }

    #[test]
    fn figure_render_contains_all_series_and_columns() {
        let f = sample_figure();
        let text = f.render();
        assert!(text.contains("Fig. 4a"));
        assert!(text.contains("tokens/s"));
        assert!(text.contains("PipeInfer"));
        assert!(text.contains("8 Node"));
        // Missing combination rendered as "-".
        assert!(text.contains('-'));
    }

    #[test]
    fn report_collects_figures_in_order() {
        let mut r = Report::new();
        assert!(r.is_empty());
        r.insert(sample_figure());
        let mut f2 = Figure::new("Fig. 5a", "TTFT", "s");
        f2.push("Iterative", "4 Node", 0.8);
        r.insert(f2);
        assert_eq!(r.len(), 2);
        assert!(r.figure("Fig. 4a").is_some());
        let rendered = r.render();
        let pos4 = rendered.find("Fig. 4a").unwrap();
        let pos5 = rendered.find("Fig. 5a").unwrap();
        assert!(pos4 < pos5);
    }
}
