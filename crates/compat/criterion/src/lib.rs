//! Offline stand-in for the `criterion` crate.
//!
//! Supports the subset the bench targets use — `bench_function` with
//! `Bencher::iter` / `Bencher::iter_batched`, plus the `criterion_group!` /
//! `criterion_main!` macros — and reports a simple mean wall-clock time per
//! iteration.  No statistical analysis, plotting or baseline storage: the
//! goal is that `cargo bench` runs offline and prints comparable numbers.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How `iter_batched` amortises setup cost (accepted for API parity; the
/// harness always runs one setup per measured iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Per-benchmark measurement driver handed to the closure of
/// [`Criterion::bench_function`].
pub struct Bencher {
    samples: Vec<Duration>,
    target_time: Duration,
}

impl Bencher {
    fn new(target_time: Duration) -> Self {
        Self {
            samples: Vec::new(),
            target_time,
        }
    }

    /// Measures `routine` repeatedly until the target measurement time is
    /// reached.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up.
        for _ in 0..3 {
            black_box(routine());
        }
        let started = Instant::now();
        while started.elapsed() < self.target_time || self.samples.len() < 10 {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
            if self.samples.len() >= 100_000 {
                break;
            }
        }
    }

    /// Measures `routine` over fresh inputs produced by `setup`; setup time
    /// is excluded from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let started = Instant::now();
        while started.elapsed() < self.target_time || self.samples.len() < 10 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples.push(t.elapsed());
            if self.samples.len() >= 100_000 {
                break;
            }
        }
    }

    fn report(&self, name: &str) -> BenchReport {
        if self.samples.is_empty() {
            println!("{name:<48} (no samples)");
            return BenchReport {
                name: name.to_string(),
                mean_ns: 0.0,
                median_ns: 0.0,
                min_ns: 0.0,
                max_ns: 0.0,
                iters: 0,
            };
        }
        let total: Duration = self.samples.iter().sum();
        let mean = total / self.samples.len() as u32;
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let (min, median, max) = (
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1],
        );
        println!(
            "{name:<48} mean {mean:>12?}  median {median:>12?}  min {min:>12?}  max {max:>12?}  ({} iters)",
            self.samples.len()
        );
        BenchReport {
            name: name.to_string(),
            mean_ns: mean.as_nanos() as f64,
            median_ns: median.as_nanos() as f64,
            min_ns: min.as_nanos() as f64,
            max_ns: max.as_nanos() as f64,
            iters: self.samples.len(),
        }
    }
}

/// Summary statistics of one finished benchmark, exposed so bench binaries
/// can emit machine-readable results (e.g. `BENCH_kernels.json`).  The real
/// criterion persists this under `target/criterion/`; the stand-in hands it
/// back to the caller instead.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name as passed to [`Criterion::bench_function`].
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median iteration in nanoseconds — unlike the mean it ignores the
    /// millisecond outliers a shared host injects, and unlike the minimum it
    /// sees a cost most iterations pay but a lucky one escapes.
    pub median_ns: f64,
    /// Fastest observed iteration in nanoseconds.
    pub min_ns: f64,
    /// Slowest observed iteration in nanoseconds.
    pub max_ns: f64,
    /// Number of measured iterations.
    pub iters: usize,
}

/// Benchmark registry and runner (criterion API subset).
pub struct Criterion {
    target_time: Duration,
    reports: Vec<BenchReport>,
}

impl Default for Criterion {
    fn default() -> Self {
        let target_ms = std::env::var("CRITERION_TARGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        Self {
            target_time: Duration::from_millis(target_ms),
            reports: Vec::new(),
        }
    }
}

impl Criterion {
    /// Overrides the per-benchmark measurement time.
    pub fn measurement_time(mut self, time: Duration) -> Self {
        self.target_time = time;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.target_time);
        f(&mut bencher);
        let report = bencher.report(name);
        self.reports.push(report);
        self
    }

    /// Statistics of every benchmark run so far, in execution order.
    pub fn reports(&self) -> &[BenchReport] {
        &self.reports
    }
}

/// Declares a group of benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary entry point, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        let mut ran = 0usize;
        c.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran += 1;
        });
        assert_eq!(ran, 1);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        });
    }

    criterion_group!(smoke_group, smoke_target);

    fn smoke_target(c: &mut Criterion) {
        let mut c2 = std::mem::take(c);
        c2 = c2.measurement_time(Duration::from_millis(2));
        c2.bench_function("macro smoke", |b| b.iter(|| 2 * 2));
        *c = c2;
    }

    #[test]
    fn group_macro_compiles_and_runs() {
        smoke_group();
    }
}
