//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so this crate provides the
//! benchmark-harness API subset the workspace uses: [`Criterion`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`],
//! [`BenchmarkId`] and [`black_box`].
//!
//! Measurement model: per benchmark, a warm-up phase sizes the per-sample
//! iteration count, then `sample_size` samples are taken, each timing a
//! fixed iteration batch. The reported statistics are the per-iteration
//! median / mean / p95 across samples — the same quantities the real
//! criterion prints, without its bootstrap analysis.
//!
//! Beyond the real API, [`Criterion::results`] and
//! [`Criterion::write_json`] expose the collected numbers so benches can
//! emit machine-readable `BENCH_*.json` baselines (see ROADMAP.md
//! "Benchmarks").

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished benchmark measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark group name.
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// 95th-percentile time per iteration, nanoseconds.
    pub p95_ns: f64,
    /// Total iterations measured (excludes warm-up).
    pub iterations: u64,
}

/// Identifies one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Id from a single parameter (e.g. a size sweep point).
    pub fn from_parameter<P: Display>(p: P) -> Self {
        BenchmarkId { id: p.to_string() }
    }

    /// Id from a function name plus parameter.
    pub fn new<S: Into<String>, P: Display>(name: S, p: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), p),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 10, "sample_size must be at least 10");
        self.sample_size = n;
        self
    }

    /// Sets the target total measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up time per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// All measurements collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes collected measurements as a JSON array to `path`.
    ///
    /// Schema: `[{group, id, median_ns, mean_ns, p95_ns, iterations}]`,
    /// ordered as measured. Hand-rendered (no serde in the offline build).
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut s = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i + 1 == self.results.len() { "" } else { "," };
            s.push_str(&format!(
                "  {{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {:.2}, \
                 \"mean_ns\": {:.2}, \"p95_ns\": {:.2}, \"iterations\": {}}}{}\n",
                escape(&r.group),
                escape(&r.id),
                r.median_ns,
                r.mean_ns,
                r.p95_ns,
                r.iterations,
                sep,
            ));
        }
        s.push_str("]\n");
        std::fs::write(path, s)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher::new(
            self.criterion.sample_size,
            self.criterion.measurement_time,
            self.criterion.warm_up_time,
        );
        f(&mut b, input);
        self.record(id, b);
        self
    }

    fn record(&mut self, id: BenchmarkId, b: Bencher) {
        let r = b.into_result(&self.name, &id.id);
        eprintln!(
            "{}/{:<12} median {:>12} mean {:>12} p95 {:>12} ({} iters)",
            r.group,
            r.id,
            fmt_ns(r.median_ns),
            fmt_ns(r.mean_ns),
            fmt_ns(r.p95_ns),
            r.iterations,
        );
        self.criterion.results.push(r);
    }

    /// Closes the group.
    pub fn finish(self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] exactly once.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples_ns_per_iter: Vec<f64>,
    total_iters: u64,
}

impl Bencher {
    fn new(sample_size: usize, measurement_time: Duration, warm_up_time: Duration) -> Self {
        Bencher {
            sample_size,
            measurement_time,
            warm_up_time,
            samples_ns_per_iter: Vec::new(),
            total_iters: 0,
        }
    }

    /// Measures `f`, called in timed batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run until warm_up_time elapses, measuring speed.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut batch: u64 = 1;
        while warm_start.elapsed() < self.warm_up_time {
            for _ in 0..batch {
                black_box(f());
            }
            warm_iters += batch;
            batch = (batch * 2).min(1 << 20);
        }
        let warm_elapsed = warm_start.elapsed().as_nanos().max(1) as f64;
        let ns_per_iter_est = warm_elapsed / warm_iters.max(1) as f64;

        // Size each sample so all samples fit in measurement_time.
        let per_sample_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let iters_per_sample = ((per_sample_ns / ns_per_iter_est) as u64).max(1);

        self.samples_ns_per_iter.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = t.elapsed().as_nanos() as f64;
            self.samples_ns_per_iter
                .push(elapsed / iters_per_sample as f64);
            self.total_iters += iters_per_sample;
        }
    }

    fn into_result(self, group: &str, id: &str) -> BenchResult {
        let mut v = self.samples_ns_per_iter;
        assert!(!v.is_empty(), "Bencher::iter was never called");
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let median = v[v.len() / 2];
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let p95 = v[(v.len() * 95 / 100).min(v.len() - 1)];
        BenchResult {
            group: group.to_string(),
            id: id.to_string(),
            median_ns: median,
            mean_ns: mean,
            p95_ns: p95,
            iterations: self.total_iters,
        }
    }
}
