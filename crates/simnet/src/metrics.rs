//! Metric collection: counters, sample sets and time series.
//!
//! Every figure in the paper reduces to one of three shapes:
//!
//! * **counters** — e.g. ACL drops vs total packets (Fig. 12),
//! * **sample sets** with percentile summaries — delays (Fig. 7, Fig. 11),
//! * **time series** — FIB entries over days (Fig. 9).
//!
//! [`Metrics`] stores all three by name; [`Summary`] computes the boxplot
//! statistics the paper plots (median, quartiles, 95% whiskers) and the
//! CDF used in Fig. 11.
//!
//! ## Counters: one store, two doors
//!
//! A counter is a slot in one flat array; its name maps to the slot.
//!
//! * **By handle** — [`Metrics::counter_id`] resolves a name once
//!   (register-or-get) and [`Metrics::bump`] / [`Metrics::bump_by`] add
//!   to the slot: an indexed add, no hash. For code that runs per
//!   simulated event and knows its names when it is built — the
//!   simulator's own `simnet.*` counters, the fabric nodes' `fabric.*`.
//! * **By name** — [`Metrics::incr`] / [`Metrics::add`] hash the name on
//!   every call and land on the same slot. For names built at run time
//!   (`format!("{prefix}.flows")`), one-off sites, tests; and
//!   [`Metrics::counter`] is how everything *reads*.
//!
//! Registering a counter does not make it observable: a registered
//! counter nobody bumped reads 0, exactly like a name nobody touched.
//! Sample sets and series have the by-name door only.

use std::collections::HashMap;

use crate::time::SimTime;

/// Handle to one counter of the [`Metrics`] that issued it (see
/// [`Metrics::counter_id`]). Meaningless on any other `Metrics`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(u32);

/// Scenario-wide metric sink.
#[derive(Default, Debug)]
pub struct Metrics {
    /// Counter name → slot in `values`.
    names: HashMap<String, CounterId>,
    values: Vec<u64>,
    samples: HashMap<String, Vec<f64>>,
    series: HashMap<String, Vec<(SimTime, f64)>>,
}

impl Metrics {
    /// The handle of counter `name`, registering it (at 0) on first
    /// sight. Stable for the life of this `Metrics`.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        // `entry` wants an owned key; only a counter's first touch pays
        // for the `String`.
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = CounterId(self.values.len() as u32);
        self.values.push(0);
        self.names.insert(name.to_string(), id);
        id
    }

    /// Increments the counter behind `id` by one.
    pub fn bump(&mut self, id: CounterId) {
        self.bump_by(id, 1);
    }

    /// Adds `delta` to the counter behind `id`.
    ///
    /// # Panics
    /// May panic on an `id` issued by a different `Metrics`.
    pub fn bump_by(&mut self, id: CounterId, delta: u64) {
        self.values[id.0 as usize] += delta;
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        let id = self.counter_id(name);
        self.bump_by(id, delta);
    }

    /// Reads counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.names
            .get(name)
            .map_or(0, |id| self.values[id.0 as usize])
    }

    /// Records one observation into sample set `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(samples) = self.samples.get_mut(name) {
            samples.push(value);
        } else {
            self.samples.insert(name.to_string(), vec![value]);
        }
    }

    /// All observations of sample set `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Appends a `(time, value)` point to series `name`.
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        if let Some(points) = self.series.get_mut(name) {
            points.push((at, value));
        } else {
            self.series.insert(name.to_string(), vec![(at, value)]);
        }
    }

    /// The points of series `name`.
    pub fn series(&self, name: &str) -> &[(SimTime, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Boxplot-style summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// 5th percentile (lower 95%-whisker as in the paper's boxplots).
    pub p05: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Computes a summary; `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = v.len();
        let pct = |p: f64| -> f64 {
            // Nearest-rank with linear interpolation.
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
            }
        };
        Some(Summary {
            count: n,
            min: v[0],
            p05: pct(0.05),
            p25: pct(0.25),
            p50: pct(0.50),
            p75: pct(0.75),
            p95: pct(0.95),
            max: v[n - 1],
            mean: v.iter().sum::<f64>() / n as f64,
        })
    }

    /// Renders the empirical CDF of `samples` at `points` evenly spaced
    /// quantile positions, as `(value, cumulative_fraction)` pairs —
    /// the Fig. 11 plot format.
    pub fn cdf(samples: &[f64], points: usize) -> Vec<(f64, f64)> {
        if samples.is_empty() || points == 0 {
            return Vec::new();
        }
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = v.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let idx = ((frac * n as f64).ceil() as usize).clamp(1, n) - 1;
                (v[idx], frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        assert_eq!(m.counter("x"), 0);
        m.incr("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn both_doors_open_onto_one_counter() {
        let mut m = Metrics::default();
        let x = m.counter_id("x");
        assert_eq!(m.counter("x"), 0, "registered, never bumped");
        assert_eq!(m.counter("never heard of"), 0);
        m.bump(x);
        m.incr("x");
        m.bump_by(x, 3);
        m.add("x", 5);
        assert_eq!(m.counter("x"), 10);
        assert_eq!(m.counter_id("x"), x, "register-or-get");
    }

    #[test]
    fn ids_are_stable_across_interleaved_registrations() {
        let mut m = Metrics::default();
        let a = m.counter_id("a");
        m.incr("by_name_first");
        let b = m.counter_id("b");
        let late = m.counter_id("by_name_first");
        for name in ["c", "d", "e", "f", "g", "h"] {
            m.incr(name); // grows the store under the ids already out
        }
        m.bump(a);
        m.bump_by(b, 2);
        m.bump(late);
        assert_eq!((m.counter_id("a"), m.counter_id("b")), (a, b));
        let read = |name| m.counter(name);
        assert_eq!((read("a"), read("b"), read("by_name_first")), (1, 2, 2));
        assert_eq!(read("c"), 1, "neighbours untouched");
    }

    #[test]
    fn names_built_at_run_time_round_trip() {
        // Each `format!` temporary is freed before the next is built, so
        // the allocator hands out one address for different names:
        // identity must be the name's bytes, never its pointer.
        let mut m = Metrics::default();
        for round in 0..3 {
            for i in 0..8 {
                m.add(&format!("deliver.{i}"), i + round);
            }
        }
        for i in 0..8 {
            let id = m.counter_id(&format!("deliver.{i}"));
            m.bump(id);
            assert_eq!(m.counter(&format!("deliver.{i}")), 3 * i + 3 + 1);
        }
    }

    #[test]
    fn summary_of_known_distribution() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!(s.p25 < s.p50 && s.p50 < s.p75);
        assert!(s.p05 < s.p25 && s.p75 < s.p95);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let samples: Vec<f64> = (0..1000).map(|i| (i % 37) as f64).collect();
        let cdf = Summary::cdf(&samples, 20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values must be nondecreasing");
            assert!(w[0].1 < w[1].1, "fractions must increase");
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.last().unwrap().0, 36.0);
    }

    #[test]
    fn series_preserve_order() {
        let mut m = Metrics::default();
        m.record("fib", SimTime::from_nanos(1), 10.0);
        m.record("fib", SimTime::from_nanos(2), 12.0);
        let s = m.series("fib");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].1, 10.0);
        assert_eq!(s[1].1, 12.0);
    }
}
