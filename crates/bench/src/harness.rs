//! The per-layer bench harness: what every `benches/*.rs` main decides
//! the same way, decided once.
//!
//! `cargo bench -p sda-bench --bench <name>` is a full run: 40 samples
//! over 600 ms per row, and the rows written to `BENCH_<short>.json` at
//! the workspace root — the committed baseline — only when the row set
//! and every bar hold, so a rejected run never replaces the baseline
//! with the numbers that failed it. `SDA_BENCH_SMOKE=1
//! cargo bench …` is smoke mode (CI): 10 samples over 60 ms, JSON always
//! written to `target/BENCH_<short>.smoke.json` (that file is the
//! emitter's own check). Schema in both: `[{group, id, median_ns,
//! mean_ns, p95_ns, iterations}]`, one object per row in emission order.
//!
//! Two kinds of check, both printed on stderr. A *ratio* is only
//! printed. A *bar* holds two medians of one run against each other and
//! is enforced in full mode only: shared CI runners are too noisy to
//! gate on time, and absolute times swing 25–75 % hour to hour even on
//! the reference box, which is why no bar names a committed number. So
//! smoke mode enforces the row set alone. Failures are collected and
//! reported together by `finish`. Memory budgets are byte counts, not
//! timings, and live in tier-1 tests beside the code they bound.

use criterion::{BenchResult, Criterion};
use std::fmt::Debug;
use std::ops::RangeBounds;
use std::path::PathBuf;
use std::time::Duration;

/// `(samples, measurement ms, warm-up ms)` per row under smoke.
const SMOKE: (usize, u64, u64) = (10, 60, 20);
/// The same for a full run.
const FULL: (usize, u64, u64) = (40, 600, 200);

/// One bench main's run: its `Criterion`, its mode and its checks.
pub struct Harness {
    /// The rows are benched on this.
    pub criterion: Criterion,
    smoke: bool,
    out: PathBuf,
    failed: Vec<String>,
}

fn out_path(short: &str, smoke: bool, committed: bool) -> PathBuf {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = if committed && !smoke { "" } else { "target/" };
    let mode = if smoke { ".smoke" } else { "" };
    format!("{root}/{dir}BENCH_{short}{mode}.json").into()
}

fn row_set_error(rows: &[BenchResult], expected: &[(&str, &str)]) -> Option<String> {
    let got: Vec<_> = rows.iter().map(|r| (&*r.group, &*r.id)).collect();
    (got != expected).then(|| format!("row set drifted: emitted {got:?}, expected {expected:?}"))
}

impl Harness {
    /// A bench whose full-mode JSON is the committed `BENCH_<short>.json`.
    pub fn new(short: &str) -> Self {
        let smoke = std::env::var("SDA_BENCH_SMOKE").is_ok();
        let (samples, measure_ms, warm_ms) = if smoke { SMOKE } else { FULL };
        Harness {
            criterion: Criterion::default()
                .sample_size(samples)
                .measurement_time(Duration::from_millis(measure_ms))
                .warm_up_time(Duration::from_millis(warm_ms)),
            smoke,
            out: out_path(short, smoke, true),
            failed: Vec::new(),
        }
    }

    /// A figure reproduction: its JSON goes to `target/` in both modes.
    pub fn figure(short: &str) -> Self {
        let h = Self::new(short);
        let out = out_path(short, h.smoke, false);
        Harness { out, ..h }
    }

    /// Median of row `(group, id)` in ns; NaN — which fails any check it
    /// feeds — when the row was not emitted.
    pub fn median(&self, group: &str, id: &str) -> f64 {
        let row = |r: &&BenchResult| r.group == group && r.id == id;
        (self.criterion.results().iter().find(row)).map_or(f64::NAN, |r| r.median_ns)
    }

    /// Prints a ratio nothing is held to.
    pub fn ratio(&self, what: &str, value: f64) {
        eprintln!("ratio  {what}: {value:.2}");
    }

    /// A timing check between rows of this run: enforced in full mode.
    pub fn bar(&mut self, what: &str, value: f64, allowed: impl RangeBounds<f64> + Debug) {
        let line = format!("bar {what}: {value:.3} (allowed {allowed:?})");
        let held = allowed.contains(&value);
        let verdict = match (held, self.smoke) {
            (true, _) => "",
            (false, false) => " — FAILED",
            (false, true) => " — not held; bars are not enforced under smoke",
        };
        eprintln!("{line}{verdict}");
        if !held && !self.smoke {
            self.failed.push(line);
        }
    }

    /// Holds the emitted rows to `expected` (exact `(group, id)` list, in
    /// order), writes the JSON, and panics once naming every failure.
    pub fn finish(mut self, expected: &[(&str, &str)]) {
        self.failed
            .extend(row_set_error(self.criterion.results(), expected));
        let out = self.out.display();
        if self.smoke || self.failed.is_empty() {
            let written = std::fs::create_dir_all(self.out.parent().expect("out has a directory"))
                .and_then(|()| self.criterion.write_json(&self.out));
            written.unwrap_or_else(|e| panic!("write {out}: {e}"));
            eprintln!("wrote {out}");
        }
        let failed = self.failed.join("\n  ");
        assert!(
            failed.is_empty(),
            "checks failed, no committed baseline was replaced:\n  {failed}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn row(id: &str) -> BenchResult {
        let (group, id) = ("g".to_string(), id.to_string());
        BenchResult {
            group,
            id,
            median_ns: 1.0,
            mean_ns: 1.0,
            p95_ns: 1.0,
            iterations: 1,
        }
    }

    fn harness(smoke: bool, file: &str) -> Harness {
        let out = out_path("unit", true, false).with_file_name(file);
        Harness {
            criterion: Criterion::default(),
            smoke,
            out,
            failed: Vec::new(),
        }
    }

    fn panic_of(h: Harness, expected: &[(&str, &str)]) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| h.finish(expected))).expect_err("must fail");
        *err.downcast::<String>().expect("assert! message")
    }

    #[test]
    fn row_set_must_match_exactly_and_in_order_in_both_modes() {
        let rows = [row("a"), row("b")];
        assert_eq!(row_set_error(&rows, &[("g", "a"), ("g", "b")]), None);
        let (missing, extra) = ([("g", "a")], [("g", "a"), ("g", "b"), ("g", "c")]);
        for drifted in [&missing[..], &extra[..], &[("g", "b"), ("g", "a")][..]] {
            assert!(row_set_error(&rows, drifted).is_some(), "{drifted:?}");
        }
        for smoke in [true, false] {
            let msg = panic_of(harness(smoke, "harness_unit_rows.json"), &[("g", "a")]);
            assert!(msg.contains("row set drifted"), "{msg}");
        }
    }

    #[test]
    fn smoke_does_not_enforce_bars_and_writes_under_target() {
        let mut h = harness(true, "harness_unit_smoke.json");
        h.bar("slow", 3.0, ..=1.15);
        h.bar("missing row", f64::NAN, ..=1.15);
        assert!(h.failed.is_empty());
        assert!(out_path("mt", true, true).ends_with("target/BENCH_mt.smoke.json"));
        assert!(out_path("fig7", false, false).ends_with("target/BENCH_fig7.json"));
        assert!(out_path("mt", false, true).ends_with("../../BENCH_mt.json"));
    }

    #[test]
    fn failed_full_run_names_every_failure_and_keeps_the_committed_file() {
        let mut h = harness(false, "harness_unit_full.json");
        std::fs::create_dir_all(h.out.parent().unwrap()).unwrap();
        std::fs::write(&h.out, "committed").unwrap();
        let out = h.out.clone();
        h.bar("slow", 3.0, ..=1.15);
        h.bar("fast enough", 3.0, 2.0..);
        h.bar("missing row", f64::NAN, 2.0..);
        let msg = panic_of(h, &[]);
        assert!(
            msg.contains("slow") && msg.contains("missing row") && !msg.contains("fast enough"),
            "{msg}"
        );
        assert_eq!(std::fs::read_to_string(out).unwrap(), "committed");
    }
}
