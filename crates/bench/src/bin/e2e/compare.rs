//! `e2e compare <a.json> <b.json>`: one row per (metric, workload) of two
//! result files written by `e2e --out`, with both medians, the relative
//! change, the metric's bound and the run-to-run spread.
//!
//! A row is `regressed` when `b` is worse than `a` by more than the
//! bound *and* by more than the spread, `unresolved` when the spread is
//! wider than the bound (the runs cannot show the metric unchanged),
//! `ok` otherwise; per-layer metrics and the ungated workloads carry no
//! bound and are `info`.
//! The exit code is non-zero on any `regressed` row or when `b` failed a
//! larger share of its operations than `a`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::harness::median;
use crate::json::{self, Value};
use crate::spec::{self, Better};

/// One file's results, per workload.
#[derive(Default)]
struct Results {
    quick: bool,
    /// `(workload, metric)` → one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// workload → `(attempted, failed)` summed over its runs.
    oracle: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut r = Results {
        quick: doc.get("quick").and_then(Value::as_bool).unwrap_or(false),
        ..Results::default()
    };
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    for run in runs {
        let (Some(workload), Some(result)) = (
            run.get("workload").and_then(Value::as_str),
            run.get("result"),
        ) else {
            return Err(format!("{path}: a run lacks \"workload\" or \"result\""));
        };
        let num = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let o = r.oracle.entry(workload.to_string()).or_default();
        o.0 += num("attempted");
        o.1 += num("failed");
        let metrics = result.get("metrics").and_then(Value::as_obj);
        for (name, m) in metrics.into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                r.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(r)
}

/// Distance between the first and third quartile as a share of the
/// median — quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them. 0 for fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    let mid = median(&mut v);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
    Info,
}

/// One row of the comparison.
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse `b` is, as a share of `a` (negative = better).
    pub worse: f64,
    /// The wider of the two files' spreads.
    pub noise: f64,
    pub status: Status,
}

/// The verdict for one (metric, workload) pair.
pub fn judge(better: Better, bound: Option<f64>, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse = match (ma == 0.0, better) {
        (true, _) => 0.0,
        (false, Better::Lower) => (mb - ma) / ma.abs(),
        (false, Better::Higher) => (ma - mb) / ma.abs(),
    };
    let noise = spread(a).max(spread(b));
    let status = match bound {
        None => Status::Info,
        Some(bound) if worse > bound && worse > noise => Status::Regressed,
        Some(bound) if noise > bound => Status::Unresolved,
        Some(_) => Status::Ok,
    };
    Row {
        median_a: ma,
        median_b: mb,
        worse,
        noise,
        status,
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: e2e compare <a.json> <b.json>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e compare: {e}");
            return ExitCode::from(2);
        }
    };
    if a.quick || b.quick {
        println!("NOTE: a --quick file is being compared; its numbers are not measurements");
    }
    println!(
        "{:<16} {:<36} {:<6} {:>14} {:>14} {:>8} {:>7} {:>7}  status",
        "workload", "metric", "better", "a (median)", "b (median)", "worse", "bound", "spread"
    );
    let mut failed = false;
    for w in spec::all_workloads() {
        // An ungated workload is shown, never judged.
        let gated = spec::WORKLOADS.iter().any(|g| g.name == w.name);
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let bound = m.bound.filter(|_| gated);
            let row = judge(m.better, bound, va, vb);
            failed |= row.status == Status::Regressed;
            println!(
                "{:<16} {:<36} {:<6} {:>14.4} {:>14.4} {:>+7.1}% {:>7} {:>6.1}%  {}",
                w.name,
                m.name,
                m.better.as_str(),
                row.median_a,
                row.median_b,
                row.worse * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                row.noise * 100.0,
                match row.status {
                    Status::Ok => "ok",
                    Status::Regressed => "regressed",
                    Status::Unresolved => "unresolved",
                    Status::Info => "info",
                }
            );
        }
        let share = |r: &Results| {
            r.oracle
                .get(w.name)
                .map_or(0.0, |(attempted, failed)| failed / attempted.max(1.0))
        };
        let (fa, fb) = (share(&a), share(&b));
        if fb > fa {
            println!(
                "{:<16} failed share rose from {fa} to {fb}: regressed",
                w.name
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
