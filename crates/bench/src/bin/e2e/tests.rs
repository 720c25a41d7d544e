//! Unit tests of the benchmark itself, at `--quick` sizes: every
//! workload replays exactly from its seed, the metric vocabulary matches
//! `BENCHMARK.json`, spans nest, and `compare` judges as documented.

use crate::compare::{judge, spread, Status};
use crate::harness::{batch_times, drive, percentile, quiet, RunCfg, RunReport, Span, Workload};
use crate::spec::{self, Better};
use crate::{ctrl, edge, fabric, json};

/// A run of little more than the count window, at quick sizes.
fn quick(seed: u64, trace: bool) -> RunCfg {
    RunCfg {
        seed,
        // A traced run needs rounds past the (untraced) window.
        seconds: if trace { 0.02 } else { 0.0 },
        trace,
        quick: true,
    }
}

/// Same seed ⇒ identical counters and oracle tallies; another seed ⇒
/// another input stream.
fn replays_from_seed<W: Workload>() {
    let run = |seed| {
        let r: RunReport = drive::<W>(&quick(seed, false));
        let outcome = r.outcome.expect("oracle holds at quick sizes");
        assert!(outcome.attempted > 0);
        (r.window_counts, outcome)
    };
    let (a, b, c) = (run(7), run(7), run(8));
    assert_eq!(a, b, "same seed must repeat exactly");
    assert_ne!(a.0, c.0, "another seed must give another input stream");
}

#[test]
fn edge_steady_replays_from_seed() {
    replays_from_seed::<edge::EdgeSteady>();
}

#[test]
fn edge_churn_replays_from_seed() {
    replays_from_seed::<edge::EdgeChurn>();
}

#[test]
fn edge_mt_replays_from_seed() {
    replays_from_seed::<edge::EdgeMt>();
}

#[test]
fn ctrl_resolve_replays_from_seed() {
    replays_from_seed::<ctrl::CtrlResolve>();
}

#[test]
fn ctrl_churn_replays_from_seed() {
    replays_from_seed::<ctrl::CtrlChurn>();
}

#[test]
fn fabric_traffic_replays_from_seed() {
    replays_from_seed::<fabric::FabricTraffic>();
}

#[test]
fn fabric_storm_replays_from_seed() {
    replays_from_seed::<fabric::FabricStorm>();
}

/// Every emitted name is in the spec tables, and spans nest.
fn traced_run_is_well_formed<W: Workload>() {
    let r = drive::<W>(&quick(3, true));
    r.outcome.expect("oracle holds at quick sizes");
    for name in r.end_to_end.keys() {
        assert!(
            spec::END_TO_END.iter().any(|m| m.name == *name),
            "{name} is not a declared end-to-end metric"
        );
    }
    for m in spec::END_TO_END {
        assert!(
            r.end_to_end[m.name] > 0.0,
            "{} must be reported and non-zero",
            m.name
        );
    }
    for (name, value) in &r.per_layer {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a declared per-layer metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
    }
    let records = r.tracer.records();
    assert!(!records.is_empty(), "a traced run records spans");
    for rec in records {
        assert!(rec.start_ns <= rec.end_ns);
        if let Some(parent) = records.get(rec.parent as usize) {
            assert!(
                parent.start_ns <= rec.start_ns && rec.end_ns <= parent.end_ns,
                "{rec:?} does not nest inside {parent:?}"
            );
            assert_eq!(parent.batch, rec.batch, "a batch's spans share its id");
        }
    }
    for span in Span::ALL {
        let t = r.tracer.total(span);
        assert!(
            t.self_ns <= t.total_ns,
            "{span:?} self time exceeds its total"
        );
    }
}

#[test]
fn edge_traced_runs_are_well_formed() {
    traced_run_is_well_formed::<edge::EdgeSteady>();
    traced_run_is_well_formed::<edge::EdgeChurn>();
    traced_run_is_well_formed::<edge::EdgeMt>();
}

#[test]
fn ctrl_traced_runs_are_well_formed() {
    traced_run_is_well_formed::<ctrl::CtrlResolve>();
    traced_run_is_well_formed::<ctrl::CtrlChurn>();
}

#[test]
fn fabric_traced_runs_are_well_formed() {
    traced_run_is_well_formed::<fabric::FabricTraffic>();
    traced_run_is_well_formed::<fabric::FabricStorm>();
}

fn well_formed_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn spec_tables_obey_the_contract() {
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    let mut names: Vec<&str> = spec::all_workloads().map(|w| w.name).collect();
    names.extend(
        spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER)
            .map(|m| m.name),
    );
    for name in &names {
        assert!(well_formed_name(name), "{name}");
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used once");
    for w in spec::all_workloads() {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(m.unit.len() <= 16 && m.unit.chars().all(ok), "{}", m.unit);
    }
    for m in spec::END_TO_END {
        assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("the contract requires setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

/// `BENCHMARK.json`, found by walking up from this package's manifest
/// (the file sits at the repository root under either manifest).
fn benchmark_json() -> json::Value {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.exists() {
            let text = std::fs::read_to_string(candidate).expect("readable");
            return json::parse(&text).expect("BENCHMARK.json is JSON");
        }
        assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_spec() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let str_of =
        |v: &json::Value, k: &str| v.get(k).and_then(json::Value::as_str).unwrap().to_string();

    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    let want: Vec<(String, String)> = spec::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, want);

    for (key, table) in [
        ("end_to_end", spec::END_TO_END),
        ("per_layer", spec::PER_LAYER),
    ] {
        let listed = doc.get(key).unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (got, want) in listed.iter().zip(table) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(str_of(got, "better"), want.better.as_str(), "{}", want.name);
            assert_eq!(
                got.get("bound").and_then(json::Value::as_f64),
                want.bound,
                "{}",
                want.name
            );
        }
    }
    assert_eq!(
        doc.get("run_seconds").and_then(json::Value::as_f64),
        Some(spec::DEFAULT_SECONDS)
    );
    let paths = doc.get("paths").unwrap().as_arr().unwrap();
    assert_eq!(paths.len(), 1);
    let path = paths[0].as_str().unwrap();
    let command = doc.get("command").unwrap().as_arr().unwrap();
    assert!(
        command
            .iter()
            .any(|c| c.as_str().is_some_and(|c| c.starts_with(path))),
        "the command names a file under {path}"
    );
}

#[test]
fn quiet_is_the_fastest_fiftieth() {
    let mut v: Vec<u64> = (1..=1000).rev().collect();
    assert_eq!(quiet(&mut v), 21);
    // Fewer than fifty repeats: the minimum.
    assert_eq!(quiet(&mut [9u32, 4, 7]), 4);
    assert_eq!(quiet::<u32>(&mut []), 0);
}

#[test]
fn batch_times_take_each_batch_across_cycles() {
    // Three cycles of three batches, the last cut short: batch 0 was
    // timed 5, 6 and 4, batch 1 was 9, 3 and 8, batch 2 was 7 and 2.
    let samples = [5, 9, 7, 6, 3, 2, 4, 8];
    assert_eq!(batch_times(&samples, 3), [4, 3, 2]);
    assert_eq!(batch_times(&samples, 100), samples);
    assert!(batch_times(&[], 3).is_empty());
}

#[test]
fn percentiles_are_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.50), 50);
    assert_eq!(percentile(&v, 0.99), 99);
    assert_eq!(percentile(&v, 1.0), 100);
    assert_eq!(percentile(&[7u32], 0.99), 7);
    assert_eq!(percentile::<u64>(&[], 0.5), 0);
}

#[test]
fn spread_matches_python_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(spread(&[3.0]), 0.0);
}

#[test]
fn compare_judges_as_documented() {
    let steady = |x: f64| vec![x, x * 1.01, x * 0.99, x * 1.005, x * 0.995];
    let row = judge(Better::Higher, Some(0.10), &steady(100.0), &steady(97.0));
    assert_eq!(row.status, Status::Ok, "3 % down is inside a 10 % bound");
    let row = judge(Better::Higher, Some(0.10), &steady(100.0), &steady(80.0));
    assert!((row.worse - 0.2).abs() < 0.01);
    assert_eq!((row.median_a, row.median_b), (100.0, 80.0));
    assert_eq!(row.status, Status::Regressed);
    let row = judge(Better::Lower, Some(0.10), &steady(100.0), &steady(80.0));
    assert_eq!(
        row.status,
        Status::Ok,
        "lower is better: 20 % down is a gain"
    );
    let noisy = vec![60.0, 100.0, 140.0, 80.0, 120.0];
    let row = judge(Better::Lower, Some(0.10), &noisy, &noisy);
    assert!(row.noise > 0.10);
    assert_eq!(row.status, Status::Unresolved);
    let row = judge(Better::Lower, None, &steady(1.0), &steady(9.0));
    assert_eq!(row.status, Status::Info, "per-layer metrics carry no bound");
}
