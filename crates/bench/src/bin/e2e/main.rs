//! `e2e` — the benchmark of record (`BENCHMARK.json` at the repository
//! root names this binary). Seven seeded workloads drive the stack only
//! through public functions — real bytes into `Switch`/`MtSwitch`,
//! encoded LISP messages into `PartitionedMapServer`, host events into
//! `Fabric` — and report five end-to-end metrics with fixed regression
//! bounds; a separate `--trace 1` run records spans around every call
//! into a layer and replays each workload's own inputs into single
//! layers to produce the per-layer table. See `README.md` beside this
//! file for the tables and the reasoning.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! e2e [--seed <n>] [--seconds <s>] [--trace <0|1>] [--runs <n>] [--quick] [--out <file>]
//! e2e compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The second re-executes
//! this binary once per workload (so peak memory and allocator state
//! never leak between workloads) and writes every result to `--out`.

mod compare;
mod ctrl;
mod edge;
mod fabric;
mod harness;
mod json;
mod spec;
#[cfg(test)]
mod tests;

use std::process::ExitCode;

use harness::{drive, RunCfg, RunReport};

/// Command-line options of a benchmark run.
struct Opts {
    workload: Option<String>,
    cfg: RunCfg,
    seconds_given: bool,
    runs: u64,
    out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        cfg: RunCfg {
            seed: 1,
            seconds: spec::DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
        seconds_given: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                o.cfg.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                o.cfg.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(o.cfg.seconds >= 0.0 && o.cfg.seconds <= 3600.0) {
                    return Err(bad(&v));
                }
                o.seconds_given = true;
            }
            "--trace" => {
                o.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                let v = value()?;
                o.runs = v.parse().map_err(|_| bad(&v))?;
            }
            "--out" => o.out = Some(value()?),
            "--quick" => o.cfg.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.cfg.quick && !o.seconds_given {
        o.cfg.seconds = spec::DEFAULT_SECONDS / 100.0;
    }
    Ok(o)
}

fn run_named(name: &str, cfg: &RunCfg) -> Option<RunReport> {
    Some(match name {
        "edge_steady" => drive::<edge::EdgeSteady>(cfg),
        "edge_churn" => drive::<edge::EdgeChurn>(cfg),
        "edge_mt" => drive::<edge::EdgeMt>(cfg),
        "ctrl_resolve" => drive::<ctrl::CtrlResolve>(cfg),
        "ctrl_churn" => drive::<ctrl::CtrlChurn>(cfg),
        "fabric_traffic" => drive::<fabric::FabricTraffic>(cfg),
        "fabric_storm" => drive::<fabric::FabricStorm>(cfg),
        _ => return None,
    })
}

/// Where build outputs live: the trace files go beside them.
fn target_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), std::path::PathBuf::from)
}

/// Renders a finite `f64` as a JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, cfg: &RunCfg) -> ExitCode {
    let (Some(workload), Some(report)) = (spec::workload(name), run_named(name, cfg)) else {
        eprintln!("e2e: unknown workload {name:?}");
        return ExitCode::from(2);
    };
    let (specs, values) = if cfg.trace {
        (spec::PER_LAYER, &report.per_layer)
    } else {
        (spec::END_TO_END, &report.end_to_end)
    };
    println!(
        "{name}: seed {}, {} s, {} batch samples in {} rounds, {} batches per cycle, {} builds{}{}",
        cfg.seed,
        cfg.seconds,
        report.batch_samples,
        report.rounds,
        report.cycle_batches,
        report.setups,
        if cfg.trace { ", traced" } else { "" },
        if cfg.quick {
            ", QUICK (not a measurement)"
        } else {
            ""
        },
    );
    println!("  why: {}", workload.why);
    for note in &report.notes {
        println!("  {note}");
    }
    let counts: Vec<String> = report
        .window_counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("  count window: {}", counts.join(" "));
    let mut metrics = Vec::new();
    for m in specs {
        // A layer this workload does not exercise reports 0.
        let v = values.get(m.name).copied().unwrap_or(0.0);
        if values.contains_key(m.name) {
            println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(m.name),
            num(v),
            json::quote(m.unit)
        ));
    }
    if cfg.trace {
        let path = target_dir().join(format!("e2e_trace.{name}.json"));
        let written = std::fs::create_dir_all(target_dir())
            .and_then(|()| std::fs::write(&path, report.tracer.to_json(name)));
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("e2e: cannot write {}: {e}", path.display()),
        }
    }
    let (correct, attempted, failed) = match &report.outcome {
        Ok(o) => (true, o.attempted, o.failed),
        Err(what) => {
            eprintln!("e2e: ORACLE VIOLATION in {name}: {what}");
            (false, 1, 1)
        }
    };
    println!("  oracle: {attempted} attempted, {failed} failed");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-executes this binary once per workload and run, collecting each
/// child's result line into `--out`.
fn run_all(o: &Opts) -> ExitCode {
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("e2e.json").display().to_string());
    if o.cfg.quick {
        // A quick run must never replace numbers someone could mistake
        // for real ones.
        let existing = std::fs::read_to_string(&out)
            .ok()
            .and_then(|s| json::parse(&s).ok());
        if let Some(doc) = existing {
            if doc.get("quick").and_then(json::Value::as_bool) == Some(false) {
                eprintln!("e2e: --quick refuses to overwrite the full-size results in {out}");
                return ExitCode::from(2);
            }
        }
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    let mut ok = true;
    for w in spec::all_workloads() {
        for run in 0..o.runs {
            let seed = o.cfg.seed + run;
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &o.cfg.seconds.to_string()])
                .args(["--trace", if o.cfg.trace { "1" } else { "0" }]);
            if o.cfg.quick {
                cmd.arg("--quick");
            }
            let child = match cmd.output() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("e2e: cannot run {}: {e}", w.name);
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            ok &= child.status.success();
            if let Some(line) = stdout.lines().last().filter(|l| l.starts_with('{')) {
                results.push(format!(
                    "{{\"workload\": {}, \"seed\": {seed}, \"result\": {line}}}",
                    json::quote(w.name)
                ));
            }
        }
    }
    let doc = format!(
        "{{\"quick\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \"runs\": [\n{}\n]}}\n",
        o.cfg.quick,
        o.cfg.trace,
        num(o.cfg.seconds),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        results.join(",\n")
    );
    let written = std::path::Path::new(&out)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, doc));
    if let Err(e) = written {
        eprintln!("e2e: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!("usage: e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--runs <n>] [--quick] [--out <file>] | e2e compare <a.json> <b.json>");
            return ExitCode::from(2);
        }
    };
    match &opts.workload {
        Some(name) => run_one(name, &opts.cfg),
        None => run_all(&opts),
    }
}
