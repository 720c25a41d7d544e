//! CI's exact-count budgets: allocations per message, packet or send,
//! and simulator events per storm op. Unlike every timing in the benches
//! these *are* gated on shared runners: each count repeats exactly per
//! seed on any machine, so a limit a few percent above today's reading
//! catches a change that costs more work, not a slower runner. No
//! arguments: runs the `e2e` binary beside this one (`cargo build
//! --release` puts both in `target/release/`) once per row of
//! [`BUDGETS`] as `--quick --workload <w> --seed 1 --trace 1`, reads
//! the metric off the result line — the last line of stdout — and exits
//! non-zero if any run is incorrect, lacks the metric or exceeds its
//! limit.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

// The benchmark's own reader, read-only; this bin calls part of it.
#[allow(dead_code)]
#[path = "e2e/json.rs"]
mod json;
use json::Value;

/// `(workload, metric, limit)`.
const BUDGETS: [(&str, &str, f64); 5] = [
    // Control plane. A move is five emitted messages plus one outbox =
    // 6.02; a resolve mix is 95 % requests at one outbox plus one reply
    // = 1.90 (before the codec sized its buffer up front: 21.1 / 4.75).
    ("ctrl_churn", "ctrl.allocs_per_msg", 6.5),
    ("ctrl_resolve", "ctrl.allocs_per_msg", 2.0),
    // Data plane. The engine allocates nothing per packet, so traced
    // quick `edge_steady` must print exactly 0; a fabric send costs
    // 1.149 allocations at quick scale (1.229 while every egress policy
    // drop built its `acl.drops.<node>` key), gated at +5 %.
    ("edge_steady", "dataplane.allocs_per_pkt", 0.0),
    ("fabric_traffic", "core.allocs_per_send", 1.21),
    // Event economy. A quick storm op costs 71.77 simulator events
    // (75.34 before wakes left the heap for their own lane, an empty
    // map-cache parked its sweep and a lost delta cost its gap), gated
    // at +2 %.
    ("fabric_storm", "simnet.events_per_op", 73.2),
];

/// Holds one result line to `limit` on `metric`; `Ok` is the value read.
/// The line is another process's output, so nothing about it is assumed.
fn check(line: &str, metric: &str, limit: f64) -> Result<f64, String> {
    let result = json::parse(line).map_err(|e| format!("result line is not JSON ({e})"))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err("oracle violation: `correct` is not true".to_string());
    }
    let value = (result.get("metrics"))
        .and_then(|metrics| metrics.get(metric)?.get("value")?.as_f64())
        .ok_or_else(|| format!("the result line has no metric `{metric}`"))?;
    if value > limit {
        return Err(format!("{metric} {value:.3} > limit {limit}"));
    }
    Ok(value)
}

/// Runs one traced quick workload; `Ok` is its result line.
fn result_line(e2e: &Path, workload: &str) -> Result<String, String> {
    let out = Command::new(e2e)
        .args(["--quick", "--workload", workload])
        .args(["--seed", "1", "--trace", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {} ({e}); build it first", e2e.display()))?;
    if !out.status.success() {
        return Err(format!("e2e failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.trim_end().lines().last();
    last.map(str::to_string)
        .ok_or_else(|| "e2e printed nothing".to_string())
}

fn main() -> ExitCode {
    let e2e = std::env::current_exe()
        .expect("this binary has a path")
        .with_file_name(format!("e2e{}", std::env::consts::EXE_SUFFIX));
    let mut code = ExitCode::SUCCESS;
    for (workload, metric, limit) in BUDGETS {
        match result_line(&e2e, workload).and_then(|line| check(&line, metric, limit)) {
            Ok(value) => println!("{workload}: {metric} {value:.3} (limit {limit})"),
            Err(why) => {
                eprintln!("{workload}: FAILED — {why}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::check;

    const METRIC: &str = "ctrl.allocs_per_msg";
    const LINE: &str = r#"{"correct": true, "failed": 0, "metrics":
        {"ctrl.allocs_per_msg": {"value": 6.02, "unit": "count"}}}"#;

    #[test]
    fn a_correct_line_within_its_limit_passes_with_the_value() {
        assert_eq!(check(LINE, METRIC, 6.5), Ok(6.02));
        // Any budgeted count reads the same way, events per op included.
        let storm = r#"{"correct": true, "metrics":
            {"simnet.events_per_op": {"value": 71.77, "unit": "count"}}}"#;
        assert_eq!(check(storm, "simnet.events_per_op", 73.2), Ok(71.77));
        assert!(check(storm, "simnet.events_per_op", 71.0).is_err());
    }

    #[test]
    fn every_bad_line_is_an_error_message_not_a_panic() {
        let why = |line: &str, metric, limit| check(line, metric, limit).unwrap_err();
        assert!(why(LINE, METRIC, 6.0).contains("6.020 > limit 6"));
        let incorrect = LINE.replace("true", "false");
        assert!(why(&incorrect, METRIC, 6.5).contains("oracle violation"));
        assert!(why(LINE, "core.allocs_per_send", 9.0).contains("no metric"));
        assert!(why("thread 'main' panicked at …", METRIC, 6.5).contains("not JSON"));
        assert!(why("", METRIC, 6.5).contains("not JSON"));
    }
}
