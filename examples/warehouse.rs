//! Warehouse mobility: a reduced version of the §4.3 experiment,
//! comparing handover delay under the reactive (LISP) and proactive
//! (BGP route-reflector) control planes.
//!
//! Run with: `cargo run --release -p sda-examples --bin warehouse`
//! (the full 16k-host/200-edge version lives in the bench harness:
//! `cargo run --release -p sda-bench --bin fig11_handover_cdf`)

use sda_simnet::Summary;
use sda_workloads::{run_bgp, run_lisp, WarehouseParams};

fn main() {
    let mut params = WarehouseParams::small();
    params.hosts = 1000;
    params.edges = 40;
    params.moves_per_sec = 200.0;
    params.measured_moves = 100;
    println!(
        "warehouse: {} robots over {} edges, {} moves/s",
        params.hosts, params.edges, params.moves_per_sec
    );

    println!("\nrunning reactive (LISP)…");
    let lisp: Vec<f64> = run_lisp(&params)
        .iter()
        .filter_map(|s| s.delay_secs())
        .collect();
    println!("running proactive (BGP route reflector)…");
    let bgp: Vec<f64> = run_bgp(&params)
        .iter()
        .filter_map(|s| s.delay_secs())
        .collect();

    let ls = Summary::of(&lisp).expect("lisp samples");
    let bs = Summary::of(&bgp).expect("bgp samples");

    println!("\n                 │   LISP (reactive) │   BGP (proactive)");
    println!("─────────────────┼───────────────────┼──────────────────");
    let row = |name: &str, a: f64, b: f64| {
        println!(" {name:<15} │ {:>14.2} ms │ {:>13.2} ms", a * 1e3, b * 1e3);
    };
    row("median", ls.p50, bs.p50);
    row("mean", ls.mean, bs.mean);
    row("p95", ls.p95, bs.p95);
    row("max", ls.max, bs.max);
    println!(
        "\nproactive/reactive mean ratio: {:.1}× (paper: ~10×)",
        bs.mean / ls.mean
    );

    // The Fig. 11 rendering: CDF of delay relative to the global minimum.
    let unit = ls.min.min(bs.min);
    println!("\nCDF (delay relative to minimum observed):");
    println!("  frac │  LISP │   BGP");
    for (l, b) in Summary::cdf(&lisp, 10).iter().zip(Summary::cdf(&bgp, 10)) {
        println!("  {:>4.1} │ {:>5.1} │ {:>5.1}", l.1, l.0 / unit, b.0 / unit);
    }
}
