//! Fig. 11 — CDF of handover delay for the event-driven (LISP) and
//! proactive (BGP) control planes under massive mobility.
//!
//! Full §4.3 scale: 16,000 endpoints, 200 edges (2 physical + 198
//! emulated), 800 mobility events per second. The paper's result: the
//! proactive protocol converges ~10× slower, with visibly higher
//! variance, because it replicates every update to all 200 edges in an
//! order unrelated to who needs it.
//!
//! Run with: `cargo run --release -p sda-bench --bin fig11_handover_cdf`
//! (add `--quick` for a reduced run)

use sda_bench::print_cdf_pair;
use sda_simnet::Summary;
use sda_workloads::{run_bgp, run_lisp, WarehouseParams};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = if quick {
        WarehouseParams::small()
    } else {
        WarehouseParams::default()
    };
    println!(
        "Fig. 11 — warehouse: {} hosts, {} edges, {} moves/s{}",
        params.hosts,
        params.edges,
        params.moves_per_sec,
        if quick { " (quick mode)" } else { "" }
    );

    eprintln!("running reactive (LISP)…");
    let lisp_samples = run_lisp(&params);
    eprintln!("running proactive (BGP route reflector)…");
    let bgp_samples = run_bgp(&params);

    let lisp: Vec<f64> = lisp_samples.iter().filter_map(|s| s.delay_secs()).collect();
    let bgp: Vec<f64> = bgp_samples.iter().filter_map(|s| s.delay_secs()).collect();
    println!(
        "restored: lisp {}/{}  bgp {}/{}",
        lisp.len(),
        lisp_samples.len(),
        bgp.len(),
        bgp_samples.len()
    );

    let ls = Summary::of(&lisp).expect("lisp samples");
    let bs = Summary::of(&bgp).expect("bgp samples");
    println!("\nabsolute handover delay:");
    println!("          │     LISP │      BGP");
    println!(
        " median   │ {:7.2}ms │ {:7.2}ms",
        ls.p50 * 1e3,
        bs.p50 * 1e3
    );
    println!(
        " mean     │ {:7.2}ms │ {:7.2}ms",
        ls.mean * 1e3,
        bs.mean * 1e3
    );
    println!(
        " p95      │ {:7.2}ms │ {:7.2}ms",
        ls.p95 * 1e3,
        bs.p95 * 1e3
    );
    println!(
        " max      │ {:7.2}ms │ {:7.2}ms",
        ls.max * 1e3,
        bs.max * 1e3
    );
    let iqr = |s: &Summary| s.p75 - s.p25;
    println!(
        "\nmean ratio (BGP/LISP): {:.1}×   (paper: ≈10×)",
        bs.mean / ls.mean
    );
    println!(
        "IQR ratio  (BGP/LISP): {:.1}×   (paper: proactive variance consistently higher)",
        iqr(&bs) / iqr(&ls).max(1e-9)
    );

    // The figure itself: CDF of delay relative to the global minimum.
    let unit = ls.min.min(bs.min);
    println!("\nCDF — handover delay relative to minimum (paper x-axis 0–45):");
    print_cdf_pair("LISP", &lisp, "BGP", &bgp, unit, 20);
}
