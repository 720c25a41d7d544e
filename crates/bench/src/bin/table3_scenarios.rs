//! Tables 3 & 4 — the deployment inventory, printed from the same
//! scenario constructors every experiment uses (so the table can never
//! drift from the code).
//!
//! Run with: `cargo run -p sda-bench --bin table3_scenarios`

use sda_workloads::CampusParams;
use sda_workloads::WarehouseParams;

fn main() {
    let a = CampusParams::building_a();
    let b = CampusParams::building_b();
    let w = WarehouseParams::default();

    println!("Table 3 — deployments used for evaluation\n");
    println!(" Deployment  │ #Border │ #Edge │ Endpoints");
    println!("─────────────┼─────────┼───────┼──────────");
    println!(
        " Building A  │ {:>7} │ {:>5} │ {:>9}",
        a.borders, a.edges, a.endpoints
    );
    println!(
        " Building B  │ {:>7} │ {:>5} │ {:>9}",
        b.borders, b.edges, b.endpoints
    );
    println!(
        " Warehouse   │ {:>7} │ {:>5} │ {:>9}  (emulated)",
        1, w.edges, w.hosts
    );

    println!("\nTable 4 — campus deployment details\n");
    println!("                 │ Bldg. A │ Bldg. B");
    println!("─────────────────┼─────────┼────────");
    println!(" Border routers  │ {:>7} │ {:>7}", a.borders, b.borders);
    println!(" Edge routers    │ {:>7} │ {:>7}", a.edges, b.edges);
    println!(" Floors          │ {:>7} │ {:>7}", 3, 3);
    println!(" AP per floor    │ {:>7} │ {:>7}", 40, 40);
    println!(" Total AP        │ {:>7} │ {:>7}", 120, 120);
    println!(
        " AP per edge     │ {:>7} │ {:>7}",
        120 / a.edges,
        120 / b.edges
    );

    println!(
        "\nwarehouse workload (§4.3): {} moves/s — {:.1}% of endpoints move per second",
        w.moves_per_sec,
        w.moves_per_sec / w.hosts as f64 * 100.0
    );
}
