//! Prints one of the paper's figures, tables or design studies at the
//! paper's scale (see `sda_bench::figures`).
//!
//! Run with: `cargo run --release -p sda-bench --bin figs -- <name>`,
//! `<name>` one of `NAMES`; `fig11 --quick` runs Fig. 11 at
//! `WarehouseParams::small()`.

use sda_bench::figures::*;
use sda_workloads::{CampusParams, WarehouseParams};
use std::process::ExitCode;

const NAMES: &str = "fig7a fig7b fig7c fig9 table3 table5 fig11 fig12 ablation_border_sync \
    ablation_enforcement_point ablation_policy_update ablation_sharding";

/// Fig. 7a/7b's configured-route counts.
const ROUTES: [u32; 4] = [10, 100, 1_000, 10_000];

/// Both buildings, run for `days` days.
fn buildings(days: usize) -> [CampusParams; 2] {
    [CampusParams::building_a(), CampusParams::building_b()].map(|p| CampusParams { days, ..p })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    match args.iter().find(|a| *a != "--quick").map(String::as_str) {
        Some("fig7a") => print_fig7a(&fig7a(&ROUTES)),
        Some("fig7b") => print_fig7b(&fig7b(&ROUTES)),
        Some("fig7c") => print_fig7c(&fig7c(&[500, 1_000, 1_500, 2_000])),
        // Three weeks, as plotted.
        Some("fig9") => buildings(21)
            .into_iter()
            .for_each(|p| print_fig9(&campus_fib(p))),
        Some("table3") => print_table3(
            &CampusParams::building_a(),
            &CampusParams::building_b(),
            &WarehouseParams::default(),
        ),
        // Five weeks.
        Some("table5") => print_table5(&buildings(35).map(table5)),
        Some("fig11") => {
            let params = if quick {
                WarehouseParams::small()
            } else {
                WarehouseParams::default()
            };
            print_fig11(&params, quick, &fig11(&params));
        }
        Some("fig12") => print_fig12(&fig12(&PROFILES)),
        Some("ablation_border_sync") => print_border_sync(&ablation_border_sync()),
        Some("ablation_enforcement_point") => {
            print_enforcement_point(&ablation_enforcement_point())
        }
        Some("ablation_policy_update") => print_policy_update(&ablation_policy_update()),
        Some("ablation_sharding") => print_sharding(&ablation_sharding()),
        _ => {
            eprintln!("usage: figs <name> [--quick]; names: {NAMES}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
