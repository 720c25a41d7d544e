//! Fig. 9 — border vs. edge FIB entries over three weeks, both
//! buildings (six panels in the paper; here six text blocks).
//!
//! Expected shape per the paper:
//! * border follows presence (day/night + weekday/weekend);
//! * edges hold a fraction of the border's state;
//! * building A's edges retain their caches between workdays and clear
//!   over the weekend;
//! * building B's edges follow the day/night routine more closely
//!   (night chatter triggers negative resolutions that delete entries).
//!
//! Run with: `cargo run --release -p sda-bench --bin fig9_fib_timeseries`

use sda_simnet::SimTime;
use sda_workloads::{CampusParams, CampusScenario};

fn print_weeks(scenario: &CampusScenario, weeks: usize) {
    let metrics = scenario.fabric.metrics();
    let border: Vec<(SimTime, f64)> = metrics.series(&scenario.border_series(0)).to_vec();
    let edges: Vec<Vec<(SimTime, f64)>> = (0..scenario.edges.len())
        .map(|i| metrics.series(&scenario.edge_series(i)).to_vec())
        .collect();

    for week in 0..weeks {
        println!("\nbuilding {} — week {}:", scenario.params.name, week + 1);
        println!("  day hour │ border │ avg edge");
        println!(" ──────────┼────────┼─────────");
        for (idx, (t, b)) in border.iter().enumerate() {
            let hours = t.as_secs_f64() / 3600.0;
            let week_of = (hours / (24.0 * 7.0)) as usize;
            if week_of != week || idx % 6 != 0 {
                continue;
            }
            let e_avg: f64 = edges
                .iter()
                .filter_map(|s| s.get(idx).map(|(_, v)| *v))
                .sum::<f64>()
                / edges.len() as f64;
            let dow =
                ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][((hours / 24.0) as usize) % 7];
            println!(
                "  {dow} {:02}:00 │ {b:6.0} │ {e_avg:8.1}",
                (hours as usize) % 24
            );
        }
    }
}

fn main() {
    for mut params in [CampusParams::building_a(), CampusParams::building_b()] {
        params.days = 21; // three weeks, as plotted in Fig. 9
        println!(
            "═══ building {} — {} endpoints, {} edges, {} border(s) ═══",
            params.name, params.endpoints, params.edges, params.borders
        );
        let mut scenario = CampusScenario::build(params);
        scenario.run();
        print_weeks(&scenario, 3);
        println!();
    }
}
