//! Campus week: run building A's diurnal workload for one week and
//! print the border-vs-edge FIB story of Fig. 9 as an hourly table.
//!
//! Run with: `cargo run --release -p sda-examples --bin campus`

use sda_workloads::{CampusParams, CampusScenario};

fn main() {
    let mut params = CampusParams::building_a();
    params.days = 7;
    println!(
        "building {}: {} endpoints, {} edges, {} border(s), {:.0}% always-on",
        params.name,
        params.endpoints,
        params.edges,
        params.borders,
        params.always_on_share * 100.0
    );

    let mut scenario = CampusScenario::build(params);
    scenario.run();

    let metrics = scenario.fabric.metrics();
    let border = metrics.series(&scenario.border_series(0));
    // Average the edge series hour by hour.
    let edge_series: Vec<_> = (0..scenario.edges.len())
        .map(|i| metrics.series(&scenario.edge_series(i)))
        .collect();

    println!("\n hour │ border FIB │ avg edge FIB");
    println!("──────┼────────────┼─────────────");
    for (idx, (t, b)) in border.iter().enumerate() {
        let hour = t.as_secs_f64() / 3600.0;
        // Print every 4th sample to keep the table readable.
        if idx % 4 != 0 {
            continue;
        }
        let edge_avg: f64 = edge_series
            .iter()
            .filter_map(|s| s.get(idx).map(|(_, v)| *v))
            .sum::<f64>()
            / edge_series.len() as f64;
        let day = (hour / 24.0) as usize;
        let dow = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][day % 7];
        println!(
            " {dow} {:02}h │ {b:10.0} │ {edge_avg:12.1}",
            (hour as usize) % 24
        );
    }

    // Week summary: the Table 5 statistic.
    let avg = |v: &[(sda_simnet::SimTime, f64)]| {
        v.iter().map(|(_, x)| *x).sum::<f64>() / v.len().max(1) as f64
    };
    let border_avg = avg(border);
    let edge_avg: f64 = edge_series.iter().map(|s| avg(s)).sum::<f64>() / edge_series.len() as f64;
    println!(
        "\nweek averages: border={border_avg:.0}  edge={edge_avg:.0}  (edge/border = {:.0}%)",
        edge_avg / border_avg * 100.0
    );
}
