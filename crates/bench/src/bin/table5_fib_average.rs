//! Table 5 — average FIB entries over a 5-week period, split into all /
//! working hours (9:00–19:00) / nighttime, for border and edge routers
//! of both buildings, plus the headline edge-vs-border state reduction.
//!
//! Paper's numbers:
//! ```text
//!            Building A        Building B
//! Border  all 50 day 85 night 19   all 291 day 362 night 227
//! Edge    all 42 day 47 night 38   all  34 day  42 night  27
//! Decrease(all)   16%                   88%
//! ```
//!
//! Run with: `cargo run --release -p sda-bench --bin table5_fib_average`

use sda_bench::day_night_split;
use sda_workloads::{CampusParams, CampusScenario};

struct Row {
    building: &'static str,
    border: sda_bench::DayNight,
    edge: sda_bench::DayNight,
}

fn run(mut params: CampusParams) -> Row {
    params.days = 35; // five weeks
    let building = params.name;
    let mut scenario = CampusScenario::build(params);
    scenario.run();
    let metrics = scenario.fabric.metrics();
    let to_hours = |s: &[(sda_simnet::SimTime, f64)]| -> Vec<(f64, f64)> {
        s.iter()
            .map(|(t, v)| (t.as_secs_f64() / 3600.0, *v))
            .collect()
    };
    let border = day_night_split(&to_hours(metrics.series(&scenario.border_series(0))))
        .expect("border series");
    // Pool all edge samples.
    let mut edge_samples: Vec<(f64, f64)> = Vec::new();
    for i in 0..scenario.edges.len() {
        edge_samples.extend(to_hours(metrics.series(&scenario.edge_series(i))));
    }
    let edge = day_night_split(&edge_samples).expect("edge series");
    Row {
        building,
        border,
        edge,
    }
}

fn main() {
    println!("Table 5 — average FIB entries, 5-week run (measured | paper)\n");
    let rows: Vec<Row> = [CampusParams::building_a(), CampusParams::building_b()]
        .into_iter()
        .map(run)
        .collect();

    let paper: &[(&str, [f64; 6])] = &[
        ("A", [50.0, 85.0, 19.0, 42.0, 47.0, 38.0]),
        ("B", [291.0, 362.0, 227.0, 34.0, 42.0, 27.0]),
    ];

    println!(" Router │ Period │   A meas │  A paper │   B meas │  B paper");
    println!("────────┼────────┼──────────┼──────────┼──────────┼─────────");
    let get = |r: &Row, i: usize| match i {
        0 => r.border.all,
        1 => r.border.day,
        2 => r.border.night,
        3 => r.edge.all,
        4 => r.edge.day,
        _ => r.edge.night,
    };
    let labels = [
        ("Border", "All", 0),
        ("Border", "Day", 1),
        ("Border", "Night", 2),
        ("Edge", "All", 3),
        ("Edge", "Day", 4),
        ("Edge", "Night", 5),
    ];
    for (router, period, idx) in labels {
        println!(
            " {router:<6} │ {period:<6} │ {:8.0} │ {:8.0} │ {:8.0} │ {:8.0}",
            get(&rows[0], idx),
            paper[0].1[idx],
            get(&rows[1], idx),
            paper[1].1[idx],
        );
    }

    for r in &rows {
        let decrease = (1.0 - r.edge.all / r.border.all) * 100.0;
        let paper_dec = if r.building == "A" { 16.0 } else { 88.0 };
        println!(
            "\n building {}: edge-vs-border state decrease (All): {decrease:.0}%  (paper: {paper_dec:.0}%)",
            r.building
        );
    }
}
