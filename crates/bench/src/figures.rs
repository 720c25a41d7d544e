//! The paper's evaluation as functions: Fig. 7, 9, 11 and 12, Tables
//! 3–5 and the §3.2.2 / §4.1 / §5.3 / §5.4 design studies.
//!
//! Each figure takes the params its scenario already has (route counts,
//! query rates, `CampusParams`, `WarehouseParams`, the Fig. 12
//! profiles) and returns rows; a `print_*` beside it writes the figure
//! as text, with the paper's numbers inline. The `figs` binary runs them
//! at the paper's scale by name; `tests/figures.rs` runs them at reduced
//! scale and holds each to the paper's qualitative claim.

use crate::fixtures::{eid, preloaded_server, vn};
use crate::shard::ShardedMapServer;
use crate::{day_night_split, fifo_sojourns, DayNight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_core::controller::FabricBuilder;
use sda_core::EnforcementPoint;
use sda_lisp::{REQUEST_SERVICE, UPDATE_SERVICE};
use sda_policy::{
    Action, CompiledAcl, GroupRule, Population, RuleSubset, UpdatePlan, UpdateStrategy,
};
use sda_simnet::{SimDuration, SimTime, Summary};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId, Rloc, RouterId, VnId};
use sda_wire::lisp::Message;
use sda_workloads::{
    run_bgp, run_lisp, CampusParams, CampusScenario, HandoverSample, PoissonArrivals,
    WarehouseParams,
};
use std::net::Ipv4Addr;

/// The VN of Fig. 12 and the §5.4 study.
fn vn1() -> VnId {
    VnId::new(1).unwrap()
}

// ── Fig. 7 ───────────────────────────────────────────────────────────
//
// Fig. 7 — routing-server delay: vs. configured routes for requests
// (7a) and updates (7b), vs. offered load (7c), §4.1.
//
// The rows come from a queueing model, not from timing the server: each
// sample is the sojourn of one Poisson arrival through a single FIFO CPU
// whose service is a constant (`REQUEST_SERVICE` or
// `UPDATE_SERVICE`) times a jitter factor, which is how the
// simulator's per-node control CPU behaves. In 7a/7b the route count
// only seeds the RNG, so those rows are flat by construction; what the
// route count does change is the preloaded server every row checks
// message by message (`faults`). The server's own flatness is the
// `fig7_routing_server` bench's `fig7a_map_request` /
// `fig7b_map_register` rows.

/// Offered load of 7a/7b (queries or updates per second).
const RATE: f64 = 800.0;
/// §4.1: the warehouse needs 800 moves/s × 2 queries = 1,600 q/s.
const WAREHOUSE_QPS: u32 = 1_600;

/// Boxplot rows, each relative to one baseline delay.
pub struct Boxplots {
    /// The delay every row is divided by: the minimum of a 1-route
    /// server (7a/7b, the paper's normalisation) or of all rows (7c).
    pub baseline: f64,
    /// `(x, delay in seconds)`: configured routes (7a/7b) or offered
    /// queries/s (7c).
    pub rows: Vec<(u32, Summary)>,
    /// Checked messages the preloaded server got wrong over all rows: a
    /// request that did not resolve (7a), an update that grew the table
    /// (7b); 0 for 7c, which checks no server.
    pub faults: u32,
}

/// What separates 7a from 7b.
struct Panel {
    /// Check with Map-Requests (7a) rather than Map-Registers (7b).
    requests: bool,
    service: SimDuration,
    /// Seed of the 1-route baseline run.
    baseline_seed: u64,
    /// Added to the route count to seed a row.
    seed_offset: u64,
    /// XORed into a run's seed to seed its jitter.
    salt: u64,
}

const FIG7A: Panel = Panel {
    requests: true,
    service: REQUEST_SERVICE,
    baseline_seed: 1,
    seed_offset: 0,
    salt: 0xBEEF,
};

const FIG7B: Panel = Panel {
    requests: false,
    service: UPDATE_SERVICE,
    baseline_seed: 2,
    seed_offset: 100,
    salt: 0xFEED,
};

/// Fig. 7a: route-request delay at 800 q/s, one row per route count.
pub fn fig7a(routes: &[u32]) -> Boxplots {
    server_rows(&FIG7A, routes)
}

/// Fig. 7b: route-update delay at 800 updates/s, one row per route count.
pub fn fig7b(routes: &[u32]) -> Boxplots {
    server_rows(&FIG7B, routes)
}

/// Fig. 7c: route-request delay per offered load in `rates` (q/s), and
/// the §4.1 capacity check at the warehouse's 1,600 q/s, relative to the
/// same baseline.
pub fn fig7c(rates: &[u32]) -> (Boxplots, Summary) {
    let load =
        |rate: u32, seed: u64| sojourns(20_000, f64::from(rate), seed, 0xC0DE, REQUEST_SERVICE);
    let runs: Vec<(u32, Vec<f64>)> = rates.iter().map(|&r| (r, load(r, u64::from(r)))).collect();
    let baseline = runs
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(f64::INFINITY, f64::min);
    let rows = runs
        .iter()
        .map(|(r, v)| (*r, Summary::of(v).unwrap()))
        .collect();
    let warehouse = Summary::of(&load(WAREHOUSE_QPS, 99)).unwrap();
    let sweep = Boxplots {
        baseline,
        rows,
        faults: 0,
    };
    (sweep, warehouse)
}

fn server_rows(panel: &Panel, routes: &[u32]) -> Boxplots {
    let (base, mut faults) = server_run(panel, 1, panel.baseline_seed);
    let baseline = base.into_iter().fold(f64::INFINITY, f64::min);
    let rows = routes
        .iter()
        .map(|&n| {
            let (samples, f) = server_run(panel, n, panel.seed_offset + u64::from(n));
            faults += f;
            (n, Summary::of(&samples).unwrap())
        })
        .collect();
    Boxplots {
        baseline,
        rows,
        faults,
    }
}

/// One experiment: preload `routes` routes, check one message per
/// distinct route (up to 10k — "each query requested or updated a
/// different route"), then draw 10k sojourns. Returns the sojourns
/// (seconds) and the checked messages the server got wrong.
fn server_run(panel: &Panel, routes: u32, seed: u64) -> (Vec<f64>, u32) {
    const MESSAGES: u32 = 10_000;
    let mut server = preloaded_server(routes);
    let mut faults = 0;
    for q in 0..MESSAGES.min(routes) {
        let nonce = u64::from(q);
        let ok = if panel.requests {
            let request = Message::MapRequest {
                nonce,
                smr: false,
                vn: vn(),
                eid: eid(q % routes),
                itr_rloc: Rloc::for_router_index(1),
            };
            match &server.handle(request, SimTime::ZERO)[..] {
                [(_, Message::MapReply { negative, .. }), ..] => !negative,
                _ => false,
            }
        } else {
            let update = Message::MapRegister {
                nonce,
                vn: vn(),
                eid: eid(q % routes),
                rloc: Rloc::for_router_index(((q + 1) % 200) as u16),
                ttl_secs: 0,
                want_notify: false,
            };
            server.handle(update, SimTime::ZERO);
            server.db_len() as u32 == routes
        };
        faults += u32::from(!ok);
    }
    let samples = sojourns(MESSAGES, RATE, seed, panel.salt, panel.service);
    (samples, faults)
}

/// The one sampler of Fig. 7: `n` Poisson arrivals at `rate`/s through
/// one FIFO CPU serving each in `service` × [`jitter`].
fn sojourns(n: u32, rate: f64, seed: u64, salt: u64, service: SimDuration) -> Vec<f64> {
    let mut arrivals = PoissonArrivals::new(rate, SimTime::ZERO, seed);
    let times: Vec<f64> = (0..n)
        .map(|_| arrivals.next_arrival().as_secs_f64())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ salt);
    let base = service.as_secs_f64();
    fifo_sojourns(&times, || base * jitter(&mut rng))
}

/// Service-time jitter: 1 + an exponential tail (mean 0.18), capped at 3×.
fn jitter(rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    1.0 + ((-u.ln()) * 0.18).min(2.0)
}

/// Prints Fig. 7a.
pub fn print_fig7a(plots: &Boxplots) {
    println!("Fig. 7a — route-request delay vs configured routes (800 q/s)");
    print_server_rows(plots);
    println!("\npaper: medians ≈1.6–1.8×, whiskers ≈1.4–2.2×, flat across sizes");
}

/// Prints Fig. 7b.
pub fn print_fig7b(plots: &Boxplots) {
    println!("Fig. 7b — route-update delay vs configured routes (800 u/s)");
    print_server_rows(plots);
    println!("\npaper: medians ≈1.2–1.4×, whiskers ≈1.0–1.8×, flat across sizes");
}

fn print_server_rows(plots: &Boxplots) {
    println!("values relative to the minimum delay of a 1-route server\n");
    println!("    routes │  relative delay (boxplot)");
    print_rows(plots);
}

/// Prints Fig. 7c and its capacity check.
pub fn print_fig7c((sweep, warehouse): &(Boxplots, Summary)) {
    println!("Fig. 7c — route-request delay vs offered load (10k routes)");
    println!("values relative to the minimum of all samples\n");
    println!(" queries/s │  relative delay (boxplot)");
    print_rows(sweep);
    println!("\n§4.1 capacity check at 1600 q/s (warehouse requirement):");
    print_boxplot_row(WAREHOUSE_QPS, warehouse, sweep.baseline);
    println!("\npaper: median grows ≈1.1→2.25× from 500→2000 q/s; 1600 q/s is sustainable");
}

fn print_rows(plots: &Boxplots) {
    println!("───────────┼─────────────────────────────────────────────────");
    for (x, s) in &plots.rows {
        print_boxplot_row(*x, s, plots.baseline);
    }
}

/// One boxplot row, values relative to `baseline`.
fn print_boxplot_row(x: u32, s: &Summary, baseline: f64) {
    println!(
        "{x:>10} │ p05 {:>6.2} │ p25 {:>6.2} │ median {:>6.2} │ p75 {:>6.2} │ p95 {:>6.2} │ n={}",
        s.p05 / baseline,
        s.p25 / baseline,
        s.p50 / baseline,
        s.p75 / baseline,
        s.p95 / baseline,
        s.count,
    );
}

// ── Fig. 9, Tables 3–5 ───────────────────────────────────────────────
//
// The campus figures: Fig. 9 (border vs. edge FIB over weeks), Table 5
// (their day/night averages) and Tables 3/4 (the deployments), all from
// the same scenario constructors every experiment uses (§4.2).
//
// Expected shape per the paper: the border follows presence
// (day/night + weekday/weekend); edges hold a fraction of the border's
// state; building A's edges retain their caches between workdays and
// clear over the weekend; building B's edges follow the day/night
// routine more closely (night chatter triggers negative resolutions
// that delete entries).

/// One campus run's FIB sizes, sampled hourly; time in hours from the
/// first midnight, so `hour % 24` is the hour of day.
pub struct CampusFib {
    /// The building that was run.
    pub params: CampusParams,
    /// The first border's FIB size.
    pub border: Vec<(f64, f64)>,
    /// Each edge's FIB size, in edge order.
    pub edges: Vec<Vec<(f64, f64)>>,
}

/// One building's Table 5 column.
pub struct Table5Row {
    /// `"A"` or `"B"`.
    pub building: &'static str,
    /// The first border's FIB means.
    pub border: DayNight,
    /// The means over every edge's samples, pooled.
    pub edge: DayNight,
}

/// Runs one building for `params.days` days: Fig. 9's rows, and what
/// Table 5 averages.
pub fn campus_fib(params: CampusParams) -> CampusFib {
    let mut scenario = CampusScenario::build(params);
    scenario.run();
    let metrics = scenario.fabric.metrics();
    let hours = |name: String| -> Vec<(f64, f64)> {
        (metrics.series(&name).iter())
            .map(|(t, v)| (t.as_secs_f64() / 3600.0, *v))
            .collect()
    };
    CampusFib {
        border: hours(scenario.border_series(0)),
        edges: (0..scenario.edges.len())
            .map(|i| hours(scenario.edge_series(i)))
            .collect(),
        params: scenario.params.clone(),
    }
}

/// Table 5: one building's all / working-hours (9:00–19:00) / night FIB
/// means over `params.days` days.
pub fn table5(params: CampusParams) -> Table5Row {
    let fib = campus_fib(params);
    Table5Row {
        building: fib.params.name,
        border: day_night_split(&fib.border).expect("border series"),
        edge: day_night_split(&fib.edges.concat()).expect("edge series"),
    }
}

/// Prints Fig. 9 for one building: every sixth sample of each week.
pub fn print_fig9(fib: &CampusFib) {
    let p = &fib.params;
    println!(
        "═══ building {} — {} endpoints, {} edges, {} border(s) ═══",
        p.name, p.endpoints, p.edges, p.borders
    );
    for week in 0..p.days / 7 {
        println!("\nbuilding {} — week {}:", p.name, week + 1);
        println!("  day hour │ border │ avg edge");
        println!(" ──────────┼────────┼─────────");
        for (idx, (hours, b)) in fib.border.iter().enumerate() {
            let week_of = (hours / (24.0 * 7.0)) as usize;
            if week_of != week || idx % 6 != 0 {
                continue;
            }
            let e_avg: f64 = (fib.edges.iter())
                .filter_map(|s| s.get(idx).map(|(_, v)| *v))
                .sum::<f64>()
                / fib.edges.len() as f64;
            let dow =
                ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][((hours / 24.0) as usize) % 7];
            println!(
                "  {dow} {:02}:00 │ {b:6.0} │ {e_avg:8.1}",
                (*hours as usize) % 24
            );
        }
    }
    println!();
}

/// Prints Table 5 for buildings A and B, beside the paper's numbers.
pub fn print_table5(rows: &[Table5Row; 2]) {
    const PAPER: [[f64; 6]; 2] = [
        [50.0, 85.0, 19.0, 42.0, 47.0, 38.0],
        [291.0, 362.0, 227.0, 34.0, 42.0, 27.0],
    ];
    const PAPER_DECREASE: [f64; 2] = [16.0, 88.0];
    println!("Table 5 — average FIB entries, 5-week run (measured | paper)\n");
    println!(" Router │ Period │   A meas │  A paper │   B meas │  B paper");
    println!("────────┼────────┼──────────┼──────────┼──────────┼─────────");
    let [a, b] = rows.each_ref().map(|r| {
        let (border, edge) = (&r.border, &r.edge);
        [
            border.all,
            border.day,
            border.night,
            edge.all,
            edge.day,
            edge.night,
        ]
    });
    let labels = ["Border", "Edge"].map(|r| ["All", "Day", "Night"].map(|p| (r, p)));
    for (i, (router, period)) in labels.concat().into_iter().enumerate() {
        println!(
            " {router:<6} │ {period:<6} │ {:8.0} │ {:8.0} │ {:8.0} │ {:8.0}",
            a[i], PAPER[0][i], b[i], PAPER[1][i],
        );
    }
    for (r, paper_dec) in rows.iter().zip(PAPER_DECREASE) {
        let decrease = (1.0 - r.edge.all / r.border.all) * 100.0;
        println!(
            "\n building {}: edge-vs-border state decrease (All): {decrease:.0}%  (paper: {paper_dec:.0}%)",
            r.building
        );
    }
}

/// Prints Tables 3 and 4 — the deployment inventory — from the
/// constructors the experiments run.
pub fn print_table3(a: &CampusParams, b: &CampusParams, w: &WarehouseParams) {
    println!("Table 3 — deployments used for evaluation\n");
    println!(" Deployment  │ #Border │ #Edge │ Endpoints");
    println!("─────────────┼─────────┼───────┼──────────");
    for (name, p) in [("A", a), ("B", b)] {
        println!(
            " Building {name}  │ {:>7} │ {:>5} │ {:>9}",
            p.borders, p.edges, p.endpoints
        );
    }
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

// ── Fig. 11 ──────────────────────────────────────────────────────────
//
// Fig. 11 — CDF of handover delay for the event-driven (LISP) and
// proactive (BGP route reflector) control planes under massive mobility
// (§4.3: 16,000 endpoints, 200 edges, 800 mobility events per second at
// full scale). The paper's result: the proactive protocol converges
// ~10× slower, with visibly higher variance, because it replicates
// every update to all 200 edges in an order unrelated to who needs it.

/// Both planes' handovers over one warehouse run.
pub struct Handovers {
    /// Delays (s) of the handovers the reactive plane restored.
    pub lisp: Vec<f64>,
    /// Delays (s) of the handovers the proactive plane restored.
    pub bgp: Vec<f64>,
    /// Handovers measured per plane, restored or not: `[lisp, bgp]`.
    pub measured: [usize; 2],
}

/// Runs the warehouse under each control plane.
pub fn fig11(params: &WarehouseParams) -> Handovers {
    let restored = |samples: &[HandoverSample]| -> Vec<f64> {
        samples.iter().filter_map(|s| s.delay_secs()).collect()
    };
    eprintln!("running reactive (LISP)…");
    let lisp = run_lisp(params);
    eprintln!("running proactive (BGP route reflector)…");
    let bgp = run_bgp(params);
    Handovers {
        lisp: restored(&lisp),
        bgp: restored(&bgp),
        measured: [lisp.len(), bgp.len()],
    }
}

/// Prints Fig. 11; `quick` marks a run at `WarehouseParams::small()`.
pub fn print_fig11(params: &WarehouseParams, quick: bool, h: &Handovers) {
    println!(
        "Fig. 11 — warehouse: {} hosts, {} edges, {} moves/s{}",
        params.hosts,
        params.edges,
        params.moves_per_sec,
        if quick { " (quick mode)" } else { "" }
    );
    println!(
        "restored: lisp {}/{}  bgp {}/{}",
        h.lisp.len(),
        h.measured[0],
        h.bgp.len(),
        h.measured[1]
    );

    let ls = Summary::of(&h.lisp).expect("lisp samples");
    let bs = Summary::of(&h.bgp).expect("bgp samples");
    println!("\nabsolute handover delay:");
    println!("          │     LISP │      BGP");
    for (name, l, b) in [
        ("median", ls.p50, bs.p50),
        ("mean  ", ls.mean, bs.mean),
        ("p95   ", ls.p95, bs.p95),
        ("max   ", ls.max, bs.max),
    ] {
        println!(" {name}   │ {:7.2}ms │ {:7.2}ms", l * 1e3, b * 1e3);
    }
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
    println!(" frac │ {:>8} │ {:>8}", "LISP", "BGP");
    println!("──────┼──────────┼─────────");
    for (l, b) in Summary::cdf(&h.lisp, 20)
        .iter()
        .zip(Summary::cdf(&h.bgp, 20))
    {
        println!(" {:>4.2} │ {:>8.2} │ {:>8.2}", l.1, l.0 / unit, b.0 / unit);
    }
}

// ── Fig. 12 ──────────────────────────────────────────────────────────
//
// Fig. 12 — per-mille hits on drop rules over all ACL hits, for three
// devices of a ~11,000-endpoint deployment: a VPN gateway, a branch
// router and a campus edge, over 5 days of egress enforcement.
//
// The paper's observation: drops are *rare* (worst case 2 per 10k
// packets) because endpoints are humans — "when endpoints realize they
// cannot access this particular destination, they stop requesting it".
// The VPN gateway shows more drops because remote users "present a
// different usage pattern from the users in the office".
//
// Model: each device enforces the same group ACL (`sda-policy`'s
// `CompiledAcl` — the table the engine's egress stage 2 consults,
// counting on its own allow/drop counters). Users run flows to
// their habitual allowed destinations; occasionally someone tries a
// forbidden destination and gives up after a few retries; a mid-week
// policy update flips one pair to deny, causing the paper's "transient
// period with an increase in drops" until users learn.

/// One device's user population.
pub struct Profile {
    /// Device label.
    pub name: &'static str,
    /// Endpoints behind the device.
    pub endpoints: u32,
    /// Flows per endpoint per day.
    pub flows_per_day: u32,
    /// Fraction of endpoints that ever poke at forbidden destinations
    /// (remote users explore more).
    pub explorer_share: f64,
    /// Retries before a human gives up on a denied destination.
    pub retries: u32,
}

/// The paper's three devices, in its order.
pub const PROFILES: [Profile; 3] = [
    Profile {
        name: "VPN",
        endpoints: 3_000,
        flows_per_day: 40,
        explorer_share: 0.012,
        retries: 3,
    },
    Profile {
        name: "Branch",
        endpoints: 3_000,
        flows_per_day: 60,
        explorer_share: 0.004,
        retries: 3,
    },
    Profile {
        name: "Campus",
        endpoints: 5_000,
        flows_per_day: 80,
        explorer_share: 0.005,
        retries: 3,
    },
];

/// One device's ACL counters after the run.
pub struct DropRow {
    /// The profile's name.
    pub name: &'static str,
    /// The profile's endpoint count.
    pub endpoints: u32,
    /// Allowed plus dropped hits.
    pub hits: u64,
    /// Hits on drop rules.
    pub drops: u64,
    /// `drops` per thousand hits.
    pub permille: f64,
}

/// Runs five days of each profile against its own ACL.
pub fn fig12(profiles: &[Profile]) -> Vec<DropRow> {
    profiles.iter().map(run).collect()
}

fn run(profile: &Profile) -> DropRow {
    let days = 5u32;
    // 20 destination groups; 17 allowed to everyone, 3 denied.
    let allowed: Vec<GroupId> = (1..=17).map(GroupId).collect();
    let denied: Vec<GroupId> = (18..=20).map(GroupId).collect();
    let user_group = GroupId(100);
    let rule = |dst: GroupId, action: Action| {
        let rule = GroupRule {
            src: user_group,
            dst,
            action,
        };
        (vn1(), rule)
    };

    let mut rng = SmallRng::seed_from_u64(profile.endpoints as u64);
    let mut acl = CompiledAcl::new();
    let rules = (allowed.iter().map(|g| rule(*g, Action::Allow)))
        .chain(denied.iter().map(|g| rule(*g, Action::Deny)))
        .collect();
    acl.install(&RuleSubset { version: 1, rules });

    // Explorers: the small population that pokes at forbidden
    // destinations (each gives up after `retries` attempts).
    let mut explorer_tries: Vec<u32> = (0..profile.endpoints as usize)
        .map(|_| {
            if rng.gen::<f64>() < profile.explorer_share {
                profile.retries
            } else {
                0
            }
        })
        .collect();

    // Mid-run policy update: group 17 becomes denied on day 3. Only
    // its habitual users (1.5%) see the transient, and they learn.
    let mut uses_17: Vec<bool> = (0..profile.endpoints as usize)
        .map(|_| rng.gen::<f64>() < 0.015)
        .collect();

    for day in 0..days {
        if day == 2 {
            let rules = vec![rule(GroupId(17), Action::Deny)];
            acl.install(&RuleSubset { version: 2, rules });
        }
        for ep in 0..profile.endpoints as usize {
            for _ in 0..profile.flows_per_day {
                // Exploration: a poke at a denied group, while the
                // explorer's patience lasts (~once a day).
                if explorer_tries[ep] > 0
                    && rng.gen::<f64>() < 1.0 / f64::from(profile.flows_per_day)
                {
                    let dst = denied[rng.gen_range(0..denied.len())];
                    acl.enforce(vn1(), user_group, dst, Action::Deny);
                    explorer_tries[ep] -= 1;
                    continue;
                }
                // Habitual flow to an allowed destination.
                let idx = rng.gen_range(0..allowed.len());
                let dst = allowed[idx];
                if day >= 2 && dst == GroupId(17) && uses_17[ep] {
                    // Transient after the policy update: a couple of
                    // drops until the human stops trying.
                    acl.enforce(vn1(), user_group, dst, Action::Deny);
                    if rng.gen::<f64>() < 0.6 {
                        uses_17[ep] = false;
                    }
                    continue;
                }
                let dst = if dst == GroupId(17) {
                    allowed[(idx + 1) % 17]
                } else {
                    dst
                };
                acl.enforce(vn1(), user_group, dst, Action::Deny);
            }
        }
    }

    let (allowed_hits, drops) = acl.counters();
    DropRow {
        name: profile.name,
        endpoints: profile.endpoints,
        hits: allowed_hits + drops,
        drops,
        permille: acl.drop_permille().unwrap(),
    }
}

/// Prints Fig. 12 beside the paper's per-mille readings.
pub fn print_fig12(rows: &[DropRow]) {
    println!("Fig. 12 — permille hits on drop rules over all hits (5 days)\n");
    println!(" device │ endpoints │ total hits │ drops │ permille │ paper(≈)");
    println!("────────┼───────────┼────────────┼───────┼──────────┼─────────");
    for (r, paper) in rows.iter().zip([0.18, 0.06, 0.04]) {
        println!(
            " {:<6} │ {:>9} │ {:>10} │ {:>5} │ {:>8.3} │ {:>7.2}",
            r.name, r.endpoints, r.hits, r.drops, r.permille, paper,
        );
    }
    println!("\npaper: worst case ≈0.18‰ (VPN) — 2 of every 10k packets;");
    println!("egress enforcement wastes negligible bandwidth in practice.");
}

// ── Design studies ───────────────────────────────────────────────────
//
// The design studies: each runs one design choice of the paper both
// ways and reports the difference — the border default route (§3.2.2),
// routing-server sharding (§4.1), the enforcement point (§5.3) and the
// policy-update strategy (§5.4).

fn overlay() -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap()
}

/// One §3.2.2 run's counters.
pub struct SyncOutcome {
    /// Packets delivered to endpoints.
    pub delivered: u64,
    /// Packets lost on a cache miss.
    pub first_packet_drops: u64,
    /// Packets the border relayed.
    pub border_relays: u64,
}

/// §3.2.2 — the border default route: "A drawback of using a reactive
/// protocol such as LISP is the initial packet loss until the edge
/// router downloads the route for a new destination. We have overcome
/// this issue by installing a default route in all edge routers that
/// points to the border router, and by synchronizing the routing state
/// in the border." Starts 200 flows against cold caches with the
/// border fallback and without: `[with, without]`.
pub fn ablation_border_sync() -> [SyncOutcome; 2] {
    [true, false].map(border_sync_run)
}

fn border_sync_run(border_default_route: bool) -> SyncOutcome {
    let mut b = FabricBuilder::new(55);
    b.config_mut().border_default_route = border_default_route;
    let vn = b.add_vn(1, overlay());
    let g = GroupId(1);
    b.allow(vn, g, g);

    let n_edges = 10;
    let flows = 200;
    let edges: Vec<_> = (0..n_edges).map(|i| b.add_edge(format!("e{i}"))).collect();
    let border = b.add_border("border", vec![]);
    let endpoints: Vec<_> = (0..flows * 2).map(|_| b.mint_endpoint(vn, g)).collect();

    let mut f = b.build();
    for (i, ep) in endpoints.iter().enumerate() {
        f.attach_at(SimTime::ZERO, edges[i % n_edges], *ep, PortId(i as u16));
    }
    f.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    // Each flow: 5 packets at 10 ms spacing from endpoint 2i to 2i+1
    // (cross-edge, cold cache — packet 1 always misses).
    let mut t0 = SimTime::ZERO + SimDuration::from_secs(2);
    for i in 0..flows {
        let src = endpoints[2 * i];
        let dst = endpoints[2 * i + 1];
        let src_edge = edges[(2 * i) % n_edges];
        for k in 0..5 {
            f.send_at(
                t0 + SimDuration::from_millis(10 * k),
                src_edge,
                src.mac,
                Eid::V4(dst.ipv4),
                500,
                (i * 10 + k as usize) as u64,
                false,
            );
        }
        t0 += SimDuration::from_millis(2);
    }
    f.run_until(t0 + SimDuration::from_secs(2));

    let stats: Vec<_> = edges.iter().map(|e| f.edge(*e).stats()).collect();
    SyncOutcome {
        delivered: stats.iter().map(|s| s.delivered).sum(),
        first_packet_drops: stats.iter().map(|s| s.first_packet_drops).sum(),
        border_relays: f.border(border).stats().relayed,
    }
}

/// Prints the §3.2.2 study.
pub fn print_border_sync([with, without]: &[SyncOutcome; 2]) {
    println!("§3.2.2 ablation — border default route vs drop-on-miss\n");
    println!("                      │ with border sync │ without");
    println!("──────────────────────┼──────────────────┼────────");
    let row = |name: &str, w: u64, wo: u64| println!(" {name:<18}   │ {w:>16} │ {wo:>7}");
    row("packets delivered", with.delivered, without.delivered);
    row(
        "first-packet drops",
        with.first_packet_drops,
        without.first_packet_drops,
    );
    row("border relays", with.border_relays, without.border_relays);
    println!(
        "\nwithout the synced border, every cold flow loses its head packets \
         ({} lost here); with it, the border absorbs them — at the cost of \
         a more powerful border box.",
        without.first_packet_drops
    );
}

/// One §5.3 run's state, bandwidth and drop placement.
pub struct EnforcementOutcome {
    /// Mean ACL rules installed per edge.
    pub rules_per_edge: f64,
    /// Overlay bytes the edges sent.
    pub overlay_bytes: u64,
    /// Policy drops, per edge.
    pub drops: Vec<u64>,
    /// Packets to a denied group addressed to an endpoint the edge
    /// hosts, per edge: its drops if it enforces at the destination.
    pub denied_to: Vec<u64>,
    /// Packets to a denied group sent from an endpoint the edge hosts,
    /// per edge: its drops if it enforces at the source.
    pub denied_from: Vec<u64>,
}

/// §5.3 — the policy enforcement point. Ingress saves the bandwidth of
/// traffic that will be dropped, but needs rules for *all possible
/// destination groups* at every edge; egress (SDA's choice) needs only
/// the rules toward locally attached groups. Runs the identical
/// workload both ways: `[egress, ingress]`.
pub fn ablation_enforcement_point() -> [EnforcementOutcome; 2] {
    [EnforcementPoint::Egress, EnforcementPoint::Ingress].map(enforcement_run)
}

fn enforcement_run(enforcement: EnforcementPoint) -> EnforcementOutcome {
    let mut b = FabricBuilder::new(33);
    b.config_mut().enforcement = enforcement;
    let vn = b.add_vn(1, overlay());

    // 12 groups; clients (group 1) may reach only even server groups.
    let client = GroupId(1);
    for g in 2..=12 {
        if g % 2 == 0 {
            b.allow(vn, client, GroupId(g));
        } else {
            b.deny(vn, client, GroupId(g));
        }
    }

    let n_edges = 6;
    let edges: Vec<_> = (0..n_edges).map(|i| b.add_edge(format!("e{i}"))).collect();
    b.add_border("border", vec![]);

    // One client per edge; one server of each group spread round-robin.
    let clients: Vec<_> = (0..n_edges).map(|_| b.mint_endpoint(vn, client)).collect();
    let servers: Vec<_> = (2..=12)
        .map(|g| (g, b.mint_endpoint(vn, GroupId(g))))
        .collect();

    let mut f = b.build();
    for (i, c) in clients.iter().enumerate() {
        f.attach_at(SimTime::ZERO, edges[i], *c, PortId(1));
    }
    for (j, (_, s)) in servers.iter().enumerate() {
        f.attach_at(SimTime::ZERO, edges[j % n_edges], *s, PortId(2));
    }
    f.run_until(SimTime::ZERO + SimDuration::from_millis(100));

    // Every client sends 20 packets to every server (half will be
    // denied); caches are warm after the first round.
    let mut denied_to = vec![0; n_edges];
    let mut denied_from = vec![0; n_edges];
    let mut t = SimTime::ZERO + SimDuration::from_millis(200);
    for round in 0..20 {
        for (i, c) in clients.iter().enumerate() {
            for (j, (g, s)) in servers.iter().enumerate() {
                if g % 2 == 1 {
                    denied_from[i] += 1;
                    denied_to[j % n_edges] += 1;
                }
                f.send_at(
                    t,
                    edges[i],
                    c.mac,
                    Eid::V4(s.ipv4),
                    1000,
                    (round * 100 + g) as u64,
                    false,
                );
                t += SimDuration::from_micros(200);
            }
        }
    }
    f.run_until(t + SimDuration::from_secs(1));

    let edges: Vec<_> = edges.iter().map(|e| f.edge(*e)).collect();
    let rules: usize = edges.iter().map(|e| e.acl().len()).sum();
    EnforcementOutcome {
        rules_per_edge: rules as f64 / n_edges as f64,
        overlay_bytes: f.metrics().counter("fabric.overlay_bytes"),
        drops: edges.iter().map(|e| e.stats().policy_drops).collect(),
        denied_to,
        denied_from,
    }
}

/// Prints the §5.3 study.
pub fn print_enforcement_point([egress, ingress]: &[EnforcementOutcome; 2]) {
    println!("§5.3 ablation — enforcement point: bandwidth vs state\n");
    println!("                        │   egress │  ingress");
    println!("────────────────────────┼──────────┼─────────");
    println!(
        " ACL rules per edge     │ {:>8.1} │ {:>8.1}",
        egress.rules_per_edge, ingress.rules_per_edge
    );
    let row = |name: &str, e: u64, i: u64| println!(" {name:<21}  │ {e:>8} │ {i:>8}");
    row(
        "overlay bytes carried",
        egress.overlay_bytes,
        ingress.overlay_bytes,
    );
    // Where each mode drops is `tests/figures.rs`'s to check.
    row("drops at destination", egress.drops.iter().sum(), 0);
    row("drops at source", 0, ingress.drops.iter().sum());
    let wasted = egress.overlay_bytes.saturating_sub(ingress.overlay_bytes);
    println!(
        "\nbandwidth egress wastes on doomed traffic: {wasted} bytes \
         ({:.0}% of egress-mode overlay bytes)",
        wasted as f64 / egress.overlay_bytes.max(1) as f64 * 100.0
    );
    println!(
        "state ingress pays for it: {:.1}× the per-edge rules",
        ingress.rules_per_edge / egress.rules_per_edge.max(0.1)
    );
    println!("\npaper: SDA chooses egress — the measured waste is ≤0.2‰ in");
    println!("production (Fig. 12) while the state saving is structural.");
}

/// A §5.4 update's signaling messages by moving endpoints, by
/// rewriting rules, and which of the two is cheaper.
pub type Costs = (u64, u64, UpdateStrategy);

/// The signaling cost of the two §5.4 update strategies: the sweep and
/// the paper's two playbooks.
pub struct UpdateCosts {
    /// `(group size, costs at 5 / 20 / 80 / 320 rules touched)` for a
    /// group spread over 20 edges.
    pub sweep: Vec<(u32, [Costs; 4])>,
    /// Acquisition: 500 new staff on 5 edges, 12 rules touched.
    pub acquisition: Costs,
    /// Service insertion: retag 30 middlebox-bound endpoints instead of
    /// installing per-hop policies on 50 path edges.
    pub service_insertion: Costs,
}

fn costs(plan: &UpdatePlan, pop: &Population) -> Costs {
    (
        plan.signaling_messages(UpdateStrategy::MoveEndpoints, pop),
        plan.signaling_messages(UpdateStrategy::RewriteRules, pop),
        plan.cheaper_strategy(pop),
    )
}

/// §5.4 — "it can be more scalable moving users to different groups
/// rather than directly updating the group-based ACLs … it is not always
/// the case": sweeps group size × rules touched, and prices the paper's
/// two playbooks.
pub fn ablation_policy_update() -> UpdateCosts {
    let edges = 20u32;
    let sweep = [10u32, 100, 1_000, 10_000]
        .into_iter()
        .map(|group_size| {
            let mut pop = Population::new();
            for e in 0..edges {
                let n = group_size / edges + u32::from(e < group_size % edges);
                if n > 0 {
                    pop.add(RouterId(e), vn1(), GroupId(1), n);
                }
            }
            let cells = [5, 20, 80, 320].map(|rules| {
                costs(
                    &UpdatePlan::acquisition(vn1(), GroupId(1), GroupId(2), rules),
                    &pop,
                )
            });
            (group_size, cells)
        })
        .collect();

    let mut pop = Population::new();
    for e in 0..5 {
        pop.add(RouterId(e), vn1(), GroupId(7), 100);
    }
    let acquisition = costs(
        &UpdatePlan::acquisition(vn1(), GroupId(7), GroupId(1), 12),
        &pop,
    );

    let mut pop = Population::new();
    pop.add(RouterId(1), vn1(), GroupId(9), 30);
    for e in 0..50 {
        pop.add(RouterId(e), vn1(), GroupId(10), 1);
    }
    let plan = UpdatePlan {
        vn: vn1(),
        moved_groups: (GroupId(9), GroupId(10)),
        rewritten_rows: vec![(GroupId(10), 4)],
    };
    UpdateCosts {
        sweep,
        acquisition,
        service_insertion: costs(&plan, &pop),
    }
}

/// Prints the §5.4 study.
pub fn print_policy_update(c: &UpdateCosts) {
    println!("§5.4 ablation — signaling cost of the two update strategies\n");
    println!("signaling messages (move-endpoints / rewrite-rules), group on 20 edges:");
    println!("\n endpoints\\rules │      5 │     20 │     80 │    320");
    println!("─────────────────┼────────┼────────┼────────┼───────");
    for (group_size, cells) in &c.sweep {
        let mut row = format!(" {group_size:>15} │");
        for (mv, rw, cheaper) in cells {
            let marker = if *cheaper == UpdateStrategy::MoveEndpoints {
                "M"
            } else {
                "R"
            };
            row.push_str(&format!(" {mv:>3}/{rw:<3}{marker}│"));
        }
        println!("{row}");
    }
    println!("\n(M = moving endpoints cheaper, R = rewriting rules cheaper)");

    let (mv, rw, cheaper) = c.acquisition;
    println!("\nacquisition playbook: 500 new staff on 5 edges, 12 rules touched");
    println!("  move-endpoints: {mv} msgs   rewrite-rules: {rw} msgs  → {cheaper:?}");

    let (mv, rw, cheaper) = c.service_insertion;
    println!("\nservice-insertion playbook: retag 30 middlebox-bound endpoints");
    println!("instead of installing per-hop policies on 50 path edges:");
    println!("  move (retag): {mv} msgs   rewrite per-hop: {rw} msgs  → {cheaper:?}");
}

/// One §4.1 sharding row.
pub struct ShardRow {
    /// Routing-server shards.
    pub shards: usize,
    /// Request sojourns (s).
    pub request: Summary,
    /// Mean shard CPU utilization (0–1).
    pub utilization: f64,
}

/// §4.1 — horizontal routing-server scaling: "we load balance across
/// edge routers by grouping them and pointing each group to a different
/// routing server for the route requests, and perform route updates on
/// all servers." Drives the warehouse's control load (800 updates/s
/// replicated to *every* shard + 800 requests/s split *across* shards,
/// routed by [`ShardedMapServer::shard_for`] over 200 edge RLOCs)
/// through 1–4 shards for 20 s.
pub fn ablation_sharding() -> Vec<ShardRow> {
    (1..=4).map(sharding_run).collect()
}

fn sharding_run(shards: usize) -> ShardRow {
    let moves_per_sec = 800.0;
    let duration = 20.0;
    let rlocs: Vec<Rloc> = (0..shards)
        .map(|i| Rloc::for_router_index(64_000 + i as u16))
        .collect();
    let sharded = ShardedMapServer::new(rlocs);
    let mut rng = SmallRng::seed_from_u64(shards as u64);

    // Interleave the two Poisson streams per shard; updates go to every
    // shard, requests only to their hash-owner.
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(duration);
    let upd_times = PoissonArrivals::new(moves_per_sec, SimTime::ZERO, 1).take_until(horizon);
    let req_times = PoissonArrivals::new(moves_per_sec, SimTime::ZERO, 2).take_until(horizon);

    // Per-shard arrival streams: (time, service, is_request).
    let mut per_shard: Vec<Vec<(f64, f64, bool)>> = vec![Vec::new(); shards];
    for t in &upd_times {
        for s in per_shard.iter_mut() {
            s.push((t.as_secs_f64(), UPDATE_SERVICE.as_secs_f64(), false));
        }
    }
    for t in &req_times {
        // A random edge issues the request; the hash picks its shard.
        let edge = Rloc::for_router_index(rng.gen_range(0..200u16));
        let shard = sharded.shard_for(edge);
        per_shard[shard].push((t.as_secs_f64(), REQUEST_SERVICE.as_secs_f64(), true));
    }

    let mut request_sojourns = Vec::new();
    let mut utilization = 0.0;
    for stream in per_shard.iter_mut() {
        stream.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let times: Vec<f64> = stream.iter().map(|(t, _, _)| *t).collect();
        let mut it = stream.iter();
        let sojourns = fifo_sojourns(&times, || it.next().unwrap().1);
        for ((_, _, is_req), s) in stream.iter().zip(&sojourns) {
            if *is_req {
                request_sojourns.push(*s);
            }
        }
        let busy: f64 = stream.iter().map(|(_, s, _)| *s).sum();
        utilization += busy / duration / shards as f64;
    }
    ShardRow {
        shards,
        request: Summary::of(&request_sojourns).unwrap(),
        utilization,
    }
}

/// Prints the §4.1 study.
pub fn print_sharding(rows: &[ShardRow]) {
    println!("§4.1 ablation — routing-server sharding under warehouse load\n");
    println!("load: 800 updates/s to ALL shards + 800 requests/s split across shards\n");
    println!(" shards │ request p50 │ request p95 │ shard utilization");
    println!("────────┼─────────────┼─────────────┼──────────────────");
    for r in rows {
        println!(
            " {:>6} │ {:>9.1}µs │ {:>9.1}µs │ {:>16.0}%",
            r.shards,
            r.request.p50 * 1e6,
            r.request.p95 * 1e6,
            r.utilization * 100.0
        );
    }
    println!("\nupdates replicate everywhere, so sharding only relieves the");
    println!("request path — utilization floors at the update load. That is");
    println!("the paper's exact prescription and its cost.");
}
