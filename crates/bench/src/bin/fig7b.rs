//! Fig. 7b — routing-server **route-update** delay vs. number of
//! configured routes (the Map-Register path), at 800 updates/s.
//!
//! Same methodology as `fig7a`; the update service time sits slightly
//! above the request's, and stays flat across table sizes.
//!
//! Run with: `cargo run --release -p sda-bench --bin fig7b`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sda_bench::{fifo_sojourns, print_boxplot_row};
use sda_ctrl::PartitionedMapServer;
use sda_lisp::UPDATE_SERVICE;
use sda_simnet::{SimTime, Summary};
use sda_types::{Eid, Rloc, VnId};
use sda_wire::lisp::Message;
use std::net::Ipv4Addr;

fn eid(i: u32) -> Eid {
    Eid::V4(Ipv4Addr::from(0x0A00_0000 | i))
}

fn vn() -> VnId {
    VnId::new(100).unwrap()
}

fn run(routes: u32, rate: f64, seed: u64) -> Vec<f64> {
    // Preload, then verify updates against the server the fabric runs
    // (one shard): each update targets a different route (paper's
    // methodology).
    let mut server = PartitionedMapServer::new(Rloc::for_router_index(65_000), 1);
    for i in 0..routes {
        server.handle(
            Message::MapRegister {
                nonce: u64::from(i),
                vn: vn(),
                eid: eid(i),
                rloc: Rloc::for_router_index((i % 200) as u16),
                ttl_secs: 0,
                want_notify: false,
            },
            SimTime::ZERO,
        );
    }
    let updates = 10_000u32;
    for q in 0..updates.min(routes) {
        server.handle(
            Message::MapRegister {
                nonce: u64::from(q),
                vn: vn(),
                eid: eid(q % routes),
                rloc: Rloc::for_router_index(((q + 1) % 200) as u16),
                ttl_secs: 0,
                want_notify: false,
            },
            SimTime::ZERO,
        );
    }
    assert_eq!(
        server.db_len() as u32,
        routes,
        "updates must not grow the table"
    );

    let mut arrivals = sda_workloads::PoissonArrivals::new(rate, SimTime::ZERO, seed);
    let times: Vec<f64> = (0..updates)
        .map(|_| arrivals.next_arrival().as_secs_f64())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEED);
    let base = UPDATE_SERVICE.as_secs_f64();
    fifo_sojourns(&times, || base * jitter(&mut rng))
}

fn jitter(rng: &mut SmallRng) -> f64 {
    use rand::Rng;
    let u: f64 = rng.gen::<f64>().max(1e-12);
    1.0 + ((-u.ln()) * 0.18).min(2.0)
}

fn main() {
    println!("Fig. 7b — route-update delay vs configured routes (800 u/s)");
    println!("values relative to the minimum delay of a 1-route server\n");
    let baseline = run(1, 800.0, 2).into_iter().fold(f64::INFINITY, f64::min);
    println!("    routes │  relative delay (boxplot)");
    println!("───────────┼─────────────────────────────────────────────────");
    for routes in [10u32, 100, 1_000, 10_000] {
        let samples = run(routes, 800.0, 100 + u64::from(routes));
        let s = Summary::of(&samples).unwrap();
        print_boxplot_row(&routes.to_string(), &s, baseline);
    }
    println!("\npaper: medians ≈1.2–1.4×, whiskers ≈1.0–1.8×, flat across sizes");
}
