//! Fig. 7a — routing-server **route-request** delay vs. number of
//! configured routes, at the paper's offered load of 800 queries/s.
//!
//! The paper's result: boxplots are flat across 10/100/1k/10k routes
//! (a Patricia-trie property there; the registry here is an exact-match
//! table, flat for its own reason). We preload the server the fabric
//! runs (`PartitionedMapServer`, one shard), verify every query
//! resolves, and measure sojourn through the server's single-CPU queue (constant service × jitter + queueing), printing
//! boxplot rows relative to the minimum delay of a 1-route server —
//! exactly the paper's normalization.
//!
//! Run with: `cargo run --release -p sda-bench --bin fig7a`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sda_bench::{fifo_sojourns, print_boxplot_row};
use sda_ctrl::PartitionedMapServer;
use sda_lisp::REQUEST_SERVICE;
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

fn preload(routes: u32) -> PartitionedMapServer {
    let mut s = PartitionedMapServer::new(Rloc::for_router_index(65_000), 1);
    for i in 0..routes {
        s.handle(
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
    s
}

/// One experiment: 10k distinct queries at `rate` q/s against a server
/// with `routes` routes; returns sojourn samples (seconds).
fn run(routes: u32, rate: f64, seed: u64) -> Vec<f64> {
    let mut server = preload(routes);
    // Sanity: every query must resolve (distinct targets, as the paper:
    // "each query requested … a different route").
    let queries = 10_000u32;
    for q in 0..queries.min(routes) {
        let out = server.handle(
            Message::MapRequest {
                nonce: u64::from(q),
                smr: false,
                vn: vn(),
                eid: eid(q % routes),
                itr_rloc: Rloc::for_router_index(1),
            },
            SimTime::ZERO,
        );
        assert!(
            matches!(
                out[0].1,
                Message::MapReply {
                    negative: false,
                    ..
                }
            ),
            "preloaded route must resolve"
        );
    }
    // Service latency through the control CPU at the offered load.
    let mut arrivals = sda_workloads::PoissonArrivals::new(rate, SimTime::ZERO, seed);
    let times: Vec<f64> = (0..queries)
        .map(|_| arrivals.next_arrival().as_secs_f64())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
    let base = REQUEST_SERVICE.as_secs_f64();
    fifo_sojourns(&times, || base * jitter(&mut rng))
}

fn jitter(rng: &mut SmallRng) -> f64 {
    use rand::Rng;
    let u: f64 = rng.gen::<f64>().max(1e-12);
    1.0 + ((-u.ln()) * 0.18).min(2.0)
}

fn main() {
    println!("Fig. 7a — route-request delay vs configured routes (800 q/s)");
    println!("values relative to the minimum delay of a 1-route server\n");
    let baseline = run(1, 800.0, 1).into_iter().fold(f64::INFINITY, f64::min);
    println!("    routes │  relative delay (boxplot)");
    println!("───────────┼─────────────────────────────────────────────────");
    for routes in [10u32, 100, 1_000, 10_000] {
        let samples = run(routes, 800.0, u64::from(routes));
        let s = Summary::of(&samples).unwrap();
        print_boxplot_row(&routes.to_string(), &s, baseline);
    }
    println!("\npaper: medians ≈1.6–1.8×, whiskers ≈1.4–2.2×, flat across sizes");
}
