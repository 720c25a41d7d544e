//! §4.1 ablation — horizontal routing-server scaling.
//!
//! "the architecture scales horizontally and can deploy more routing
//! servers. Then, we load balance across edge routers by grouping them
//! and pointing each group to a different routing server for the route
//! requests, and perform route updates on all servers."
//!
//! This harness drives the warehouse's control load (800 moves/s ⇒
//! 800 updates/s replicated to *every* shard + 800 requests/s split
//! *across* shards) through 1–4 shards and reports request sojourn.
//! Requests are routed with the real [`ShardedMapServer::shard_for`]
//! hash over 200 edge RLOCs.
//!
//! Run with: `cargo run --release -p sda-bench --bin ablation_sharding`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_bench::fifo_sojourns;
use sda_bench::shard::ShardedMapServer;
use sda_lisp::{REQUEST_SERVICE, UPDATE_SERVICE};
use sda_simnet::{SimTime, Summary};
use sda_types::Rloc;
use sda_workloads::PoissonArrivals;

fn main() {
    println!("§4.1 ablation — routing-server sharding under warehouse load\n");
    let moves_per_sec = 800.0;
    let duration = 20.0;
    println!(
        "load: {moves_per_sec} updates/s to ALL shards + {moves_per_sec} requests/s split across shards\n"
    );

    println!(" shards │ request p50 │ request p95 │ shard utilization");
    println!("────────┼─────────────┼─────────────┼──────────────────");
    for shards in [1usize, 2, 3, 4] {
        let rlocs: Vec<Rloc> = (0..shards)
            .map(|i| Rloc::for_router_index(64_000 + i as u16))
            .collect();
        let sharded = ShardedMapServer::new(rlocs);
        let mut rng = SmallRng::seed_from_u64(shards as u64);

        // Interleave the two Poisson streams per shard; updates go to
        // every shard, requests only to their hash-owner.
        let mut updates = PoissonArrivals::new(moves_per_sec, SimTime::ZERO, 1);
        let mut requests = PoissonArrivals::new(moves_per_sec, SimTime::ZERO, 2);
        let horizon = SimTime::ZERO + sda_simnet::SimDuration::from_secs_f64(duration);
        let upd_times = updates.take_until(horizon);
        let req_times = requests.take_until(horizon);

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

        let s = Summary::of(&request_sojourns).unwrap();
        println!(
            " {shards:>6} │ {:>9.1}µs │ {:>9.1}µs │ {:>16.0}%",
            s.p50 * 1e6,
            s.p95 * 1e6,
            utilization * 100.0
        );
    }

    println!("\nupdates replicate everywhere, so sharding only relieves the");
    println!("request path — utilization floors at the update load. That is");
    println!("the paper's exact prescription and its cost.");
}
