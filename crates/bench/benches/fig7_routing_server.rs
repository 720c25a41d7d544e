//! Fig. 7a/7b (Criterion): routing-server request and update latency as
//! a function of the number of configured routes.
//!
//! The paper's claim: "the delay is not dependent on the number of
//! routes" (it credits the Patricia trie its store is). These rows time
//! only the routing server the fabric runs (`PartitionedMapServer`, one
//! shard, preloaded by `fixtures::preloaded_server`; its registry holds
//! host routes only, so a message costs one hash probe) at 10 / 100 /
//! 1,000 / 10,000 / 100,000 routes. The plain trie's descent on such
//! keys is `lpm_hot_path`'s `trie_lpm` rows.
//!
//! The sweep's JSON goes to `target/BENCH_fig7[.smoke].json` in both
//! modes — it is a figure reproduction, not a committed regression
//! baseline, and nothing is held to a bar: the figure's claim is read
//! off the medians.

use criterion::{BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_bench::fixtures::{eid, preloaded_server, vn};
use sda_bench::harness::Harness;
use sda_simnet::SimTime;
use sda_types::Rloc;
use sda_wire::lisp::Message;

const ROUTE_COUNTS: [u32; 5] = [10, 100, 1_000, 10_000, 100_000];
const GROUPS: [&str; 2] = ["fig7a_map_request", "fig7b_map_register"];

/// Times the server's `handle` on `message(rng, routes)` at each route
/// count.
fn bench_server(
    c: &mut Criterion,
    group: &str,
    seed: u64,
    message: fn(&mut SmallRng, u32) -> Message,
) {
    let mut group = c.benchmark_group(group);
    for routes in ROUTE_COUNTS {
        let mut server = preloaded_server(routes);
        let mut rng = SmallRng::seed_from_u64(seed);
        group.bench_with_input(BenchmarkId::from_parameter(routes), &routes, |b, _| {
            b.iter(|| {
                criterion::black_box(server.handle(message(&mut rng, routes), SimTime::ZERO))
            });
        });
    }
    group.finish();
}

/// Fig. 7a: a Map-Request for a random stored route.
fn request(rng: &mut SmallRng, routes: u32) -> Message {
    let i = rng.gen_range(0..routes);
    Message::MapRequest {
        nonce: u64::from(i),
        smr: false,
        vn: vn(),
        eid: eid(i),
        itr_rloc: Rloc::for_router_index(3),
    }
}

/// Fig. 7b: a Map-Register moving a random stored route to a random
/// RLOC, so every update really writes.
fn update(rng: &mut SmallRng, routes: u32) -> Message {
    let i = rng.gen_range(0..routes);
    Message::MapRegister {
        nonce: u64::from(i),
        vn: vn(),
        eid: eid(i),
        rloc: Rloc::for_router_index(rng.gen_range(0..400)),
        ttl_secs: 0,
        want_notify: false,
    }
}

fn main() {
    let mut h = Harness::figure("fig7");
    bench_server(&mut h.criterion, GROUPS[0], 7, request);
    bench_server(&mut h.criterion, GROUPS[1], 8, update);

    // Two groups, five sweep points each.
    let ids = ROUTE_COUNTS.map(|routes| routes.to_string());
    let rows: Vec<(&str, &str)> = GROUPS
        .iter()
        .flat_map(|group| ids.iter().map(move |id| (*group, id.as_str())))
        .collect();
    h.finish(&rows);
}
