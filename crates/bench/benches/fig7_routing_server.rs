//! Fig. 7a/7b (Criterion): routing-server request and update latency as
//! a function of the number of configured routes.
//!
//! The paper's claim: "the delay is not dependent on the number of
//! routes" because the store is a Patricia trie whose cost depends on
//! key width, not entry count. The server rows measure the routing
//! server the fabric runs (`PartitionedMapServer`, one shard; its
//! registry holds host routes only, so a message costs one hash probe), `fig7_trie_lookup` the paper's cited
//! structure on the same keys — at 10 / 100 / 1,000 / 10,000 / 100,000
//! routes; each sweep should show flat medians.
//!
//! The sweep's JSON goes to `target/BENCH_fig7[.smoke].json` in both
//! modes — it is a figure reproduction, not a committed regression
//! baseline, and nothing is held to a bar: the figure's claim is read
//! off the medians.

use criterion::{BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_bench::fixtures::{eid, vn};
use sda_bench::harness::Harness;
use sda_ctrl::PartitionedMapServer;
use sda_simnet::SimTime;
use sda_types::Rloc;
use sda_wire::lisp::Message;

const ROUTE_COUNTS: [u32; 5] = [10, 100, 1_000, 10_000, 100_000];
const GROUPS: [&str; 3] = [
    "fig7a_map_request",
    "fig7b_map_register",
    "fig7_trie_lookup",
];

fn preloaded_server(routes: u32) -> PartitionedMapServer {
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

/// Fig. 7a: Map-Request service latency vs. configured routes.
fn bench_requests(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7a_map_request");
    for routes in ROUTE_COUNTS {
        let mut server = preloaded_server(routes);
        let mut rng = SmallRng::seed_from_u64(7);
        group.bench_with_input(BenchmarkId::from_parameter(routes), &routes, |b, _| {
            b.iter(|| {
                let i = rng.gen_range(0..routes);
                let out = server.handle(
                    Message::MapRequest {
                        nonce: u64::from(i),
                        smr: false,
                        vn: vn(),
                        eid: eid(i),
                        itr_rloc: Rloc::for_router_index(3),
                    },
                    SimTime::ZERO,
                );
                criterion::black_box(out)
            });
        });
    }
    group.finish();
}

/// Fig. 7b: Map-Register (update) service latency vs. configured routes.
fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b_map_register");
    for routes in ROUTE_COUNTS {
        let mut server = preloaded_server(routes);
        let mut rng = SmallRng::seed_from_u64(8);
        group.bench_with_input(BenchmarkId::from_parameter(routes), &routes, |b, _| {
            b.iter(|| {
                let i = rng.gen_range(0..routes);
                // Rotate the RLOC so every update really writes.
                let out = server.handle(
                    Message::MapRegister {
                        nonce: u64::from(i),
                        vn: vn(),
                        eid: eid(i),
                        rloc: Rloc::for_router_index(rng.gen_range(0..400)),
                        ttl_secs: 0,
                        want_notify: false,
                    },
                    SimTime::ZERO,
                );
                criterion::black_box(out)
            });
        });
    }
    group.finish();
}

/// The paper's cited structure: raw Patricia-trie lookups, its reason
/// for the flatness (the server rows above probe a hash table instead).
fn bench_trie_lookup(c: &mut Criterion) {
    use sda_trie::EidTrie;
    use sda_types::EidPrefix;
    let mut group = c.benchmark_group("fig7_trie_lookup");
    for routes in ROUTE_COUNTS {
        let mut trie: EidTrie<u32> = EidTrie::new();
        for i in 0..routes {
            trie.insert(EidPrefix::host(eid(i)), i);
        }
        let mut rng = SmallRng::seed_from_u64(9);
        group.bench_with_input(BenchmarkId::from_parameter(routes), &routes, |b, _| {
            b.iter(|| {
                let i = rng.gen_range(0..routes);
                criterion::black_box(trie.lookup(&eid(i)))
            });
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::figure("fig7");
    bench_requests(&mut h.criterion);
    bench_updates(&mut h.criterion);
    bench_trie_lookup(&mut h.criterion);

    // Three groups, five sweep points each.
    let ids = ROUTE_COUNTS.map(|routes| routes.to_string());
    let rows: Vec<(&str, &str)> = GROUPS
        .iter()
        .flat_map(|group| ids.iter().map(move |id| (*group, id.as_str())))
        .collect();
    h.finish(&rows);
}
