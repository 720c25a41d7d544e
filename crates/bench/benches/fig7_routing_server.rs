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
//! Run with: `cargo bench -p sda-bench --bench fig7_routing_server`
//! Smoke mode (CI): `SDA_BENCH_SMOKE=1 cargo bench -p sda-bench --bench
//! fig7_routing_server` — tiny sample sizes and JSON to `target/`, the
//! same wiring as the other benches, so CI executes this emitter too
//! (it was previously the only bench CI never ran). The sweep's JSON
//! goes to `target/BENCH_fig7[.smoke].json` in both modes — it is a
//! figure reproduction, not a committed regression baseline.

use criterion::{BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_ctrl::PartitionedMapServer;
use sda_simnet::SimTime;
use sda_types::{Eid, Rloc, VnId};
use sda_wire::lisp::Message;
use std::net::Ipv4Addr;

fn vn() -> VnId {
    VnId::new(100).unwrap()
}

/// Deterministic, distinct EIDs ("Each query requested or updated a
/// different route, in order to avoid optimizations due to intermediate
/// caches").
fn eid(i: u32) -> Eid {
    Eid::V4(Ipv4Addr::from(0x0A00_0000 | (i & 0x00FF_FFFF)))
}

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
    for routes in [10u32, 100, 1_000, 10_000, 100_000] {
        let mut server = preloaded_server(routes);
        let mut rng = SmallRng::seed_from_u64(7);
        group.throughput(Throughput::Elements(1));
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
    for routes in [10u32, 100, 1_000, 10_000, 100_000] {
        let mut server = preloaded_server(routes);
        let mut rng = SmallRng::seed_from_u64(8);
        group.throughput(Throughput::Elements(1));
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
    for routes in [10u32, 100, 1_000, 10_000, 100_000] {
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
    let smoke = std::env::var("SDA_BENCH_SMOKE").is_ok();
    let mut criterion = if smoke {
        Criterion::default()
            .sample_size(10)
            .measurement_time(std::time::Duration::from_millis(60))
            .warm_up_time(std::time::Duration::from_millis(20))
    } else {
        Criterion::default()
            .sample_size(60)
            .measurement_time(std::time::Duration::from_secs(3))
            .warm_up_time(std::time::Duration::from_secs(1))
    };
    bench_requests(&mut criterion);
    bench_updates(&mut criterion);
    bench_trie_lookup(&mut criterion);

    let out = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_fig7.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_fig7.json")
    };
    criterion.write_json(out).expect("write BENCH_fig7.json");
    eprintln!("wrote {out}");

    // Schema guard (runs even in smoke mode): three groups, five sweep
    // points each, so the emitter can't silently rot.
    let results = criterion.results();
    for group in [
        "fig7a_map_request",
        "fig7b_map_register",
        "fig7_trie_lookup",
    ] {
        let points: Vec<&str> = results
            .iter()
            .filter(|r| r.group == group)
            .map(|r| r.id.as_str())
            .collect();
        assert_eq!(
            points,
            ["10", "100", "1000", "10000", "100000"],
            "{group} sweep drifted"
        );
    }
    criterion.final_summary();
}
