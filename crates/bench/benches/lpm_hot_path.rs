//! The LPM hot path benchmark: trie longest-prefix match and map-cache
//! lookup. `BENCH_lpm.json`, groups `trie_lpm` and `map_cache_lookup`.
//!
//! * `trie_lpm new/{1k,10k,100k,1M}` — `EidTrie::lookup` over host
//!   routes after `compact()` (arena re-laid in DFS order); the
//!   reserved bytes (`MemStats`) are printed per size so a layout
//!   regression shows in the output. No table of the running fabric
//!   holds a trie; these rows leave with `sda-trie` (ROADMAP item 2).
//! * `map_cache_lookup {hit,miss,stale}/10000`, `hit/1000000` —
//!   `MapCache::lookup_shared`, the one scalar lookup there is. Every
//!   entry is a host route, so `hit`/`stale` time one probe of the
//!   exact-match table and `miss` a failed probe (no cover installed:
//!   the cover list is empty and never scanned).
//!
//! Budgets (both modes — layout is deterministic, no timing involved):
//! the 1M-route trie within 128 MiB, ~2x a 64 MiB last-level cache
//! (ROADMAP scale tier); the 1M-entry map-cache within 192 MiB — host
//! routes, so what is measured is the reserved bytes of its exact-match
//! table (key + `CacheEntry` per slot), which `MapCache::mem_stats`
//! reports in `capacity_bytes`. No bar: each row times the one
//! implementation there is.

use criterion::{black_box, BenchmarkId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_bench::fixtures::{eid, vn};
use sda_bench::harness::Harness;
use sda_lisp::MapCache;
use sda_simnet::{SimDuration, SimTime};
use sda_trie::EidTrie;
use sda_types::{EidPrefix, Rloc};

const ROUTE_COUNTS: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];
const CACHE_ROUTES: u32 = 10_000;
const CACHE_ROUTES_1M: u32 = 1_000_000;
const MIB: f64 = 1024.0 * 1024.0;

const ROWS: [(&str, &str); 8] = [
    ("trie_lpm", "new/1000"),
    ("trie_lpm", "new/10000"),
    ("trie_lpm", "new/100000"),
    ("trie_lpm", "new/1000000"),
    ("map_cache_lookup", "hit/10000"),
    ("map_cache_lookup", "miss/10000"),
    ("map_cache_lookup", "stale/10000"),
    ("map_cache_lookup", "hit/1000000"),
];

fn bench_trie_lpm(h: &mut Harness) {
    for routes in ROUTE_COUNTS {
        let mut trie: EidTrie<u32> = EidTrie::new();
        for i in 0..routes {
            trie.insert(EidPrefix::host(eid(i)), i);
        }
        // Bulk load done: re-lay the arena in DFS order.
        trie.compact();
        let stats = trie.mem_stats();
        eprintln!("trie_lpm new/{routes} layout: {stats}");
        if routes == 1_000_000 {
            let mib = stats.capacity_bytes as f64 / MIB;
            h.budget("1M-route trie MiB", mib, ..=128.0);
        }
        let mut rng = SmallRng::seed_from_u64(11);
        let mut group = h.criterion.benchmark_group("trie_lpm");
        group.bench_with_input(BenchmarkId::new("new", routes), &routes, |b, _| {
            b.iter(|| {
                let i = rng.gen_range(0..routes);
                black_box(trie.lookup(&eid(i)))
            });
        });
    }
}

fn bench_map_cache(h: &mut Harness) {
    let mut group = h.criterion.benchmark_group("map_cache_lookup");
    let ttl = SimDuration::from_days(365);
    let now = SimTime::ZERO + SimDuration::from_secs(60);

    // Hit: every probed EID is cached and fresh.
    let mut cache = MapCache::new();
    for i in 0..CACHE_ROUTES {
        cache.install(
            vn(),
            EidPrefix::host(eid(i)),
            Rloc::for_router_index((i % 200) as u16),
            ttl,
            SimTime::ZERO,
        );
    }
    eprintln!("map_cache hit/{CACHE_ROUTES} layout: {}", cache.mem_stats());
    let mut rng = SmallRng::seed_from_u64(12);
    group.bench_with_input(BenchmarkId::new("hit", CACHE_ROUTES), &(), |b, _| {
        b.iter(|| {
            let i = rng.gen_range(0..CACHE_ROUTES);
            black_box(cache.lookup_shared(vn(), eid(i), now))
        });
    });

    // Miss: probes outside the installed range (no entry, no mutation).
    let mut rng = SmallRng::seed_from_u64(13);
    group.bench_with_input(BenchmarkId::new("miss", CACHE_ROUTES), &(), |b, _| {
        b.iter(|| {
            let i = CACHE_ROUTES + rng.gen_range(0..CACHE_ROUTES);
            black_box(cache.lookup_shared(vn(), eid(i), now))
        });
    });

    // Stale: every entry SMR'd; lookups return Stale, refreshing in place.
    let mut stale_cache = MapCache::new();
    for i in 0..CACHE_ROUTES {
        stale_cache.install(
            vn(),
            EidPrefix::host(eid(i)),
            Rloc::for_router_index((i % 200) as u16),
            ttl,
            SimTime::ZERO,
        );
        stale_cache.mark_stale_shared(vn(), eid(i), SimTime::ZERO);
    }
    let mut rng = SmallRng::seed_from_u64(14);
    group.bench_with_input(BenchmarkId::new("stale", CACHE_ROUTES), &(), |b, _| {
        b.iter(|| {
            let i = rng.gen_range(0..CACHE_ROUTES);
            black_box(stale_cache.lookup_shared(vn(), eid(i), now))
        });
    });

    // The 1M-entry scale tier: same hit workload at two orders of
    // magnitude more routes, with the memory budget held.
    let mut big_cache = MapCache::new();
    for i in 0..CACHE_ROUTES_1M {
        big_cache.install(
            vn(),
            EidPrefix::host(eid(i)),
            Rloc::for_router_index((i % 200) as u16),
            ttl,
            SimTime::ZERO,
        );
    }
    let big_stats = big_cache.mem_stats();
    eprintln!("map_cache hit/{CACHE_ROUTES_1M} layout: {big_stats}");
    let mut rng = SmallRng::seed_from_u64(12);
    group.bench_with_input(BenchmarkId::new("hit", CACHE_ROUTES_1M), &(), |b, _| {
        b.iter(|| {
            let i = rng.gen_range(0..CACHE_ROUTES_1M);
            black_box(big_cache.lookup_shared(vn(), eid(i), now))
        });
    });

    group.finish();
    let mib = big_stats.capacity_bytes as f64 / MIB;
    h.budget("1M-entry map-cache MiB", mib, ..=192.0);
}

fn main() {
    let mut h = Harness::new("lpm");
    bench_trie_lpm(&mut h);
    bench_map_cache(&mut h);
    h.finish(&ROWS);
}
