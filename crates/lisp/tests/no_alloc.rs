//! Proof, not promise: the map-cache's lookup side — `lookup_shared`,
//! `mark_stale_shared` and `lookup_batch_shared` on hit, stale and miss
//! paths — performs **zero heap allocations** (the seed implementation
//! allocated on every trie step and did a remove + insert per hit), and
//! so does the registry on what a preloaded routing server does per
//! message: `lookup` (hit, miss, TTL-dead) and a refresh- or
//! move-`register` of a stored key. The second window is what keeps
//! `e2e`'s `ctrl.allocs_per_msg` at the emitted reply and nothing else.
//!
//! This file deliberately holds a single `#[test]` — the counter is
//! process-global, and a concurrently running test would pollute it —
//! so the registry window runs at the end of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use sda_lisp::{CacheOutcome, MapCache, MappingDb, RegisterOutcome};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, Rloc, VnId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn map_cache_lookup_allocates_nothing() {
    let vn = VnId::new(1).unwrap();
    let eid = |i: u32| Eid::V4(Ipv4Addr::from(0x0A00_0000 | i));
    let ttl = SimDuration::from_secs(3600);

    let mut cache = MapCache::new();
    for i in 0..10_000u32 {
        cache.install(
            vn,
            EidPrefix::host(eid(i)),
            Rloc::for_router_index((i % 200) as u16),
            ttl,
            SimTime::ZERO,
        );
    }
    for i in 0..5_000u32 {
        cache.mark_stale_shared(vn, eid(i), SimTime::ZERO);
    }

    let now = SimTime::ZERO + SimDuration::from_secs(1);
    let before = allocations();

    let (mut hits, mut stales, mut misses) = (0u64, 0u64, 0u64);
    for i in 0..20_000u32 {
        match cache.lookup_shared(vn, eid(i), now) {
            CacheOutcome::Hit(_) => hits += 1,
            CacheOutcome::Stale(_) => stales += 1,
            CacheOutcome::Miss => misses += 1,
        }
        // An SMR for the already-stale quarter and for the uncached
        // half: allocation-free too, and no outcome changes.
        if !(5_000..10_000).contains(&i) {
            cache.mark_stale_shared(vn, eid(i), now);
        }
    }

    let after = allocations();
    assert_eq!((hits, stales, misses), (5_000, 5_000, 10_000));
    assert_eq!(
        after - before,
        0,
        "map-cache lookup performed {} heap allocations",
        after - before
    );

    // The batched flavor (the forwarding engine's entry point)
    // allocates nothing either, once the output vector has warmed up.
    let probes: Vec<Eid> = (0..32u32).map(|i| eid(i * 613 % 20_000)).collect();
    let mut out = Vec::new();
    cache.lookup_batch_shared(vn, &probes, now, &mut out); // warm `out`
    let before = allocations();
    for _ in 0..600 {
        cache.lookup_batch_shared(vn, &probes, now, &mut out);
        assert_eq!(out.len(), probes.len());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "batched map-cache lookup performed {} heap allocations",
        after - before
    );

    registry_window();
}

/// The registry on a preloaded database: probes and re-registrations of
/// stored keys allocate nothing.
fn registry_window() {
    let vn = VnId::new(1).unwrap();
    let eid = |i: u32| Eid::V4(Ipv4Addr::from(0x0A00_0000 | i));
    let (home, away) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
    let ttl = SimDuration::from_secs(3600);

    // The upper half registers with a short TTL and is dead at `now`.
    let mut db = MappingDb::new();
    for i in 0..10_000u32 {
        let ttl = if i < 5_000 {
            ttl
        } else {
            SimDuration::from_secs(1)
        };
        db.register(vn, eid(i), home, ttl, SimTime::ZERO);
    }
    let now = SimTime::ZERO + SimDuration::from_secs(10);
    let before = allocations();

    let (mut hits, mut dead_or_missing) = (0u64, 0u64);
    for i in 0..20_000u32 {
        match db.lookup(vn, eid(i), now) {
            Some(_) => hits += 1,
            None => dead_or_missing += 1,
        }
    }
    for i in 0..5_000u32 {
        let (to, want) = if i % 2 == 0 {
            (home, RegisterOutcome::Refreshed)
        } else {
            (away, RegisterOutcome::Moved { previous: home })
        };
        assert_eq!(db.register(vn, eid(i), to, ttl, now), want);
    }

    let after = allocations();
    assert_eq!((hits, dead_or_missing), (5_000, 15_000));
    assert_eq!(db.len(), 10_000);
    assert_eq!(
        after - before,
        0,
        "registry lookup/re-register performed {} heap allocations",
        after - before
    );
}
