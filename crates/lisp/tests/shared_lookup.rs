//! Threaded regression tests for the shared-read map-cache path.
//!
//! The `CacheEntry` atomics exist so reader threads holding only
//! `&MapCache` can refresh `last_used`/read `stale` while the table is
//! shared across cores. These tests pin down the two behaviors that
//! would silently rot without them:
//!
//! 1. [`MapCache::evict`] compares `last_used` *after* the atomics
//!    change — an entry kept warm by concurrent `lookup_shared` calls
//!    must survive the owner's eviction pass, while a genuinely idle
//!    entry still goes.
//! 2. Concurrent shared lookups from many threads agree with the
//!    owner's view and never tear (every outcome is a valid
//!    Hit/Stale/Miss for the installed state).

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use sda_lisp::{CacheOutcome, MapCache};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, Rloc, VnId};

fn vn() -> VnId {
    VnId::new(1).unwrap()
}

fn eid(n: u8) -> Eid {
    Eid::V4(Ipv4Addr::new(10, 0, 0, n))
}

const TTL: SimDuration = SimDuration::from_days(7);

/// Satellite regression: 4 threads hammer `lookup_shared` (refreshing
/// `last_used` through the atomics), then the owner runs `evict` with an
/// idle timeout that would have collected the entry had the refreshes
/// been lost. The hammered entry survives; an unprobed sibling is
/// evicted in the same pass.
#[test]
fn concurrently_refreshed_entry_survives_eviction() {
    let mut cache = MapCache::new();
    let hot = Rloc::for_router_index(1);
    let cold = Rloc::for_router_index(2);
    cache.install(vn(), EidPrefix::host(eid(1)), hot, TTL, SimTime::ZERO);
    cache.install(vn(), EidPrefix::host(eid(2)), cold, TTL, SimTime::ZERO);

    let idle = SimDuration::from_secs(3600);
    // Readers probe at `warm`, inside the idle window measured from ZERO
    // — so surviving eviction at `later` requires the refresh to have
    // actually landed in `last_used`.
    let warm = SimTime::ZERO + SimDuration::from_secs(3000);
    let later = SimTime::from_nanos(warm.as_nanos() + idle.as_nanos() - 1);
    assert!(
        later.saturating_since(SimTime::ZERO) >= idle,
        "an unrefreshed entry must be idle at `later`"
    );

    let hits = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10_000 {
                    match cache.lookup_shared(vn(), eid(1), warm) {
                        CacheOutcome::Hit(r) => {
                            assert_eq!(r, hot);
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("installed entry must hit, got {other:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), 40_000);

    // Owner maintenance: only the never-probed entry idles out.
    assert_eq!(cache.evict(later, idle), 1, "exactly the cold entry goes");
    assert_eq!(
        cache.lookup_shared(vn(), eid(1), later),
        CacheOutcome::Hit(hot),
        "the concurrently-refreshed entry must survive eviction"
    );
    assert_eq!(cache.lookup_shared(vn(), eid(2), later), CacheOutcome::Miss);
    assert_eq!(cache.len(), 1);
}

/// Many reader threads, mixed hit/stale/miss probes: every outcome is
/// exactly what the installed state dictates — shared descents never
/// tear, and the stale flag set through `&self` mid-run is observed as
/// either pre- or post-SMR (both valid), never anything else.
#[test]
fn shared_lookups_from_threads_agree_with_owner_state() {
    let mut cache = MapCache::new();
    let r1 = Rloc::for_router_index(1);
    let r2 = Rloc::for_router_index(2);
    cache.install(vn(), EidPrefix::host(eid(1)), r1, TTL, SimTime::ZERO);
    cache.install(vn(), EidPrefix::host(eid(2)), r2, TTL, SimTime::ZERO);
    let now = SimTime::ZERO + SimDuration::from_secs(5);

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut out = Vec::new();
                let probes = [eid(1), eid(2), eid(3), eid(1)];
                for _ in 0..5_000 {
                    cache.lookup_batch_shared(vn(), &probes, now, &mut out);
                    match out[0] {
                        CacheOutcome::Hit(r) | CacheOutcome::Stale(r) => assert_eq!(r, r1),
                        CacheOutcome::Miss => panic!("eid 1 installed"),
                    }
                    match out[1] {
                        CacheOutcome::Hit(r) | CacheOutcome::Stale(r) => assert_eq!(r, r2),
                        CacheOutcome::Miss => panic!("eid 2 installed"),
                    }
                    assert_eq!(out[2], CacheOutcome::Miss);
                    // Same EID as lane 0; the concurrent SMR may land
                    // between the two stale-flag loads, so only the RLOC
                    // is pinned.
                    match out[3] {
                        CacheOutcome::Hit(r) | CacheOutcome::Stale(r) => assert_eq!(r, r1),
                        CacheOutcome::Miss => panic!("eid 1 installed"),
                    }
                }
            });
        }
        // A concurrent SMR through the shared flag: readers see the flip
        // as Hit-then-Stale, never garbage.
        s.spawn(|| {
            cache.mark_stale_shared(vn(), eid(1), now);
        });
    });
    assert_eq!(
        cache.lookup_shared(vn(), eid(1), now),
        CacheOutcome::Stale(r1),
        "the SMR landed"
    );
}
