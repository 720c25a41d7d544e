//! Clone-and-swap stress: readers must never observe a torn FIB.
//!
//! The publisher swaps the shared tables 1,000 times between two
//! complete populations (every route → RLOC A, every route → RLOC B)
//! while reader threads resolve continuously through [`TableReader`]
//! handles. Every single lookup must land entirely in the old or
//! entirely in the new table: each burst resolves only to A or only to
//! B, never a mixture within one batch descent snapshot, and never a
//! miss — a torn arena would produce garbage RLOCs, misses or panics.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sda_dataplane::{EpochTables, SharedTables};
use sda_lisp::CacheOutcome;
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, Rloc, VnId};

fn vn() -> VnId {
    VnId::new(1).unwrap()
}

fn eid(i: u32) -> Eid {
    Eid::V4(Ipv4Addr::from(0x0A09_0000 | i))
}

const ROUTES: u32 = 512;
const SWAPS: u32 = 1_000;

fn population(rloc: Rloc) -> SharedTables {
    let mut t = SharedTables::new();
    for i in 0..ROUTES {
        t.install_mapping(
            vn(),
            EidPrefix::host(eid(i)),
            rloc,
            SimDuration::from_days(365),
            SimTime::ZERO,
        );
    }
    t
}

#[test]
fn readers_never_observe_a_torn_fib_across_1k_swaps() {
    let old_rloc = Rloc::for_router_index(11);
    let new_rloc = Rloc::for_router_index(22);
    let epoch = EpochTables::new(population(old_rloc));
    let stop = AtomicBool::new(false);
    let lookups = AtomicU64::new(0);
    let now = SimTime::ZERO + SimDuration::from_secs(1);

    std::thread::scope(|s| {
        // Reader threads: batched shared lookups through epoch readers.
        for _ in 0..4 {
            let mut reader = epoch.reader();
            let stop = &stop;
            let lookups = &lookups;
            s.spawn(move || {
                let probes: Vec<Eid> = (0..32u32).map(|i| eid(i * 97 % ROUTES)).collect();
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let tables = reader.current();
                    tables
                        .map_cache()
                        .lookup_batch_shared(vn(), &probes, now, &mut out);
                    // Each lookup resolves against exactly one snapshot:
                    // old or new RLOC, never a miss, never garbage.
                    for o in &out {
                        match o {
                            CacheOutcome::Hit(r) => {
                                assert!(
                                    *r == old_rloc || *r == new_rloc,
                                    "torn FIB: resolved to unknown RLOC {r:?}"
                                );
                            }
                            other => panic!("torn FIB: installed route answered {other:?}"),
                        }
                    }
                    // Within one batch the snapshot is pinned, so the
                    // whole burst agrees on one population.
                    let first = out[0];
                    assert!(
                        out.iter().all(|o| *o == first),
                        "one batch must resolve against one snapshot"
                    );
                    lookups.fetch_add(out.len() as u64, Ordering::Relaxed);
                }
            });
        }

        // Publisher: 1k full-population swaps, alternating A/B.
        for k in 0..SWAPS {
            let rloc = if k % 2 == 0 { new_rloc } else { old_rloc };
            epoch.publish(population(rloc));
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        lookups.load(Ordering::Relaxed) > 0,
        "readers actually ran under the swap storm"
    );
    // After the storm settles, a fresh reader sees the final epoch.
    let mut reader = epoch.reader();
    let tables = reader.current();
    let last = if (SWAPS - 1).is_multiple_of(2) {
        new_rloc
    } else {
        old_rloc
    };
    assert_eq!(
        tables.map_cache().lookup_shared(vn(), eid(0), now),
        CacheOutcome::Hit(last)
    );
    assert_eq!(epoch.epoch(), u64::from(SWAPS));
}
