//! Property tests for the map-server registry.
//!
//! 1. **Differential**: [`MappingDb`] (per-VN exact-match tables) against
//!    the trie-backed registry it replaced, frozen in
//!    `reference/registry.rs` — same outcomes, same answers, same
//!    snapshot order after every operation.
//! 2. **History independence**: what [`MappingDb::iter_vn`] yields
//!    depends on the contents, not on how large the tables once were —
//!    a statement the trie reference cannot make.
//! 3. The maintained entry counter: whatever mix of registers,
//!    withdrawals, retains and expiry purges runs, [`MappingDb::len`]
//!    (O(1)) must equal [`MappingDb::recount`] (the per-table sum).

use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_lisp::{MappingDb, MappingRecord};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, MacAddr, Rloc, VnId};

#[path = "reference/registry.rs"]
mod reference;

fn vn(n: u32) -> VnId {
    VnId::new(n).unwrap()
}

/// Mixes address families so every key shape is exercised.
fn eid(n: u8) -> Eid {
    match n % 3 {
        0 => Eid::V4(Ipv4Addr::new(10, 0, 0, n)),
        1 => Eid::Mac(MacAddr::from_seed(u32::from(n))),
        _ => Eid::V6(std::net::Ipv6Addr::new(
            0x2001,
            0xdb8,
            0,
            0,
            0,
            0,
            0,
            n.into(),
        )),
    }
}

/// EIDs the differential draws from; `eid(EIDS)` is never registered.
const EIDS: u8 = 24;
/// VNs the differential registers in; `vn(VNS + 1)` stays empty.
const VNS: u32 = 3;

fn owned<'a>(
    entries: impl Iterator<Item = (EidPrefix, &'a MappingRecord)>,
) -> Vec<(EidPrefix, MappingRecord)> {
    entries.map(|(p, r)| (p, *r)).collect()
}

fn sorted<'a>(
    entries: impl Iterator<Item = (VnId, EidPrefix, &'a MappingRecord)>,
) -> Vec<(VnId, Eid, MappingRecord)> {
    let mut all: Vec<_> = entries
        .map(|(v, p, r)| (v, p.as_host().expect("host registrations only"), *r))
        .collect();
    all.sort_unstable_by_key(|&(v, e, _)| (v, e));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every door of the registry against the trie-backed reference, over
    /// IPv4, IPv6 and MAC registrations in three VNs. After each step
    /// both sides must report the same outcome, answer every probe alike
    /// — stored and live (hit), never stored (miss), stored but past its
    /// TTL (dead), stored in another VN (wrong VN) — and agree on `len`,
    /// `live_count`, `iter_vn` **as a sequence** (it feeds pub/sub
    /// snapshots) and `iter` as a set. Operations decode from raw words,
    /// so a failure shrinks by halving.
    #[test]
    fn registry_matches_trie_reference(words in proptest::collection::vec(any::<u64>(), 1..120)) {
        let mut db = MappingDb::new();
        let mut model = reference::MappingDb::new();
        let mut now = SimTime::ZERO;

        for w in words {
            let v = vn(1 + (w >> 4) as u32 % VNS);
            let e = eid((w >> 8) as u8 % EIDS);
            let drawn = Rloc::for_router_index((w >> 16) as u16 % 4);
            let secs = SimDuration::from_secs(1 + (w >> 20) % 600);
            let stored = model.lookup(v, e, now).map(|(_, rec)| rec.rloc);
            match w % 8 {
                // register: as the draw falls (0..=2), at the RLOC the key
                // is live at (3: a refresh), or anywhere but there (4: a move)
                op @ 0..=4 => {
                    let rloc = match (op, stored) {
                        (3, Some(at)) => at,
                        (4, Some(at)) if at == drawn => Rloc::for_router_index(4),
                        _ => drawn,
                    };
                    prop_assert_eq!(
                        db.register(v, e, rloc, secs, now),
                        model.register(v, e, rloc, secs, now)
                    );
                }
                5 => prop_assert_eq!(db.withdraw(v, e), model.withdraw(v, e)),
                // time passes, and every other time the sweep runs
                6 => {
                    now += secs;
                    if (w >> 3) & 1 == 1 {
                        prop_assert_eq!(db.purge_expired(now), model.purge_expired(now));
                    }
                }
                // one VN goes, whole
                _ => prop_assert_eq!(
                    db.retain(|of, _, _| of != v),
                    model.retain(|of, _, _| of != v)
                ),
            }

            for probe_vn in (1..=VNS + 1).map(vn) {
                for probe in (0..=EIDS).map(eid) {
                    prop_assert_eq!(
                        db.lookup(probe_vn, probe, now),
                        model.lookup(probe_vn, probe, now)
                    );
                }
                prop_assert_eq!(db.live_count(probe_vn, now), model.live_count(probe_vn, now));
                prop_assert_eq!(owned(db.iter_vn(probe_vn)), owned(model.iter_vn(probe_vn)));
            }
            prop_assert_eq!(db.len(), model.len());
            prop_assert_eq!(db.is_empty(), model.is_empty());
            prop_assert_eq!(db.recount(), model.recount());
            prop_assert_eq!(db.len(), db.recount());
            prop_assert_eq!(sorted(db.iter()), sorted(model.iter()));
        }
    }

    /// Two databases with the same contents yield the same `iter_vn`
    /// sequence whatever their histories: `grown` registers four times
    /// as many keys first, then the kept ones in reverse, and withdraws
    /// the extras — its tables have been larger and keep that capacity.
    #[test]
    fn snapshot_order_ignores_capacity_history(
        kept in proptest::collection::hash_set(0u32..4096, 1..64),
    ) {
        let key = |n: u32| Eid::V4(Ipv4Addr::from(0x0A00_0000 | n));
        let rloc = |n: u32| Rloc::for_router_index((n % 7) as u16);
        let ttl = SimDuration::from_secs(300);
        let kept: Vec<u32> = kept.into_iter().collect();
        let extras = kept.len() as u32 * 4;

        let mut plain = MappingDb::new();
        for &n in &kept {
            plain.register(vn(1), key(n), rloc(n), ttl, SimTime::ZERO);
        }
        let mut grown = MappingDb::new();
        for n in 0..extras {
            grown.register(vn(1), key(4096 + n), rloc(n), ttl, SimTime::ZERO);
        }
        for &n in kept.iter().rev() {
            grown.register(vn(1), key(n), rloc(n), ttl, SimTime::ZERO);
        }
        for n in 0..extras {
            grown.withdraw(vn(1), key(4096 + n));
        }
        prop_assert!(
            grown.mem_stats().capacity_bytes > plain.mem_stats().capacity_bytes,
            "the histories differ where it could matter"
        );

        let entries = |db: &MappingDb| -> Vec<(EidPrefix, Rloc)> {
            db.iter_vn(vn(1)).map(|(p, r)| (p, r.rloc)).collect()
        };
        prop_assert_eq!(entries(&grown), entries(&plain));
        let mut ascending = kept.clone();
        ascending.sort_unstable();
        prop_assert_eq!(
            entries(&plain),
            ascending
                .iter()
                .map(|&n| (EidPrefix::host(key(n)), rloc(n)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn len_counter_never_drifts_from_recount(
        ops in proptest::collection::vec(
            (1u32..4, 0u8..24, 0u16..4, 0u8..4, 1u32..400), 1..100),
    ) {
        let mut db = MappingDb::new();
        let mut now = SimTime::ZERO;
        for (v, e, r, action, dt) in ops {
            match action {
                0 | 1 => {
                    db.register(
                        vn(v),
                        eid(e),
                        Rloc::for_router_index(r),
                        SimDuration::from_secs(u64::from(dt)),
                        now,
                    );
                }
                2 => {
                    db.withdraw(vn(v), eid(e));
                }
                _ => {
                    now += SimDuration::from_secs(u64::from(dt));
                    db.purge_expired(now);
                }
            }
            prop_assert_eq!(db.len(), db.recount());
            prop_assert_eq!(db.is_empty(), db.recount() == 0);
        }
        // A retain that drops every record in one VN keeps the counter
        // honest too.
        db.retain(|v, _, _| v != vn(1));
        prop_assert_eq!(db.len(), db.recount());
    }
}
