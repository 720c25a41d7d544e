//! Property tests for the map-server registry.
//!
//! 1. **Differential**: [`MappingDb`] (per-VN exact-match tables) against
//!    the trie-backed registry it replaced, kept as an ordered-map
//!    specification in `reference/registry.rs` — same outcomes, same
//!    answers, same snapshot order after every operation.
//! 2. **History independence**: what [`MappingDb::iter_vn`] yields
//!    depends on the contents, not on how large the tables once were —
//!    although the tables' slot order does.
//! 3. The maintained entry counter: whatever mix of registers,
//!    withdrawals, retains and expiry purges runs, [`MappingDb::len`]
//!    (O(1)) must equal [`MappingDb::recount`] (the occupied slots).
//! 4. **The table itself**, against a `std` `HashMap`, on the keys
//!    linear probing is worst at: sets that share one home slot, and
//!    clusters that wrap past the last slot of the array.
//! 5. **Both slot widths at once**, against an ordered map: IPv4 EIDs
//!    (narrow slots, except 0.0.0.0) beside MAC and IPv6 EIDs (wide
//!    slots) in the same VNs, colliding within each width.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use sda_lisp::{MappingDb, MappingRecord, RegisterOutcome};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{fold_eid, row_digest};
use sda_types::{Eid, EidPrefix, KeyHasher, MacAddr, Rloc, VnId};

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

/// The tables hand records out by value, the reference by `&`.
fn owned<R: Borrow<MappingRecord>>(
    entries: impl Iterator<Item = (EidPrefix, R)>,
) -> Vec<(EidPrefix, MappingRecord)> {
    entries.map(|(p, r)| (p, *r.borrow())).collect()
}

fn sorted<R: Borrow<MappingRecord>>(
    entries: impl Iterator<Item = (VnId, EidPrefix, R)>,
) -> Vec<(VnId, Eid, MappingRecord)> {
    let mut all: Vec<_> = entries
        .map(|(v, p, r)| {
            let eid = p.as_host().expect("host registrations only");
            (v, eid, *r.borrow())
        })
        .collect();
    all.sort_unstable_by_key(|&(v, e, _)| (v, e));
    all
}

/// Slots of `db`'s tables when it holds only IPv4 EIDs other than
/// 0.0.0.0, as every caller's does: [`MappingDb::mem_stats`] reports
/// 16 bytes a narrow slot, and such a database has no wide one.
fn slots(db: &MappingDb) -> usize {
    db.mem_stats().capacity_bytes / 16
}

/// The slot `eid` homes at in a table of `slots` (a power of two),
/// recomputed from the public hash; `wrapped_cluster_keeps_every_neighbour`
/// checks the recomputation against what the table shows of its layout.
fn home(eid: &Eid, slots: usize) -> usize {
    let mut hasher = KeyHasher::default();
    hasher.write_u64(fold_eid(eid));
    hasher.finish() as usize & (slots - 1)
}

/// The first `n` of `keys` that home at `slot` of a 64-slot table — and,
/// the low hash bits being shared, at `slot mod s` of every smaller one.
fn homing(keys: impl Iterator<Item = Eid>, slot: usize, n: usize) -> Vec<Eid> {
    keys.filter(|e| home(e, 64) == slot).take(n).collect()
}

/// The first `n` IPv4 EIDs in 10.0.0.0/8 that home at `slot`.
fn homing_at(slot: usize, n: usize) -> Vec<Eid> {
    homing(
        (0u32..).map(|i| Eid::V4(Ipv4Addr::from(0x0A00_0000 | i))),
        slot,
        n,
    )
}

/// Keys the table differential draws from, at most 7/8 of 64 slots: 16
/// that home at the last slot (one cluster, wrapping past the end of the
/// array at every size), 8 at the slot before (their cluster runs into
/// that one), 8 at slot 0 (which the wrap displaces) and 8 at slot 21.
/// The last two entries are never registered: the longest miss there is
/// (it walks the whole wrapped cluster) and one into displaced keys.
fn pool() -> (Vec<Eid>, [Eid; 2]) {
    let mut last = homing_at(63, 17);
    let mut first = homing_at(0, 9);
    let strangers = [last.pop().unwrap(), first.pop().unwrap()];
    let keys = [last, homing_at(62, 8), first, homing_at(21, 8)].concat();
    (keys, strangers)
}

/// Keys the mixed-family differential draws from, all colliding within
/// their slot width at every table size up to 64 slots. Narrow: 0.0.0.1
/// and 255.255.255.255 (the ends of the niche's range) and twelve that
/// home at the last slot or the first. Wide: 0.0.0.0, and IPv6 and MAC
/// keys homing where it does or at the last slot. The last three entries
/// are never registered: a narrow, an IPv6 and a MAC miss, each at the
/// end of its cluster.
fn mixed_pool() -> (Vec<Eid>, [Eid; 3]) {
    let zero = Eid::V4(Ipv4Addr::UNSPECIFIED);
    let v6 = || (0u16..).map(|i| Eid::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i)));
    let mac = || (0u32..).map(|i| Eid::Mac(MacAddr::from_seed(i)));
    let zero_home = home(&zero, 64);
    let mut last = homing_at(63, 9);
    let mut v6_zero = homing(v6(), zero_home, 5);
    let mut mac_zero = homing(mac(), zero_home, 5);
    let strangers = [
        last.pop().unwrap(),
        v6_zero.pop().unwrap(),
        mac_zero.pop().unwrap(),
    ];
    let keys = [
        vec![
            zero,
            Eid::V4(Ipv4Addr::new(0, 0, 0, 1)),
            Eid::V4(Ipv4Addr::BROADCAST),
        ],
        last,
        homing_at(0, 4),
        v6_zero,
        mac_zero,
        homing(v6(), 63, 2),
        homing(mac(), 63, 2),
    ]
    .concat();
    (keys, strangers)
}

/// A wrapped cluster, step by step: 16 keys homing at the last slot,
/// its head withdrawn (every neighbour shifts back, across the end of
/// the array), then a `retain` that drops every other survivor and must
/// ask about each exactly once.
#[test]
fn wrapped_cluster_keeps_every_neighbour() {
    let keys = homing_at(63, 16);
    let (rloc, ttl) = (Rloc::for_router_index(1), SimDuration::from_secs(300));
    let slot_order =
        |db: &MappingDb| -> Vec<Eid> { db.iter().map(|(_, p, _)| p.as_host().unwrap()).collect() };
    let mut db = MappingDb::new();
    for e in &keys[..7] {
        db.register(vn(1), *e, rloc, ttl, SimTime::ZERO);
    }
    // Before any growth, insertion order shows through: the first key
    // took the last slot and the rest wrapped to the front.
    let mut first_last = keys[1..7].to_vec();
    first_last.push(keys[0]);
    assert_eq!((slots(&db), slot_order(&db)), (8, first_last));
    for e in &keys[7..] {
        db.register(vn(1), *e, rloc, ttl, SimTime::ZERO);
    }
    assert_eq!(slots(&db), 32);

    let head = *slot_order(&db).last().unwrap();
    assert!(db.withdraw(vn(1), head).is_some());
    let live = |db: &MappingDb, e: &Eid| db.lookup(vn(1), *e, SimTime::ZERO).is_some();
    for e in &keys {
        assert_eq!(live(&db, e), *e != head, "{e:?} after the head went");
    }

    let mut asked: Vec<Eid> = Vec::new();
    let mut even = false;
    let removed = db.retain(|_, p, _| {
        asked.push(p.as_host().unwrap());
        even = !even;
        even
    });
    let kept: Vec<Eid> = asked.iter().copied().step_by(2).collect();
    assert_eq!((removed, db.len(), db.recount()), (7, 8, 8));
    asked.sort_unstable();
    let mut stored: Vec<Eid> = keys.iter().copied().filter(|e| *e != head).collect();
    stored.sort_unstable();
    assert_eq!(asked, stored, "once per entry");
    for e in &keys {
        assert_eq!(live(&db, e), kept.contains(e));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every door of the registry against the ordered-map reference, over
    /// IPv4, IPv6 and MAC registrations in three VNs. After each step
    /// both sides must report the same outcome, answer every probe alike
    /// — stored and live (hit), never stored (miss), stored but past its
    /// TTL (dead), stored in another VN (wrong VN) — and agree on `len`,
    /// the live count, `iter_vn` **as a sequence** (it feeds pub/sub
    /// snapshots) and `iter` as a set, whose rows `get` must hand out
    /// key by key. Operations decode from raw words, so a failure
    /// shrinks by halving.
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

            // `get` is the `iter` row of its key, live or expired (this
            // test leaves dead registrations unswept half the time);
            // `lookup` is that row while it is live.
            let rows: HashMap<(VnId, Eid), MappingRecord> = db
                .iter()
                .map(|(v, p, rec)| ((v, p.as_host().expect("host registrations only")), rec))
                .collect();
            for probe_vn in (1..=VNS + 1).map(vn) {
                for probe in (0..=EIDS).map(eid) {
                    let answer = db.lookup(probe_vn, probe, now);
                    prop_assert_eq!(answer, model.lookup(probe_vn, probe, now));
                    let row = db.get(probe_vn, probe);
                    prop_assert_eq!(row, rows.get(&(probe_vn, probe)).copied());
                    prop_assert_eq!(row.filter(|rec| !rec.expired(now)), answer.map(|(_, rec)| rec));
                }
                let live = db.iter_vn(probe_vn).filter(|(_, rec)| !rec.expired(now)).count();
                prop_assert_eq!(live, model.live_count(probe_vn, now));
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
        // Enough extras to outgrow `plain` even when it sits at the
        // table's minimum size (what one registration allocates).
        let mut minimal = MappingDb::new();
        minimal.register(vn(1), key(0), rloc(0), ttl, SimTime::ZERO);
        let extras = (kept.len() * 4).max(slots(&minimal)) as u32;

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

    /// The open-addressed table against a `HashMap`, over [`pool`]'s
    /// colliding keys. Words decode to register (0–2), move (3),
    /// withdraw (4, 5), time passing with a purge (6) and a `retain` that
    /// decides per key and counts its calls (7); every step ends with a
    /// lookup of every pool key — hits, TTL-dead and withdrawn alike, so
    /// whatever a removal displaced is probed at once — and of the two
    /// never-registered strangers.
    #[test]
    fn table_matches_hashmap_model(words in proptest::collection::vec(any::<u64>(), 1..200)) {
        let (keys, strangers) = pool();
        let mut db = MappingDb::new();
        let mut model: HashMap<Eid, MappingRecord> = HashMap::new();
        let mut now = SimTime::ZERO;

        for w in words {
            let e = keys[(w >> 8) as usize % keys.len()];
            let drawn = Rloc::for_router_index((w >> 16) as u16 % 4);
            let secs = SimDuration::from_secs(1 + (w >> 20) % 600);
            match w % 8 {
                op @ 0..=3 => {
                    let stored = model.get(&e).copied();
                    let rloc = match stored {
                        Some(at) if op == 3 && at.rloc == drawn => Rloc::for_router_index(4),
                        _ => drawn,
                    };
                    let want = match stored {
                        Some(old) if !old.expired(now) && old.rloc == rloc => RegisterOutcome::Refreshed,
                        Some(old) if !old.expired(now) => RegisterOutcome::Moved { previous: old.rloc },
                        expired => RegisterOutcome::New { replaced: expired.map(|old| old.rloc) },
                    };
                    prop_assert_eq!(db.register(vn(1), e, rloc, secs, now), want);
                    model.insert(e, MappingRecord { rloc, expires_at: now + secs });
                }
                4 | 5 => prop_assert_eq!(db.withdraw(vn(1), e), model.remove(&e)),
                6 => {
                    now += secs;
                    let before = model.len();
                    model.retain(|_, r| !r.expired(now));
                    prop_assert_eq!(db.purge_expired(now), before - model.len());
                }
                _ => {
                    let keep = |eid: &Eid| (fold_eid(eid) ^ w >> 8).count_ones() & 1 == 0;
                    let mut asked = Vec::new();
                    let removed = db.retain(|_, p, r| {
                        let eid = p.as_host().expect("host registrations only");
                        asked.push((eid, r));
                        keep(&eid)
                    });
                    asked.sort_unstable_by_key(|&(eid, _)| eid);
                    let mut stored: Vec<_> = model.iter().map(|(k, r)| (*k, *r)).collect();
                    stored.sort_unstable_by_key(|&(eid, _)| eid);
                    prop_assert_eq!(asked, stored, "retain asks once per entry");
                    model.retain(|k, _| keep(k));
                    prop_assert_eq!(removed, stored.len() - model.len());
                }
            }

            for probe in keys.iter().chain(&strangers) {
                prop_assert_eq!(db.get(vn(1), *probe), model.get(probe).copied());
                let want = model.get(probe).filter(|r| !r.expired(now));
                prop_assert_eq!(
                    db.lookup(vn(1), *probe, now),
                    want.map(|r| (EidPrefix::host(*probe), *r))
                );
            }
            prop_assert_eq!((db.len(), db.recount()), (model.len(), model.len()));
            let held: HashMap<Eid, MappingRecord> =
                db.iter().map(|(_, p, r)| (p.as_host().unwrap(), r)).collect();
            prop_assert_eq!(&held, &model);
            prop_assert!(slots(&db) <= 64 && model.len() * 8 <= slots(&db) * 7);
        }
    }

    /// Narrow and wide slots side by side in two VNs, against an ordered
    /// map, over [`mixed_pool`]. Words decode to register (0–2), move
    /// (3), withdraw (4, 5), time passing with a purge every other time
    /// (6) and a `retain` that decides per key (7), which must ask about
    /// each stored registration exactly once. After every step each pool
    /// key and stranger is probed in every VN (`get` and `lookup`), each
    /// VN's `iter_vn` must be the model's range for it **as a
    /// sequence** — 0.0.0.0 first among the IPv4 keys although a
    /// different table holds it — and `len` must equal `recount` and the
    /// model's size, and `vn_digest` the digest of that range.
    #[test]
    fn mixed_families_match_ordered_map_model(words in proptest::collection::vec(any::<u64>(), 1..200)) {
        let (keys, strangers) = mixed_pool();
        let mut db = MappingDb::new();
        let mut model: BTreeMap<(VnId, Eid), MappingRecord> = BTreeMap::new();
        let mut now = SimTime::ZERO;

        for w in words {
            let v = vn(1 + (w >> 4) as u32 % 2);
            let e = keys[(w >> 8) as usize % keys.len()];
            let drawn = Rloc::for_router_index((w >> 16) as u16 % 4);
            let secs = SimDuration::from_secs(1 + (w >> 20) % 600);
            match w % 8 {
                op @ 0..=3 => {
                    let stored = model.get(&(v, e)).copied();
                    let rloc = match stored {
                        Some(at) if op == 3 && at.rloc == drawn => Rloc::for_router_index(4),
                        _ => drawn,
                    };
                    let want = match stored {
                        Some(old) if !old.expired(now) && old.rloc == rloc => RegisterOutcome::Refreshed,
                        Some(old) if !old.expired(now) => RegisterOutcome::Moved { previous: old.rloc },
                        expired => RegisterOutcome::New { replaced: expired.map(|old| old.rloc) },
                    };
                    prop_assert_eq!(db.register(v, e, rloc, secs, now), want);
                    model.insert((v, e), MappingRecord { rloc, expires_at: now + secs });
                }
                4 | 5 => prop_assert_eq!(db.withdraw(v, e), model.remove(&(v, e))),
                6 => {
                    now += secs;
                    if (w >> 3) & 1 == 1 {
                        let before = model.len();
                        model.retain(|_, r| !r.expired(now));
                        prop_assert_eq!(db.purge_expired(now), before - model.len());
                    }
                }
                _ => {
                    let keep = |of: VnId, eid: &Eid| {
                        (fold_eid(eid) ^ u64::from(of.raw()) ^ w >> 8).count_ones() & 1 == 0
                    };
                    let mut asked = Vec::new();
                    let removed = db.retain(|of, p, r| {
                        let eid = p.as_host().expect("host registrations only");
                        asked.push(((of, eid), r));
                        keep(of, &eid)
                    });
                    asked.sort_unstable_by_key(|&(key, _)| key);
                    let stored: Vec<_> = model.iter().map(|(k, r)| (*k, *r)).collect();
                    prop_assert_eq!(asked, stored.clone(), "retain asks once per entry");
                    model.retain(|(of, eid), _| keep(*of, eid));
                    prop_assert_eq!(removed, stored.len() - model.len());
                }
            }

            for probe_vn in (1..=3).map(vn) {
                for probe in keys.iter().chain(&strangers) {
                    let want = model.get(&(probe_vn, *probe)).copied();
                    prop_assert_eq!(db.get(probe_vn, *probe), want);
                    prop_assert_eq!(
                        db.lookup(probe_vn, *probe, now),
                        want.filter(|r| !r.expired(now)).map(|r| (EidPrefix::host(*probe), r))
                    );
                }
                let want: Vec<(EidPrefix, MappingRecord)> = model
                    .range((probe_vn, Eid::V4(Ipv4Addr::UNSPECIFIED))..)
                    .take_while(|((of, _), _)| *of == probe_vn)
                    .map(|((_, e), r)| (EidPrefix::host(*e), *r))
                    .collect();
                let digest = want
                    .iter()
                    .fold(0u64, |d, (p, r)| d.wrapping_add(row_digest(&p.as_host().unwrap(), r.rloc)));
                prop_assert_eq!(db.iter_vn(probe_vn).collect::<Vec<_>>(), want);
                prop_assert_eq!(db.vn_digest(probe_vn), digest);
            }
            prop_assert_eq!((db.len(), db.recount()), (model.len(), model.len()));
            let held: BTreeMap<(VnId, Eid), MappingRecord> = db
                .iter()
                .map(|(v, p, r)| ((v, p.as_host().unwrap()), r))
                .collect();
            prop_assert_eq!(&held, &model);
        }
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
