//! The `(VN, EID) → RLOC` mapping database.
//!
//! Table 2, row "Endpoint Location": key = VN + overlay address, value =
//! underlay address, updated by edge routers. Registrations carry a TTL;
//! expired entries answer as if absent (the registering edge refreshes
//! them periodically in a live deployment).
//!
//! **What it is.** One open-addressed, linear-probing table per VN: a
//! power-of-two array of 32-byte slots, each an `Option` of `{eid, rloc,
//! expires_at}` (the `None` lives in [`Eid`]'s tag byte), 32-byte
//! aligned so no slot straddles a cache line. A key's home slot is
//! [`KeyHasher`] over [`fold_eid`], masked; a probe walks forward from
//! there to the key or to the first empty slot, so a Map-Request is as a
//! rule answered from the line its home slot is on. Exact match is
//! complete, not a shortcut: [`MappingDb::register`] takes an [`Eid`] (a
//! Map-Register carries one), so no covering prefix can enter and the
//! longest match for an EID is the entry stored under it or nothing. A
//! request or a register costs one probe whatever the table holds — the
//! property Fig. 7 shows (delay flat in the number of routes).
//!
//! Each VN's table is one allocation that only growth replaces: it
//! doubles when the next insert would pass 7/8 full (`std`'s bound) and
//! never shrinks. Removal shifts the rest of the cluster back over the
//! hole, so there are no tombstones and a probe never outlives the
//! entries it passes; a re-register overwrites its slot and moves
//! nothing. A table's load runs from 7/16 after a doubling to 7/8 before
//! the next, and the expected probe with it (½(1 + 1/(1 − α)) slots for a
//! hit, ½(1 + 1/(1 − α)²) for a miss): 1.4 and 2.1 slots at 7/16, 1.5 and
//! 2.5 at the 1/2 a million endpoints leave in 2²¹ slots, and at worst —
//! a table about to grow — a hit reads 4.5 slots and a miss ≈ 32, 1 KiB
//! walked sequentially.
//!
//! **What it is not.**
//!
//! * Not the paper's Patricia trie (§4.1): that is the reference the
//!   tests hold this to (`tests/reference/registry.rs`) and the
//!   `fig7_trie_lookup` rows of the `fig7_routing_server` bench. Should
//!   prefix registrations ever get an API, `MapCache`'s hosts + covers
//!   split is the precedent.
//! * Not a general map: keys are host EIDs, values one RLOC and one
//!   deadline, and nothing outside this module sees a slot.
//! * Not ordered, except where order reaches the wire:
//!   [`MappingDb::iter_vn`] (pub/sub snapshots) sorts its VN by EID, so
//!   a snapshot never depends on a table's capacity history;
//!   [`MappingDb::iter`] and [`MappingDb::retain`] visit in slot order —
//!   deterministic (no per-process seed) but unspecified and never on
//!   the wire, so whoever publishes from them sorts first.
//!
//! **Trusted inputs.** Not hardened against crafted keys: the multiply
//! hash has no secret, and with linear probing colliding keys lengthen
//! every probe that crosses their cluster, not just their own. Inserts
//! come only from admitted Map-Registers — fabric edges registering
//! onboarded endpoints, rate-bounded by admission; requests only probe.
//! 4,096 keys forced onto one home slot still register, resolve, move
//! and withdraw correctly (the unit tests do it), only slowly.

use std::collections::BTreeMap;
use std::hash::Hasher;

use sda_simnet::{SimDuration, SimTime};
use sda_types::hash::fold_eid;
use sda_types::{Eid, EidPrefix, KeyHasher, Rloc, VnId};

/// One registered mapping, as the database hands it out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MappingRecord {
    /// The edge router currently serving the EID.
    pub rloc: Rloc,
    /// The instant the registration lapses: when it was made (or last
    /// refreshed) plus its TTL, saturating — an all-ones TTL never does.
    pub expires_at: SimTime,
}

impl MappingRecord {
    /// Whether the registration has expired at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }
}

/// Outcome of a register operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegisterOutcome {
    /// First registration of this EID.
    New,
    /// Same RLOC re-registered (refresh).
    Refreshed,
    /// The EID moved; carries the previous RLOC (Fig. 5: the server
    /// notifies this edge so it forwards in-flight traffic).
    Moved {
        /// Where the EID was registered before.
        previous: Rloc,
    },
}

/// A stored registration: 17 + 4 + 8 bytes, padded to 32 and aligned to
/// them, so two slots share a cache line and none straddles one.
#[derive(Clone, Copy)]
#[repr(align(32))]
struct Entry {
    eid: Eid,
    rloc: Rloc,
    expires_at: SimTime,
}

const _: () = assert!(std::mem::size_of::<Option<Entry>>() == 32);

impl Entry {
    fn record(&self) -> MappingRecord {
        MappingRecord {
            rloc: self.rloc,
            expires_at: self.expires_at,
        }
    }
}

/// Slots a VN's table starts with.
const MIN_SLOTS: usize = 8;

/// One VN's table. Invariants: `slots.len()` is a power of two;
/// `len ≤ 7/8 · slots.len()`, so an empty slot always ends a probe; every
/// slot from an entry's home to where it sits is occupied.
struct Table {
    slots: Box<[Option<Entry>]>,
    len: usize,
}

impl Table {
    fn with_slots(n: usize) -> Self {
        Table {
            slots: vec![None; n].into_boxed_slice(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, eid: &Eid) -> usize {
        let mut hasher = KeyHasher::default();
        hasher.write_u64(fold_eid(eid));
        hasher.finish() as usize & self.mask()
    }

    /// Where `eid` is stored (`Ok`), or the empty slot that ended the
    /// probe for it (`Err`).
    fn find(&self, eid: &Eid) -> Result<usize, usize> {
        let mut i = self.home(eid);
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some(e) if e.eid == *eid => return Ok(i),
                Some(_) => i = (i + 1) & self.mask(),
            }
        }
    }

    fn get(&self, eid: &Eid) -> Option<&Entry> {
        self.slots[self.find(eid).ok()?].as_ref()
    }

    /// Stores `new`, returning the entry it replaced. A stored key is
    /// overwritten where it sits; only a new key can grow the table.
    fn insert(&mut self, new: Entry) -> Option<Entry> {
        let empty = match self.find(&new.eid) {
            Ok(at) => return self.slots[at].replace(new),
            Err(empty) if (self.len + 1) * 8 <= self.slots.len() * 7 => empty,
            Err(_) => {
                let doubled = Table::with_slots(self.slots.len() * 2);
                let old = std::mem::replace(self, doubled);
                for e in old.slots.iter().flatten() {
                    self.insert(*e);
                }
                return self.insert(new);
            }
        };
        self.slots[empty] = Some(new);
        self.len += 1;
        None
    }

    /// Empties slot `hole` and closes the gap: each later entry of the
    /// cluster moves back into the hole unless its home lies after it.
    fn remove_at(&mut self, mut hole: usize) -> Option<Entry> {
        let removed = self.slots[hole].take();
        self.len -= 1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some(e) = self.slots[i] else {
                return removed;
            };
            // Cyclic distances back from `i`: the entry may sit in the
            // hole iff its home is at least as far back as the hole is.
            if i.wrapping_sub(self.home(&e.eid)) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
    }

    /// Keeps the entries `keep` approves, calling it once per entry. The
    /// scan starts after an empty slot, so it meets every cluster at its
    /// head and a removal only ever shifts unvisited entries — into the
    /// slot under the cursor or later.
    fn retain(&mut self, mut keep: impl FnMut(&Entry) -> bool) {
        let mask = self.mask();
        let start = self
            .slots
            .iter()
            .position(Option::is_none)
            .expect("load stays under 7/8");
        let mut i = start;
        for _ in 0..mask {
            i = (i + 1) & mask;
            while self.slots[i].as_ref().is_some_and(|e| !keep(e)) {
                self.remove_at(i);
            }
        }
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.slots.iter().flatten()
    }
}

/// The per-VN mapping database.
#[derive(Default)]
pub struct MappingDb {
    /// A registration is stored in its VN's table and nowhere else. Per
    /// VN, so a snapshot walks, and a growth rehash moves, one VN's slice.
    vns: BTreeMap<VnId, Table>,
    /// Maintained entry count, so [`MappingDb::len`] is O(1) instead of
    /// a sum over every per-VN table (the map-server answers `len` on
    /// every Fig. 7 sample). Invariant: always equals
    /// [`MappingDb::recount`] (checked by the property tests).
    total: usize,
}

impl MappingDb {
    /// Empty database.
    pub fn new() -> Self {
        MappingDb::default()
    }

    /// Registers (or refreshes) `eid → rloc` in `vn`; a stored key's
    /// entry is overwritten in place (nothing moves or allocates).
    pub fn register(
        &mut self,
        vn: VnId,
        eid: Eid,
        rloc: Rloc,
        ttl: SimDuration,
        now: SimTime,
    ) -> RegisterOutcome {
        let entry = Entry {
            eid,
            rloc,
            expires_at: SimTime::from_nanos(now.as_nanos().saturating_add(ttl.as_nanos())),
        };
        let table = self
            .vns
            .entry(vn)
            .or_insert_with(|| Table::with_slots(MIN_SLOTS));
        match table.insert(entry) {
            None => {
                self.total += 1;
                RegisterOutcome::New
            }
            Some(old) if old.record().expired(now) => RegisterOutcome::New,
            Some(old) if old.rloc == rloc => RegisterOutcome::Refreshed,
            Some(old) => RegisterOutcome::Moved { previous: old.rloc },
        }
    }

    /// Removes the registration of `eid` in `vn`.
    pub fn withdraw(&mut self, vn: VnId, eid: Eid) -> Option<MappingRecord> {
        let table = self.vns.get_mut(&vn)?;
        let removed = table.remove_at(table.find(&eid).ok()?)?;
        self.total -= 1;
        Some(removed.record())
    }

    /// What is stored for `eid` in `vn`, **live or expired** (a lapsed
    /// registration keeps its slot until a sweep): the
    /// [`MappingDb::iter`] row of that key, one probe.
    pub fn get(&self, vn: VnId, eid: Eid) -> Option<MappingRecord> {
        Some(self.vns.get(&vn)?.get(&eid)?.record())
    }

    /// The registration of `eid` in `vn`, one probe; expired records
    /// answer `None` (the §4.2 "route resolution with a negative result").
    pub fn lookup(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<(EidPrefix, MappingRecord)> {
        let rec = self.get(vn, eid).filter(|rec| !rec.expired(now))?;
        Some((EidPrefix::host(eid), rec))
    }

    /// Live registrations in `vn` at `now`.
    pub fn live_count(&self, vn: VnId, now: SimTime) -> usize {
        self.vns
            .get(&vn)
            .map(|t| t.entries().filter(|e| !e.record().expired(now)).count())
            .unwrap_or(0)
    }

    /// Total registrations (live or expired) across VNs. O(1): the
    /// count is maintained across register/withdraw/retain, not
    /// recomputed.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Recounts the occupied slots of every table (O(slots)). Exists so
    /// tests can assert the maintained counter never drifts; production
    /// callers should use [`MappingDb::len`].
    pub fn recount(&self) -> usize {
        self.vns.values().map(|t| t.entries().count()).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all `(vn, prefix, record)` entries, each VN's in
    /// **unspecified** (slot) order: its consumers (the reference
    /// convergence checker, differential tests) build maps or sort; what
    /// goes on the wire comes from [`MappingDb::iter_vn`].
    pub fn iter(&self) -> impl Iterator<Item = (VnId, EidPrefix, MappingRecord)> + '_ {
        self.vns.iter().flat_map(|(vn, table)| {
            table
                .entries()
                .map(move |e| (*vn, EidPrefix::host(e.eid), e.record()))
        })
    }

    /// The `(prefix, record)` entries of one VN only — O(that VN), not
    /// O(database) — in ascending [`Eid`] order (IPv4 < IPv6 < MAC, then
    /// by address): pub/sub snapshots walk the subscribed VN through
    /// this, and must not depend on how the table grew.
    pub fn iter_vn(&self, vn: VnId) -> impl Iterator<Item = (EidPrefix, MappingRecord)> {
        let mut entries: Vec<Entry> = self
            .vns
            .get(&vn)
            .into_iter()
            .flat_map(Table::entries)
            .copied()
            .collect();
        entries.sort_unstable_by_key(|e| e.eid);
        entries
            .into_iter()
            .map(|e| (EidPrefix::host(e.eid), e.record()))
    }

    /// Keeps only registrations for which `f` returns true, calling it
    /// once per registration in one pass per VN (slot order within a VN
    /// — see [`MappingDb::iter`]). Returns how many were removed.
    pub fn retain<F: FnMut(VnId, &EidPrefix, MappingRecord) -> bool>(&mut self, mut f: F) -> usize {
        let mut removed = 0;
        for (vn, table) in self.vns.iter_mut() {
            let before = table.len;
            table.retain(|e| f(*vn, &EidPrefix::host(e.eid), e.record()));
            removed += before - table.len;
        }
        self.total -= removed;
        removed
    }

    /// Drops expired registrations, returning how many were purged — a
    /// single pass per VN via [`MappingDb::retain`].
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.retain(|_, _, r| !r.expired(now))
    }

    /// Memory diagnostics in the shape the trie-backed stores report:
    /// `capacity_bytes` is exactly what the tables hold allocated, slots
    /// × 32.
    pub fn mem_stats(&self) -> sda_trie::MemStats {
        let slots: usize = self.vns.values().map(|t| t.slots.len()).sum();
        sda_trie::MemStats {
            capacity_bytes: slots * std::mem::size_of::<Option<Entry>>(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn eid(n: u8) -> Eid {
        Eid::V4(Ipv4Addr::new(10, 0, 0, n))
    }

    const TTL: SimDuration = SimDuration::from_secs(300);

    #[test]
    fn register_lookup_roundtrip() {
        let mut db = MappingDb::new();
        let out = db.register(vn(1), eid(1), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        assert_eq!(out, RegisterOutcome::New);
        let (prefix, rec) = db.lookup(vn(1), eid(1), SimTime::ZERO).unwrap();
        assert!(prefix.is_host());
        assert_eq!(rec.rloc, Rloc::for_router_index(1));
    }

    #[test]
    fn vn_isolation() {
        let mut db = MappingDb::new();
        db.register(vn(1), eid(1), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        assert!(db.lookup(vn(2), eid(1), SimTime::ZERO).is_none());
    }

    #[test]
    fn move_detection() {
        let mut db = MappingDb::new();
        let r1 = Rloc::for_router_index(1);
        let r2 = Rloc::for_router_index(2);
        db.register(vn(1), eid(1), r1, TTL, SimTime::ZERO);
        assert_eq!(
            db.register(vn(1), eid(1), r1, TTL, SimTime::ZERO),
            RegisterOutcome::Refreshed
        );
        assert_eq!(
            db.register(vn(1), eid(1), r2, TTL, SimTime::ZERO),
            RegisterOutcome::Moved { previous: r1 }
        );
        let (_, rec) = db.lookup(vn(1), eid(1), SimTime::ZERO).unwrap();
        assert_eq!(rec.rloc, r2);
    }

    #[test]
    fn expiry_hides_and_purges() {
        let mut db = MappingDb::new();
        db.register(vn(1), eid(1), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        let later = SimTime::ZERO + TTL + SimDuration::from_secs(1);
        assert!(db.lookup(vn(1), eid(1), later).is_none());
        assert_eq!(db.live_count(vn(1), later), 0);
        assert_eq!(db.len(), 1, "expired entry still occupies storage");
        assert_eq!(db.purge_expired(later), 1);
        assert_eq!(db.len(), 0);
        // Registering after expiry counts as New, not Moved.
        let out = db.register(vn(1), eid(1), Rloc::for_router_index(2), TTL, later);
        assert_eq!(out, RegisterOutcome::New);
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut db = MappingDb::new();
        let r1 = Rloc::for_router_index(1);
        db.register(vn(1), eid(1), r1, TTL, SimTime::ZERO);
        let mid = SimTime::ZERO + SimDuration::from_secs(200);
        db.register(vn(1), eid(1), r1, TTL, mid);
        let after_first_ttl = SimTime::ZERO + TTL + SimDuration::from_secs(10);
        assert!(db.lookup(vn(1), eid(1), after_first_ttl).is_some());
    }

    #[test]
    fn expiry_flips_exactly_at_registered_plus_ttl() {
        let mut db = MappingDb::new();
        let at = SimTime::ZERO + SimDuration::from_secs(7);
        db.register(vn(1), eid(1), Rloc::for_router_index(1), TTL, at);
        let (_, rec) = db.lookup(vn(1), eid(1), at).unwrap();
        assert_eq!(rec.expires_at, at + TTL);
        let last_live = SimTime::from_nanos((at + TTL).as_nanos() - 1);
        assert!(db.lookup(vn(1), eid(1), last_live).is_some());
        assert!(db.lookup(vn(1), eid(1), at + TTL).is_none());
        assert_eq!(db.purge_expired(last_live), 0);
        assert_eq!(db.purge_expired(at + TTL), 1);
    }

    #[test]
    fn all_ones_ttl_never_expires() {
        let mut db = MappingDb::new();
        let forever = SimDuration::from_nanos(u64::MAX);
        let at = SimTime::ZERO + SimDuration::from_days(35);
        db.register(vn(1), eid(1), Rloc::for_router_index(1), forever, at);
        let end_of_time = SimTime::from_nanos(u64::MAX - 1);
        assert!(db.lookup(vn(1), eid(1), end_of_time).is_some());
        assert_eq!(db.purge_expired(end_of_time), 0);
    }

    /// The worst case the module doc names: every key homes at one slot,
    /// at every size the table passes through, so the table is a single
    /// cluster 4,096 long.
    #[test]
    fn four_thousand_keys_sharing_one_home_slot() {
        const KEYS: usize = 4096;
        let sized = Table::with_slots((KEYS * 8 / 7 + 1).next_power_of_two());
        let keys: Vec<Eid> = (0u32..)
            .map(|n| Eid::V4(Ipv4Addr::from(n)))
            .filter(|e| sized.home(e) == sized.mask())
            .take(KEYS)
            .collect();
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));

        let mut db = MappingDb::new();
        for e in &keys {
            assert_eq!(
                db.register(vn(1), *e, r1, TTL, SimTime::ZERO),
                RegisterOutcome::New
            );
        }
        assert_eq!((db.len(), db.recount()), (KEYS, KEYS));
        assert_eq!(db.mem_stats().capacity_bytes, sized.slots.len() * 32);
        for e in &keys {
            assert_eq!(db.lookup(vn(1), *e, SimTime::ZERO).unwrap().1.rloc, r1);
        }
        for e in &keys {
            assert_eq!(
                db.register(vn(1), *e, r2, TTL, SimTime::ZERO),
                RegisterOutcome::Moved { previous: r1 }
            );
        }
        // Withdraw from the cluster's head, so every removal shifts all
        // that remains; the survivors must stay reachable throughout.
        for (i, e) in keys.iter().enumerate() {
            assert_eq!(db.withdraw(vn(1), *e).unwrap().rloc, r2);
            assert!(db.lookup(vn(1), *e, SimTime::ZERO).is_none());
            if let Some(next) = keys.get(i + 1) {
                assert!(db.lookup(vn(1), *next, SimTime::ZERO).is_some());
                assert!(db.lookup(vn(1), keys[KEYS - 1], SimTime::ZERO).is_some());
            }
        }
        assert_eq!((db.len(), db.recount()), (0, 0));
    }

    #[test]
    fn withdraw_removes() {
        let mut db = MappingDb::new();
        db.register(vn(1), eid(1), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        assert!(db.withdraw(vn(1), eid(1)).is_some());
        assert!(db.withdraw(vn(1), eid(1)).is_none());
        assert!(db.lookup(vn(1), eid(1), SimTime::ZERO).is_none());
    }

    #[test]
    fn len_is_maintained_not_recomputed() {
        let mut db = MappingDb::new();
        db.register(vn(1), eid(1), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        db.register(vn(2), eid(1), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        db.register(vn(1), eid(1), Rloc::for_router_index(2), TTL, SimTime::ZERO); // move
        assert_eq!(db.len(), 2);
        assert_eq!(db.len(), db.recount());
        db.withdraw(vn(1), eid(1));
        assert_eq!(db.len(), 1);
        assert_eq!(db.len(), db.recount());
        let later = SimTime::ZERO + TTL + SimDuration::from_secs(1);
        db.purge_expired(later);
        assert_eq!(db.len(), 0);
        assert_eq!(db.len(), db.recount());
    }

    #[test]
    fn refresh_and_move_registers_move_nothing() {
        let mut db = MappingDb::new();
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
        for n in 0..=255 {
            db.register(vn(1), eid(n), r1, TTL, SimTime::ZERO);
        }
        let layout = db.mem_stats();
        let later = SimTime::ZERO + SimDuration::from_secs(10);
        for n in 0..=255 {
            // Even hosts refresh, odd hosts move.
            let (to, want) = if n % 2 == 0 {
                (r1, RegisterOutcome::Refreshed)
            } else {
                (r2, RegisterOutcome::Moved { previous: r1 })
            };
            assert_eq!(db.register(vn(1), eid(n), to, TTL, later), want);
        }
        assert_eq!(db.mem_stats(), layout, "re-registration moves nothing");
        for n in 0..=255 {
            let (_, rec) = db.lookup(vn(1), eid(n), later).unwrap();
            assert_eq!(rec.rloc, if n % 2 == 0 { r1 } else { r2 });
            assert_eq!(rec.expires_at, later + TTL);
        }
    }

    #[test]
    fn all_three_families_coexist() {
        let mut db = MappingDb::new();
        let r = Rloc::for_router_index(3);
        db.register(vn(1), eid(1), r, TTL, SimTime::ZERO);
        db.register(
            vn(1),
            Eid::V6("2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap()),
            r,
            TTL,
            SimTime::ZERO,
        );
        db.register(
            vn(1),
            Eid::Mac(sda_types::MacAddr::from_seed(1)),
            r,
            TTL,
            SimTime::ZERO,
        );
        assert_eq!(db.len(), 3);
        assert_eq!(db.live_count(vn(1), SimTime::ZERO), 3);
    }
}
