//! The `(VN, EID) → RLOC` mapping database.
//!
//! Table 2, row "Endpoint Location": key = VN + overlay address, value =
//! underlay address, updated by edge routers. Registrations carry a TTL;
//! expired entries answer as if absent (the registering edge refreshes
//! them periodically in a live deployment).
//!
//! **What it is.** Per VN, open-addressed, linear-probing tables of host
//! registrations in two slot widths, both served by one generic
//! `Table` (one probe, one insert, one backward shift, one `retain`):
//!
//! * **narrow** slots, 16 bytes: `{addr, rloc, expires_at}` for every
//!   IPv4 EID except 0.0.0.0. The address is a `NonZeroU32`, so an empty
//!   slot's `None` lives in its zero niche — that is why 0.0.0.0, the
//!   one address the niche takes, is not narrow. A probe compares the
//!   stored `u32` with the key's and never rebuilds an [`Eid`]. Every
//!   VN has a narrow table.
//! * **wide** slots, 32 bytes: `{eid, rloc, expires_at}` (the `None` in
//!   [`Eid`]'s tag byte) for MAC, IPv6 and 0.0.0.0. A VN allocates its
//!   wide table on its first such key, so a VN of IPv4 hosts has none.
//!
//! Both widths are aligned to their size, so no slot straddles a cache
//! line: a 64-byte line holds four narrow slots or two wide ones. A
//! key's home slot is [`KeyHasher`] over [`fold_eid`], masked, in either
//! width; a probe walks forward from there to the key or to the first
//! empty slot. Exact match is complete, not a shortcut:
//! [`MappingDb::register`] takes an [`Eid`] (a Map-Register carries
//! one), so no covering prefix can enter and the longest match for an
//! EID is the entry stored under it or nothing. A request or a register
//! costs one probe whatever the table holds — the property Fig. 7 shows
//! (delay flat in the number of routes).
//!
//! Each table is one allocation that only growth replaces: it doubles
//! when the next insert would pass 7/8 full (`std`'s bound) and never
//! shrinks. Removal shifts the rest of the cluster back over the hole,
//! so there are no tombstones and a probe never outlives the entries it
//! passes; a re-register overwrites its slot and moves nothing. A
//! table's load runs from 7/16 after a doubling to 7/8 before the next,
//! and the expected probe with it (½(1 + 1/(1 − α)) slots for a hit,
//! ½(1 + 1/(1 − α)²) for a miss): 1.4 and 2.1 slots at 7/16, 1.5 and 2.5
//! at the 1/2 a million endpoints leave in 2²¹ slots — one cache line as
//! a rule in either width, and more often so at four narrow slots to the
//! line than at two wide ones. At worst, in a table about to grow, a hit
//! reads 4.5 slots and a miss ≈ 32: eight lines walked sequentially if
//! narrow, sixteen if wide.
//!
//! [`MappingDb::mem_stats`] reports exactly what the tables hold
//! allocated: 16 bytes a narrow slot plus 32 a wide one (a million IPv4
//! endpoints in one VN: 2²¹ narrow slots, 32 MiB).
//!
//! **What it is not.**
//!
//! * Not the paper's Patricia trie (§4.1): that is the reference the
//!   tests hold this to (`tests/reference/registry.rs`). Should prefix
//!   registrations ever get an API, `MapCache`'s hosts + covers split is
//!   the precedent.
//! * Not a general map: keys are host EIDs, values one RLOC and one
//!   deadline, and nothing outside this module sees a slot or learns
//!   which width holds a key.
//! * Not ordered, except where order reaches the wire:
//!   [`MappingDb::iter_vn`] (pub/sub snapshots) merges its VN's two
//!   tables and sorts by EID, so a snapshot never depends on a table's
//!   width or capacity history; [`MappingDb::iter`] and
//!   [`MappingDb::retain`] visit in slot order, a VN's narrow table
//!   before its wide one — deterministic (no per-process seed) but
//!   unspecified and never on the wire, so whoever publishes from them
//!   sorts first.
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
use std::net::Ipv4Addr;
use std::num::NonZeroU32;

use sda_simnet::{SimDuration, SimTime};
use sda_types::{fold_eid, row_digest, MemStats};
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
    /// First registration of this EID, or one over an expired
    /// registration nobody swept yet — whose RLOC `replaced` carries, so
    /// a caller that digests rows live or expired can take it out.
    New {
        /// The expired registration's RLOC, if one was overwritten.
        replaced: Option<Rloc>,
    },
    /// Same RLOC re-registered (refresh).
    Refreshed,
    /// The EID moved; carries the previous RLOC (Fig. 5: the server
    /// notifies this edge so it forwards in-flight traffic).
    Moved {
        /// Where the EID was registered before.
        previous: Rloc,
    },
}

/// What a [`Table`] stores: a key in the table's own form beside the
/// record registered under it.
trait Slot: Copy {
    /// What a probe compares slot by slot.
    type Key: Copy + Eq;
    fn key(&self) -> Self::Key;
    fn record(&self) -> MappingRecord;
    /// The EID `key` stands for: what its home slot hashes, and what
    /// iteration hands out.
    fn eid(key: Self::Key) -> Eid;
}

/// A wide slot: 17 + 4 + 8 bytes, padded to 32 and aligned to them.
#[derive(Clone, Copy)]
#[repr(align(32))]
struct Wide {
    eid: Eid,
    rloc: Rloc,
    expires_at: SimTime,
}

/// A narrow slot: an IPv4 EID other than 0.0.0.0, 4 + 4 + 8 bytes,
/// aligned to 16.
#[derive(Clone, Copy)]
#[repr(align(16))]
struct Narrow {
    addr: NonZeroU32,
    rloc: Rloc,
    expires_at: SimTime,
}

const _: () = assert!(std::mem::size_of::<Option<Wide>>() == 32);
const _: () = assert!(std::mem::size_of::<Option<Narrow>>() == 16);

impl Slot for Wide {
    type Key = Eid;
    fn key(&self) -> Eid {
        self.eid
    }
    fn record(&self) -> MappingRecord {
        MappingRecord {
            rloc: self.rloc,
            expires_at: self.expires_at,
        }
    }
    fn eid(key: Eid) -> Eid {
        key
    }
}

impl Slot for Narrow {
    type Key = NonZeroU32;
    fn key(&self) -> NonZeroU32 {
        self.addr
    }
    fn record(&self) -> MappingRecord {
        MappingRecord {
            rloc: self.rloc,
            expires_at: self.expires_at,
        }
    }
    fn eid(key: NonZeroU32) -> Eid {
        Eid::V4(Ipv4Addr::from(key.get()))
    }
}

/// The narrow key of `eid`, if it has one.
fn narrow_key(eid: &Eid) -> Option<NonZeroU32> {
    match eid {
        Eid::V4(addr) => NonZeroU32::new(u32::from(*addr)),
        _ => None,
    }
}

/// Slots a table starts with.
const MIN_SLOTS: usize = 8;

/// One open-addressed table. Invariants: `slots.len()` is a power of
/// two; `len ≤ 7/8 · slots.len()`, so an empty slot always ends a probe;
/// every slot from an entry's home to where it sits is occupied.
struct Table<S> {
    slots: Box<[Option<S>]>,
    len: usize,
}

impl<S: Slot> Table<S> {
    fn with_slots(n: usize) -> Self {
        Table {
            slots: vec![None; n].into_boxed_slice(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: S::Key) -> usize {
        let mut hasher = KeyHasher::default();
        hasher.write_u64(fold_eid(&S::eid(key)));
        hasher.finish() as usize & self.mask()
    }

    /// Where `key` is stored (`Ok`), or the empty slot that ended the
    /// probe for it (`Err`).
    fn find(&self, key: S::Key) -> Result<usize, usize> {
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some(s) if s.key() == key => return Ok(i),
                Some(_) => i = (i + 1) & self.mask(),
            }
        }
    }

    fn get(&self, key: S::Key) -> Option<MappingRecord> {
        self.slots[self.find(key).ok()?].map(|s| s.record())
    }

    /// Stores `new`, returning the record it replaced. A stored key is
    /// overwritten where it sits; only a new key can grow the table.
    fn insert(&mut self, new: S) -> Option<MappingRecord> {
        let empty = match self.find(new.key()) {
            Ok(at) => return self.slots[at].replace(new).map(|old| old.record()),
            Err(empty) if (self.len + 1) * 8 <= self.slots.len() * 7 => empty,
            Err(_) => {
                let doubled = Table::with_slots(self.slots.len() * 2);
                let old = std::mem::replace(self, doubled);
                for s in old.slots.iter().flatten() {
                    self.insert(*s);
                }
                return self.insert(new);
            }
        };
        self.slots[empty] = Some(new);
        self.len += 1;
        None
    }

    fn remove(&mut self, key: S::Key) -> Option<MappingRecord> {
        let at = self.find(key).ok()?;
        self.remove_at(at).map(|s| s.record())
    }

    /// Empties slot `hole` and closes the gap: each later entry of the
    /// cluster moves back into the hole unless its home lies after it.
    fn remove_at(&mut self, mut hole: usize) -> Option<S> {
        let removed = self.slots[hole].take();
        self.len -= 1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some(s) = self.slots[i] else {
                return removed;
            };
            // Cyclic distances back from `i`: the entry may sit in the
            // hole iff its home is at least as far back as the hole is.
            if i.wrapping_sub(self.home(s.key())) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
    }

    /// Keeps the entries `keep` approves, calling it once per entry. The
    /// scan starts after an empty slot, so it meets every cluster at its
    /// head and a removal only ever shifts unvisited entries — into the
    /// slot under the cursor or later.
    fn retain(&mut self, mut keep: impl FnMut(Eid, MappingRecord) -> bool) {
        let mask = self.mask();
        let start = self
            .slots
            .iter()
            .position(Option::is_none)
            .expect("load stays under 7/8");
        let mut i = start;
        for _ in 0..mask {
            i = (i + 1) & mask;
            while self.slots[i]
                .as_ref()
                .is_some_and(|s| !keep(S::eid(s.key()), s.record()))
            {
                self.remove_at(i);
            }
        }
    }

    fn entries(&self) -> impl Iterator<Item = (Eid, MappingRecord)> + '_ {
        self.slots
            .iter()
            .flatten()
            .map(|s| (S::eid(s.key()), s.record()))
    }

    fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<S>>()
    }
}

/// One VN's registrations: a key with a narrow form is stored in the
/// narrow table and nowhere else, any other key in the wide one.
struct Vn {
    narrow: Table<Narrow>,
    /// Allocated on the VN's first key without a narrow form.
    wide: Option<Table<Wide>>,
}

impl Vn {
    fn new() -> Self {
        Vn {
            narrow: Table::with_slots(MIN_SLOTS),
            wide: None,
        }
    }

    fn get(&self, eid: Eid) -> Option<MappingRecord> {
        match narrow_key(&eid) {
            Some(addr) => self.narrow.get(addr),
            None => self.wide.as_ref()?.get(eid),
        }
    }

    fn insert(&mut self, eid: Eid, rloc: Rloc, expires_at: SimTime) -> Option<MappingRecord> {
        match narrow_key(&eid) {
            Some(addr) => self.narrow.insert(Narrow {
                addr,
                rloc,
                expires_at,
            }),
            None => self
                .wide
                .get_or_insert_with(|| Table::with_slots(MIN_SLOTS))
                .insert(Wide {
                    eid,
                    rloc,
                    expires_at,
                }),
        }
    }

    fn remove(&mut self, eid: Eid) -> Option<MappingRecord> {
        match narrow_key(&eid) {
            Some(addr) => self.narrow.remove(addr),
            None => self.wide.as_mut()?.remove(eid),
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(Eid, MappingRecord) -> bool) {
        self.narrow.retain(&mut keep);
        if let Some(wide) = &mut self.wide {
            wide.retain(keep);
        }
    }

    fn entries(&self) -> impl Iterator<Item = (Eid, MappingRecord)> + '_ {
        let wide = self.wide.iter().flat_map(Table::entries);
        self.narrow.entries().chain(wide)
    }

    fn len(&self) -> usize {
        self.narrow.len + self.wide.as_ref().map_or(0, |w| w.len)
    }

    fn bytes(&self) -> usize {
        self.narrow.bytes() + self.wide.as_ref().map_or(0, Table::bytes)
    }
}

/// The per-VN mapping database.
#[derive(Default)]
pub struct MappingDb {
    /// A registration is stored in its VN's tables and nowhere else. Per
    /// VN, so a snapshot walks, and a growth rehash moves, one VN's slice.
    vns: BTreeMap<VnId, Vn>,
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
        let expires_at = SimTime::from_nanos(now.as_nanos().saturating_add(ttl.as_nanos()));
        let tables = self.vns.entry(vn).or_insert_with(Vn::new);
        match tables.insert(eid, rloc, expires_at) {
            None => {
                self.total += 1;
                RegisterOutcome::New { replaced: None }
            }
            Some(old) if old.expired(now) => RegisterOutcome::New {
                replaced: Some(old.rloc),
            },
            Some(old) if old.rloc == rloc => RegisterOutcome::Refreshed,
            Some(old) => RegisterOutcome::Moved { previous: old.rloc },
        }
    }

    /// Removes the registration of `eid` in `vn`.
    pub fn withdraw(&mut self, vn: VnId, eid: Eid) -> Option<MappingRecord> {
        let removed = self.vns.get_mut(&vn)?.remove(eid)?;
        self.total -= 1;
        Some(removed)
    }

    /// What is stored for `eid` in `vn`, **live or expired** (a lapsed
    /// registration keeps its slot until a sweep): the
    /// [`MappingDb::iter`] row of that key, one probe.
    pub fn get(&self, vn: VnId, eid: Eid) -> Option<MappingRecord> {
        self.vns.get(&vn)?.get(eid)
    }

    /// The registration of `eid` in `vn`, one probe; expired records
    /// answer `None` (the §4.2 "route resolution with a negative result").
    pub fn lookup(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<(EidPrefix, MappingRecord)> {
        let rec = self.get(vn, eid).filter(|rec| !rec.expired(now))?;
        Some((EidPrefix::host(eid), rec))
    }

    /// Live registrations in `vn` at `now`.
    #[cfg(test)]
    fn live_count(&self, vn: VnId, now: SimTime) -> usize {
        self.vns.get(&vn).map_or(0, |t| {
            t.entries().filter(|(_, rec)| !rec.expired(now)).count()
        })
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
        self.vns.iter().flat_map(|(vn, tables)| {
            tables
                .entries()
                .map(move |(eid, rec)| (*vn, EidPrefix::host(eid), rec))
        })
    }

    /// The `(prefix, record)` entries of one VN only — O(that VN), not
    /// O(database) — in ascending [`Eid`] order (IPv4 < IPv6 < MAC, then
    /// by address): pub/sub snapshots walk the subscribed VN through
    /// this, and must not depend on how the table grew.
    pub fn iter_vn(&self, vn: VnId) -> impl Iterator<Item = (EidPrefix, MappingRecord)> {
        let mut entries: Vec<(Eid, MappingRecord)> = self
            .vns
            .get(&vn)
            .into_iter()
            .flat_map(Vn::entries)
            .collect();
        entries.sort_unstable_by_key(|&(eid, _)| eid);
        entries
            .into_iter()
            .map(|(eid, rec)| (EidPrefix::host(eid), rec))
    }

    /// The wrapping sum of [`row_digest`] over every row of `vn`, live or
    /// expired — what a pub/sub snapshot of `vn` carries, digested. One
    /// unsorted pass over the VN's slots: the sum does not depend on
    /// order, so nothing is collected or sorted.
    pub fn vn_digest(&self, vn: VnId) -> u64 {
        self.vns.get(&vn).map_or(0, |t| {
            t.entries().fold(0, |d, (eid, rec)| {
                d.wrapping_add(row_digest(&eid, rec.rloc))
            })
        })
    }

    /// Keeps only registrations for which `f` returns true, calling it
    /// once per registration in one pass per VN (slot order within a VN
    /// — see [`MappingDb::iter`]). Returns how many were removed.
    pub fn retain<F: FnMut(VnId, &EidPrefix, MappingRecord) -> bool>(&mut self, mut f: F) -> usize {
        let mut removed = 0;
        for (vn, tables) in self.vns.iter_mut() {
            let before = tables.len();
            tables.retain(|eid, rec| f(*vn, &EidPrefix::host(eid), rec));
            removed += before - tables.len();
        }
        self.total -= removed;
        removed
    }

    /// Drops expired registrations, returning how many were purged — a
    /// single pass per VN via [`MappingDb::retain`].
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.retain(|_, _, r| !r.expired(now))
    }

    /// Memory diagnostics: `capacity_bytes` is exactly what the tables
    /// hold allocated, 16 bytes a narrow slot plus 32 a wide one.
    pub fn mem_stats(&self) -> MemStats {
        MemStats {
            capacity_bytes: self.vns.values().map(Vn::bytes).sum(),
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
        assert_eq!(out, RegisterOutcome::New { replaced: None });
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
        assert_eq!(out, RegisterOutcome::New { replaced: None });
    }

    #[test]
    fn register_over_an_unswept_expired_row_names_its_rloc() {
        let mut db = MappingDb::new();
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
        db.register(vn(1), eid(1), r1, TTL, SimTime::ZERO);
        let later = SimTime::ZERO + TTL + SimDuration::from_secs(1);
        let out = db.register(vn(1), eid(1), r2, TTL, later);
        assert_eq!(out, RegisterOutcome::New { replaced: Some(r1) });
        assert_eq!(db.len(), 1);
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
        let sized = Table::<Narrow>::with_slots((KEYS * 8 / 7 + 1).next_power_of_two());
        let keys: Vec<Eid> = (0u32..)
            .filter_map(NonZeroU32::new)
            .filter(|&k| sized.home(k) == sized.mask())
            .map(Narrow::eid)
            .take(KEYS)
            .collect();
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));

        let mut db = MappingDb::new();
        for e in &keys {
            assert_eq!(
                db.register(vn(1), *e, r1, TTL, SimTime::ZERO),
                RegisterOutcome::New { replaced: None }
            );
        }
        assert_eq!((db.len(), db.recount()), (KEYS, KEYS));
        assert_eq!(db.mem_stats().capacity_bytes, sized.slots.len() * 16);
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

    /// 0.0.0.0 is the one IPv4 address the narrow slot's niche takes, so
    /// it lives in the wide table through every door — and a snapshot
    /// still yields it first among the IPv4 EIDs.
    #[test]
    fn unspecified_ipv4_lives_in_the_wide_table() {
        let zero = Eid::V4(Ipv4Addr::UNSPECIFIED);
        let v6 = Eid::V6("2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap());
        let mac = Eid::Mac(sda_types::MacAddr::from_seed(1));
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
        let widths = |db: &MappingDb| {
            let tables = &db.vns[&vn(1)];
            (tables.narrow.len, tables.wide.as_ref().map_or(0, |w| w.len))
        };
        let mut db = MappingDb::new();
        for n in [2, 1, 255] {
            db.register(vn(1), eid(n), r1, TTL, SimTime::ZERO);
        }
        assert_eq!(widths(&db), (3, 0));
        assert_eq!(db.mem_stats().capacity_bytes, MIN_SLOTS * 16);

        assert_eq!(
            db.register(vn(1), zero, r1, TTL, SimTime::ZERO),
            RegisterOutcome::New { replaced: None }
        );
        assert_eq!(widths(&db), (3, 1));
        assert_eq!(db.mem_stats().capacity_bytes, MIN_SLOTS * (16 + 32));
        let later = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(
            db.register(vn(1), zero, r1, TTL, later),
            RegisterOutcome::Refreshed
        );
        assert_eq!(db.get(vn(1), zero).unwrap().expires_at, later + TTL);
        assert_eq!(
            db.register(vn(1), zero, r2, TTL, later),
            RegisterOutcome::Moved { previous: r1 }
        );
        db.register(vn(1), mac, r1, TTL, SimTime::ZERO);
        db.register(vn(1), v6, r1, TTL, SimTime::ZERO);
        assert_eq!(widths(&db), (3, 3));
        let order: Vec<Eid> = db
            .iter_vn(vn(1))
            .map(|(p, _)| p.as_host().unwrap())
            .collect();
        assert_eq!(order, [zero, eid(1), eid(2), eid(255), v6, mac]);
        assert_eq!(db.lookup(vn(1), zero, later).unwrap().1.rloc, r2);

        assert_eq!(db.withdraw(vn(1), zero).unwrap().rloc, r2);
        assert_eq!(widths(&db), (3, 2));
        assert!(db.get(vn(1), zero).is_none());
        assert!(db.withdraw(vn(1), zero).is_none());

        // Re-registered later than the rest, it outlives them by 10 s.
        db.register(vn(1), zero, r1, TTL, later);
        let after_rest = SimTime::ZERO + TTL;
        assert_eq!(db.live_count(vn(1), after_rest), 1);
        assert_eq!(db.purge_expired(after_rest), 5);
        assert_eq!(widths(&db), (0, 1));
        let gone = later + TTL;
        assert!(db.lookup(vn(1), zero, gone).is_none());
        assert_eq!(db.get(vn(1), zero).unwrap().rloc, r1, "kept until swept");
        assert_eq!(db.purge_expired(gone), 1);
        assert_eq!(widths(&db), (0, 0));
        assert_eq!((db.len(), db.recount()), (0, 0));
    }
}
