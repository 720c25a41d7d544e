//! The `(VN, EID) → RLOC` mapping database.
//!
//! Table 2, row "Endpoint Location": key = VN + overlay address, value =
//! underlay address, updated by edge routers. Registrations carry a TTL;
//! expired entries answer as if absent (the registering edge refreshes
//! them periodically in a live deployment).
//!
//! **What it is.** One exact-match hash table per VN, keyed by the host
//! EID ([`EidKey`]: one folded word into [`KeyHasher`]). Exact match is
//! complete, not a shortcut: [`MappingDb::register`] takes an [`Eid`] (a
//! Map-Register carries one), so no covering prefix can enter and the
//! longest match for an EID is the entry stored under it or nothing. A
//! request or a register costs one probe whatever the table holds — the
//! property Fig. 7 shows (delay flat in the number of routes).
//!
//! **What it is not.**
//!
//! * Not the paper's Patricia trie (§4.1): that is the reference the
//!   tests hold this to (`tests/reference/registry.rs`) and the
//!   `fig7_trie_lookup` rows of the `fig7_routing_server` bench. Should
//!   prefix registrations ever get an API, `MapCache`'s hosts + covers
//!   split is the precedent.
//! * Not ordered, except where order reaches the wire:
//!   [`MappingDb::iter_vn`] (pub/sub snapshots) sorts its VN by EID, so
//!   a snapshot never depends on a table's capacity history;
//!   [`MappingDb::iter`] and [`MappingDb::retain`] visit in hash order —
//!   deterministic (no `RandomState`) but unspecified, so whoever
//!   publishes from them sorts first.
//! * Not hardened against crafted keys: the multiply hash has no secret.
//!   Keys are *inserted* only by Map-Registers from fabric edges for
//!   onboarded endpoints, rate-bounded by admission; requests only probe.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidKey, EidPrefix, KeyHasher, Rloc, VnId};

/// One registered mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MappingRecord {
    /// The edge router currently serving the EID.
    pub rloc: Rloc,
    /// Registration lifetime.
    pub ttl: SimDuration,
    /// When the registration (or last refresh) happened.
    pub registered_at: SimTime,
    /// Bumped on every register for this EID (move detection, pub/sub
    /// ordering).
    pub version: u64,
}

impl MappingRecord {
    /// Whether the registration has expired at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        now.saturating_since(self.registered_at) >= self.ttl
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

/// The per-VN mapping database.
#[derive(Default)]
pub struct MappingDb {
    /// A registration is stored in its VN's table and nowhere else. Per
    /// VN, so a snapshot walks, and a growth rehash moves, one VN's slice.
    vns: BTreeMap<VnId, HashMap<EidKey, MappingRecord, BuildHasherDefault<KeyHasher>>>,
    version_counter: u64,
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
    /// record is overwritten in place (nothing moves or allocates).
    pub fn register(
        &mut self,
        vn: VnId,
        eid: Eid,
        rloc: Rloc,
        ttl: SimDuration,
        now: SimTime,
    ) -> RegisterOutcome {
        self.version_counter += 1;
        let record = MappingRecord {
            rloc,
            ttl,
            registered_at: now,
            version: self.version_counter,
        };
        let prev = self.vns.entry(vn).or_default().insert(EidKey(eid), record);
        if prev.is_none() {
            self.total += 1;
        }
        match prev {
            None => RegisterOutcome::New,
            Some(old) if old.expired(now) => RegisterOutcome::New,
            Some(old) if old.rloc == rloc => RegisterOutcome::Refreshed,
            Some(old) => RegisterOutcome::Moved { previous: old.rloc },
        }
    }

    /// Removes the registration of `eid` in `vn`.
    pub fn withdraw(&mut self, vn: VnId, eid: Eid) -> Option<MappingRecord> {
        let removed = self.vns.get_mut(&vn)?.remove(&EidKey(eid));
        if removed.is_some() {
            self.total -= 1;
        }
        removed
    }

    /// The registration of `eid` in `vn`, one probe; expired records
    /// answer `None` (the §4.2 "route resolution with a negative result").
    pub fn lookup(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<(EidPrefix, MappingRecord)> {
        let rec = self.vns.get(&vn)?.get(&EidKey(eid))?;
        if rec.expired(now) {
            return None;
        }
        Some((EidPrefix::host(eid), *rec))
    }

    /// Live registrations in `vn` at `now`.
    pub fn live_count(&self, vn: VnId, now: SimTime) -> usize {
        self.vns
            .get(&vn)
            .map(|t| t.values().filter(|r| !r.expired(now)).count())
            .unwrap_or(0)
    }

    /// Total registrations (live or expired) across VNs. O(1): the
    /// count is maintained across register/withdraw/retain, not
    /// recomputed.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Recomputes the entry count from the tables (O(VNs)). Exists so
    /// tests can assert the maintained counter never drifts; production
    /// callers should use [`MappingDb::len`].
    pub fn recount(&self) -> usize {
        self.vns.values().map(HashMap::len).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all `(vn, prefix, record)` entries, each VN's in
    /// **unspecified** (hash) order: its consumers (convergence checkers,
    /// differential tests) build maps or sort; what goes on the wire
    /// comes from [`MappingDb::iter_vn`].
    pub fn iter(&self) -> impl Iterator<Item = (VnId, EidPrefix, &MappingRecord)> {
        self.vns.iter().flat_map(|(vn, table)| {
            table
                .iter()
                .map(move |(key, r)| (*vn, EidPrefix::host(key.0), r))
        })
    }

    /// The `(prefix, record)` entries of one VN only — O(that VN), not
    /// O(database) — in ascending [`Eid`] order (IPv4 < IPv6 < MAC, then
    /// by address): pub/sub snapshots walk the subscribed VN through
    /// this, and must not depend on how the table grew.
    pub fn iter_vn(&self, vn: VnId) -> impl Iterator<Item = (EidPrefix, &MappingRecord)> {
        let mut entries: Vec<_> = self.vns.get(&vn).into_iter().flatten().collect();
        entries.sort_unstable_by_key(|(key, _)| key.0);
        entries
            .into_iter()
            .map(|(key, r)| (EidPrefix::host(key.0), r))
    }

    /// Keeps only registrations for which `f` returns true, in one pass
    /// per VN (hash order within a VN — see [`MappingDb::iter`]).
    /// Returns how many were removed.
    pub fn retain<F: FnMut(VnId, &EidPrefix, &mut MappingRecord) -> bool>(
        &mut self,
        mut f: F,
    ) -> usize {
        let mut removed = 0;
        for (vn, table) in self.vns.iter_mut() {
            let before = table.len();
            table.retain(|key, r| f(*vn, &EidPrefix::host(key.0), r));
            removed += before - table.len();
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
    /// `capacity_bytes` is what the tables have reserved (a lower bound,
    /// [`sda_types::hash::reserved_bytes`]); a hash table has no nodes or
    /// stride tables to count, so those fields stay zero.
    pub fn mem_stats(&self) -> sda_trie::MemStats {
        sda_trie::MemStats {
            capacity_bytes: self.vns.values().map(sda_types::hash::reserved_bytes).sum(),
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
    fn versions_strictly_increase() {
        let mut db = MappingDb::new();
        db.register(vn(1), eid(1), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        let (_, a) = db.lookup(vn(1), eid(1), SimTime::ZERO).unwrap();
        db.register(vn(1), eid(2), Rloc::for_router_index(1), TTL, SimTime::ZERO);
        let (_, b) = db.lookup(vn(1), eid(2), SimTime::ZERO).unwrap();
        assert!(b.version > a.version);
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
            assert_eq!(rec.registered_at, later);
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
