//! The `(VN, EID) → RLOC` mapping database.
//!
//! Table 2, row "Endpoint Location": key = VN + overlay address, value =
//! underlay address, updated by edge routers. Registrations carry a TTL;
//! expired entries answer as if absent (the registering edge refreshes
//! them periodically in a live deployment).

use std::collections::BTreeMap;

use sda_simnet::{SimDuration, SimTime};
use sda_trie::EidTrie;
use sda_types::{Eid, EidPrefix, Rloc, VnId};

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
    vns: BTreeMap<VnId, EidTrie<MappingRecord>>,
    version_counter: u64,
    /// Maintained entry count, so [`MappingDb::len`] is O(1) instead of
    /// a sum over every per-VN trie (the map-server answers `len` on
    /// every Fig. 7 sample). Invariant: always equals
    /// [`MappingDb::recount`] (checked by the property tests).
    total: usize,
}

impl MappingDb {
    /// Empty database.
    pub fn new() -> Self {
        MappingDb::default()
    }

    /// Registers (or refreshes) `eid → rloc` in `vn`.
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
        let trie = self.vns.entry(vn).or_default();
        let prefix = EidPrefix::host(eid);
        let prev = trie.insert(prefix, record);
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
        let removed = self.vns.get_mut(&vn)?.remove(&EidPrefix::host(eid));
        if removed.is_some() {
            self.total -= 1;
        }
        removed
    }

    /// Longest-prefix lookup of `eid` in `vn`; expired records answer
    /// `None` (the §4.2 "route resolution with a negative result").
    pub fn lookup(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<(EidPrefix, MappingRecord)> {
        let (prefix, rec) = self.vns.get(&vn)?.lookup(&eid)?;
        if rec.expired(now) {
            return None;
        }
        Some((prefix, *rec))
    }

    /// Live registrations in `vn` at `now`.
    pub fn live_count(&self, vn: VnId, now: SimTime) -> usize {
        self.vns
            .get(&vn)
            .map(|t| t.iter().filter(|(_, r)| !r.expired(now)).count())
            .unwrap_or(0)
    }

    /// Total registrations (live or expired) across VNs. O(1): the
    /// count is maintained across register/withdraw/retain, not
    /// recomputed.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Recomputes the entry count from the tries (O(entries)). Exists so
    /// tests can assert the maintained counter never drifts; production
    /// callers should use [`MappingDb::len`].
    pub fn recount(&self) -> usize {
        self.vns.values().map(EidTrie::len).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all `(vn, prefix, record)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (VnId, EidPrefix, &MappingRecord)> {
        self.vns
            .iter()
            .flat_map(|(vn, trie)| trie.iter().map(move |(p, r)| (*vn, p, r)))
    }

    /// Iterates `(prefix, record)` entries of one VN only — O(that VN),
    /// not O(database). Pub/sub snapshots walk exactly the subscribed VN
    /// through this.
    pub fn iter_vn(&self, vn: VnId) -> impl Iterator<Item = (EidPrefix, &MappingRecord)> {
        self.vns.get(&vn).into_iter().flat_map(EidTrie::iter)
    }

    /// Keeps only registrations for which `f` returns true, in one
    /// traversal per VN. Returns how many were removed.
    pub fn retain<F: FnMut(VnId, &EidPrefix, &mut MappingRecord) -> bool>(
        &mut self,
        mut f: F,
    ) -> usize {
        let mut removed = 0;
        for (vn, trie) in self.vns.iter_mut() {
            removed += trie.retain(|p, r| f(*vn, p, r));
        }
        self.total -= removed;
        removed
    }

    /// Drops expired registrations, returning how many were purged — a
    /// single traversal per VN via [`EidTrie::retain`].
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.retain(|_, _, r| !r.expired(now))
    }

    /// Re-lays every per-VN trie arena in DFS preorder (see
    /// [`sda_trie::PatriciaTrie::compact`]). Call once a registration
    /// storm (network bring-up) settles so Fig. 7 lookups walk
    /// nearly-sequential memory.
    pub fn compact(&mut self) {
        sda_trie::compact_each(self.vns.values_mut());
    }

    /// Aggregated trie-arena diagnostics across all VNs.
    pub fn mem_stats(&self) -> sda_trie::MemStats {
        sda_trie::merged_mem_stats(self.vns.values())
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
    fn refresh_and_move_registers_keep_stride_tables() {
        let mut db = MappingDb::new();
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
        for n in 0..=255 {
            db.register(vn(1), eid(n), r1, TTL, SimTime::ZERO);
        }
        db.compact();
        let layout = db.mem_stats();
        assert!(layout.stride_tables >= 1, "the dense /24 promotes");
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
