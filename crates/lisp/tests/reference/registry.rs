//! The routing server's registry as it stood while it was a Patricia
//! trie per VN (the structure §4.1 of the paper cites for Fig. 7): the
//! body of `sda_lisp::MappingDb` before it became per-VN exact-match
//! tables, moved here verbatim minus `compact`/`mem_stats` (arena
//! diagnostics the differential has no use for). It shares the crate's
//! value types ([`MappingRecord`], [`RegisterOutcome`]) and nothing else;
//! its record literal follows `MappingRecord`'s fields (a deadline, and
//! no version counter, since the table became open-addressed).
//! `prop_registry.rs` holds the production registry to it op for op. Do
//! not "fix" anything in this file — its behaviour is the specification.

use std::collections::BTreeMap;

use sda_lisp::{MappingRecord, RegisterOutcome};
use sda_simnet::{SimDuration, SimTime};
use sda_trie::EidTrie;
use sda_types::{Eid, EidPrefix, Rloc, VnId};

/// The per-VN mapping database, one [`EidTrie`] per VN.
#[derive(Default)]
pub struct MappingDb {
    vns: BTreeMap<VnId, EidTrie<MappingRecord>>,
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
        let record = MappingRecord {
            rloc,
            expires_at: SimTime::from_nanos(now.as_nanos().saturating_add(ttl.as_nanos())),
        };
        let trie = self.vns.entry(vn).or_default();
        let prefix = EidPrefix::host(eid);
        let prev = trie.insert(prefix, record);
        if prev.is_none() {
            self.total += 1;
        }
        match prev {
            None => RegisterOutcome::New { replaced: None },
            Some(old) if old.expired(now) => RegisterOutcome::New {
                replaced: Some(old.rloc),
            },
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
}
