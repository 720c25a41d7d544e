//! The routing server's registry as a specification: one ordered map
//! from `(vn, eid)` to its record. It says what the Patricia trie per VN
//! it was frozen from (the structure §4.1 of the paper cites for Fig. 7)
//! said — the registry only ever stores host routes, so every lookup is
//! an exact match and a VN's rows come out in ascending [`Eid`] order. It
//! shares the crate's value types ([`MappingRecord`],
//! [`RegisterOutcome`]) and nothing else. `prop_registry.rs` holds the
//! production registry (per-VN exact-match tables) to it op for op. Do
//! not "fix" anything in this file — its behaviour is the specification.

use std::collections::BTreeMap;

use sda_lisp::{MappingRecord, RegisterOutcome};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, Rloc, VnId};

/// The mapping database: every registration, live or expired, by key.
#[derive(Default)]
pub struct MappingDb {
    rows: BTreeMap<(VnId, Eid), MappingRecord>,
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
        match self.rows.insert((vn, eid), record) {
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
        self.rows.remove(&(vn, eid))
    }

    /// The registration of `eid` in `vn`; expired records answer `None`
    /// (the §4.2 "route resolution with a negative result").
    pub fn lookup(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<(EidPrefix, MappingRecord)> {
        let rec = self.rows.get(&(vn, eid)).filter(|r| !r.expired(now))?;
        Some((EidPrefix::host(eid), *rec))
    }

    /// Live registrations in `vn` at `now`.
    pub fn live_count(&self, vn: VnId, now: SimTime) -> usize {
        self.iter_vn(vn).filter(|(_, r)| !r.expired(now)).count()
    }

    /// Total registrations (live or expired) across VNs.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Counts the registrations one by one — what the production
    /// registry's maintained counter must equal.
    pub fn recount(&self) -> usize {
        self.iter().count()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates all `(vn, prefix, record)` entries, by VN, then by EID.
    pub fn iter(&self) -> impl Iterator<Item = (VnId, EidPrefix, &MappingRecord)> {
        (self.rows.iter()).map(|(&(vn, eid), r)| (vn, EidPrefix::host(eid), r))
    }

    /// Iterates `(prefix, record)` entries of one VN, in ascending EID
    /// order — the order a pub/sub snapshot of the VN is sent in.
    pub fn iter_vn(&self, vn: VnId) -> impl Iterator<Item = (EidPrefix, &MappingRecord)> {
        self.iter()
            .filter(move |&(of, _, _)| of == vn)
            .map(|(_, p, r)| (p, r))
    }

    /// Keeps only registrations for which `f` returns true, visiting
    /// them in [`MappingDb::iter`] order. Returns how many were removed.
    pub fn retain<F: FnMut(VnId, &EidPrefix, &mut MappingRecord) -> bool>(
        &mut self,
        mut f: F,
    ) -> usize {
        let before = self.rows.len();
        (self.rows).retain(|&(vn, eid), r| f(vn, &EidPrefix::host(eid), r));
        before - self.rows.len()
    }

    /// Drops expired registrations, returning how many were purged.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.retain(|_, _, r| !r.expired(now))
    }
}
