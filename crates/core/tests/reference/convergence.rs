//! The map-building convergence checker, frozen as it stood before
//! `sda_core::check_convergence` started comparing in place: one
//! `BTreeMap` of the server database and one per border, rebuilt on
//! every call. `convergence_reference.rs` holds the in-place version to
//! this one field for field.

use std::collections::BTreeMap;

use sda_core::controller::{BorderHandle, EdgeHandle, Fabric};
use sda_core::{ConvergenceReport, ExpectedPlacement};
use sda_types::{Eid, Rloc, VnId};

/// Compares the fabric's state against `expected`. Run it only after
/// the fabric has quiesced (faults healed, control plane drained, one
/// idle-timeout eviction sweep behind us) — mid-churn everything is
/// legitimately divergent.
pub fn check_convergence(fabric: &Fabric, expected: &ExpectedPlacement) -> ConvergenceReport {
    let mut report = ConvergenceReport::default();

    // Ground truth first: the server database.
    let mut db: BTreeMap<(VnId, Eid), Rloc> = BTreeMap::new();
    for (vn, prefix, record) in fabric.routing_server().server().iter_db() {
        if let Some(eid) = prefix.as_host() {
            db.insert((vn, eid), record.rloc);
        }
    }
    for (key, want) in expected {
        match db.get(key) {
            None => report.db_missing += 1,
            Some(got) if got != want => report.db_wrong_rloc += 1,
            Some(_) => {}
        }
    }
    report.db_extra = db.keys().filter(|k| !expected.contains_key(*k)).count();

    // Borders: synced slice vs database, both directions.
    for b in 0..fabric.border_count() {
        let border = fabric.border(BorderHandle(b));
        report.stuck_subscribes += border.pending_subscribe_len();
        let mut view: BTreeMap<(VnId, Eid), Rloc> = BTreeMap::new();
        for (vn, prefix, rloc, _) in border.switch().map_cache().iter() {
            if let Some(eid) = prefix.as_host() {
                view.insert((vn, eid), rloc);
            }
        }
        for (key, want) in &db {
            match view.get(key) {
                Some(got) if got == want => {}
                _ => report.border_diffs += 1,
            }
        }
        report.border_diffs += view.keys().filter(|k| !db.contains_key(*k)).count();
    }

    // Edges: no stuck control state, no cache entry contradicting the
    // expected placement.
    for e in 0..fabric.edge_count() {
        let edge = fabric.edge(EdgeHandle(e));
        report.stuck_resolving += edge.resolving_len();
        report.stuck_registers += edge.pending_register_len();
        for (vn, prefix, rloc, _) in edge.switch().map_cache().iter() {
            let Some(eid) = prefix.as_host() else {
                continue;
            };
            if let Some(want) = expected.get(&(vn, eid)) {
                if rloc != *want {
                    report.edge_cache_mismatches += 1;
                }
            }
        }
    }

    report
}
