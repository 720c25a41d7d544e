//! Post-chaos convergence checking.
//!
//! A chaos run (crashes, partitions, loss — see [`sda_simnet::fault`])
//! is only meaningful with a fixed point to measure against. This
//! module compares the fabric's distributed state against the scenario's
//! *expected placement* — where every endpoint should be attached once
//! the faults cease — at three levels:
//!
//! 1. **Registration convergence** — the routing server's mapping
//!    database holds exactly the expected `(vn, eid) → rloc` set.
//! 2. **Pub/sub convergence** — every border's synced overlay slice
//!    equals the server database (the subscriber view reached the
//!    publisher's fixed point).
//! 3. **No stuck control state** — zero in-flight resolutions,
//!    unacked registers or unacked subscribes anywhere. The
//!    retry/timeout discipline guarantees pending entries either
//!    complete or get evicted; a nonzero count after quiescence is the
//!    classic leak this machinery exists to prevent.
//!
//! Edge map-caches are *reactive*: the paper's model allows them to
//! hold stale entries that heal on use (SMR, Fig. 6) or idle out. The
//! checker therefore counts an edge entry as a mismatch only when it
//! contradicts the expected placement — after a quiet period longer
//! than the scenario's idle timeout, unused stale entries must have
//! been evicted and the count must reach zero.

use std::collections::BTreeMap;

use sda_types::{Eid, Rloc, VnId};

use crate::controller::{BorderHandle, EdgeHandle, Fabric};

/// Where every endpoint should be once faults cease:
/// `(vn, eid) → serving edge's rloc`.
pub type ExpectedPlacement = BTreeMap<(VnId, Eid), Rloc>;

/// What [`check_convergence`] found. All-zero means the fabric reached
/// the expected fixed point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Map-Requests still in flight across all edges.
    pub stuck_resolving: usize,
    /// Unacked Map-Registers across all edges.
    pub stuck_registers: usize,
    /// Unacked Subscribes across all borders.
    pub stuck_subscribes: usize,
    /// Expected mappings absent from the server database.
    pub db_missing: usize,
    /// Expected mappings registered at the wrong edge.
    pub db_wrong_rloc: usize,
    /// Server-database mappings no endpoint accounts for.
    pub db_extra: usize,
    /// Entries differing between a border's synced slice and the
    /// server database (missing + extra + wrong, over all borders).
    pub border_diffs: usize,
    /// Edge map-cache entries contradicting the expected placement.
    pub edge_cache_mismatches: usize,
}

impl ConvergenceReport {
    /// True when every layer reached the expected fixed point.
    pub fn converged(&self) -> bool {
        self.stuck_resolving == 0
            && self.stuck_registers == 0
            && self.stuck_subscribes == 0
            && self.db_missing == 0
            && self.db_wrong_rloc == 0
            && self.db_extra == 0
            && self.border_diffs == 0
            && self.edge_cache_mismatches == 0
    }
}

/// Compares the fabric's state against `expected`. Run it only after
/// the fabric has quiesced (faults healed, control plane drained, one
/// idle-timeout eviction sweep behind us) — mid-churn everything is
/// legitimately divergent.
pub fn check_convergence(fabric: &Fabric, expected: &ExpectedPlacement) -> ConvergenceReport {
    let mut report = ConvergenceReport::default();

    // Ground truth is the server database, asked by key — what is
    // stored, live or expired, not what would resolve. Campaigns call
    // this every simulated second, so nothing here copies or sorts;
    // keys are unique, so the counts no probe sees follow from lengths.
    let server = fabric.routing_server().server();
    let db_len = server.db_len();
    let mut found = 0;
    for (&(vn, eid), want) in expected {
        if let Some(got) = server.registration(vn, eid) {
            found += 1;
            if got.rloc != *want {
                report.db_wrong_rloc += 1;
            }
        }
    }
    report.db_missing = expected.len() - found;
    report.db_extra = db_len - found;

    // Borders: synced slice vs database, both directions — a database
    // row the border lacks or maps elsewhere, plus rows only it has.
    for b in 0..fabric.border_count() {
        let border = fabric.border(BorderHandle(b));
        report.stuck_subscribes += border.pending_subscribe_len();
        let (mut same, mut extra) = (0, 0);
        for (vn, prefix, rloc, _) in border.switch().map_cache().iter() {
            let Some(eid) = prefix.as_host() else {
                continue;
            };
            match server.registration(vn, eid) {
                Some(row) if row.rloc == rloc => same += 1,
                Some(_) => {}
                None => extra += 1,
            }
        }
        report.border_diffs += db_len - same + extra;
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
