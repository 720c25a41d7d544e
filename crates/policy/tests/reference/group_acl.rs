//! The per-pair group ACL — one edge's installed rules as a
//! `BTreeMap<(VnId, GroupId, GroupId), Action>` probed once per packet,
//! the table `sda_policy::enforce` shipped before the compiled bitset
//! rows: moved here verbatim apart from `use` paths.
//!
//! What it is: the reference for [`sda_policy::CompiledAcl`] — the
//! §3.3.2 exact match on `(source GroupId, destination GroupId)` within
//! a VN in its most literal form, with the allow/drop counters behind
//! Fig. 12.
//!
//! What it is not: consulted by any node or by the forwarding engine.
//! `sda_policy::enforce` keeps only the enforcement-point choice; no
//! production crate names this type (CI greps for it).
//!
//! What holds it: `crates/policy/tests/prop_compiled.rs` drives the
//! compiled table and this one through the same generated installs and
//! compares verdicts and counters over the whole group grid — including
//! a copy of this table seeded from `CompiledAcl::rules()`. It is also
//! the ACL the structured pipeline model
//! (`core/tests/reference/pipeline.rs`) decides with, and the
//! `verdict_batch32/baseline` row of `benches/policy_plane.rs`. Do not
//! "fix" anything in this file — its behaviour is the specification.

use std::collections::BTreeMap;

use sda_policy::{Action, ConnectivityMatrix, RuleSubset};
use sda_types::{GroupId, VnId};

/// One edge's installed group rules and enforcement counters.
///
/// The egress pipeline's second stage: an exact-match lookup on
/// `(source GroupId, destination GroupId)` within the packet's VN
/// (§3.3.2). The table holds the SXP-distributed subset of the
/// connectivity matrix plus hit/drop counters — the raw data behind
/// Fig. 12's "permille hits on drop rules over all hits".
#[derive(Default, Debug, Clone)]
pub struct GroupAcl {
    rules: BTreeMap<(VnId, GroupId, GroupId), Action>,
    /// Matrix version the rules came from (staleness detection).
    version: u64,
    /// Packets permitted.
    allowed: u64,
    /// Packets dropped by an explicit deny or the default action.
    dropped: u64,
}

impl GroupAcl {
    /// Empty ACL (default-deny until rules arrive).
    pub fn new() -> Self {
        GroupAcl::default()
    }

    /// Installs (merges) a rule subset from the policy server.
    pub fn install(&mut self, subset: &RuleSubset) {
        for (vn, rule) in &subset.rules {
            self.rules.insert((*vn, rule.src, rule.dst), rule.action);
        }
        self.version = self.version.max(subset.version);
    }

    /// Replaces all rules with `subset` (full refresh).
    pub fn replace(&mut self, subset: &RuleSubset) {
        self.rules.clear();
        self.install(subset);
    }

    /// Installs every explicit cell of `matrix` — the "switch owns the
    /// whole policy matrix" configuration the dataplane engine uses when
    /// no SXP subsetting is in play.
    pub fn install_matrix(&mut self, matrix: &ConnectivityMatrix) {
        for vn in matrix.vns() {
            for rule in matrix.rules_of(vn) {
                self.rules.insert((vn, rule.src, rule.dst), rule.action);
            }
        }
        self.version = self.version.max(matrix.version());
    }

    /// The verdict for `src → dst` in `vn`, updating counters.
    /// Unmatched pairs use `default` (deny in SDA deployments).
    pub fn enforce(&mut self, vn: VnId, src: GroupId, dst: GroupId, default: Action) -> Action {
        let action = self.rules.get(&(vn, src, dst)).copied().unwrap_or(default);
        match action {
            Action::Allow => self.allowed += 1,
            Action::Deny => self.dropped += 1,
        }
        action
    }

    /// Non-counting check (tests, planning).
    pub fn check(&self, vn: VnId, src: GroupId, dst: GroupId, default: Action) -> Action {
        self.rules.get(&(vn, src, dst)).copied().unwrap_or(default)
    }

    /// Installed rule count — the §5.3 "data plane state" metric.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// `(allowed, dropped)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.allowed, self.dropped)
    }

    /// Drops dropped-per-mille over all enforcement decisions —
    /// Fig. 12's y-axis. `None` before any traffic.
    pub fn drop_permille(&self) -> Option<f64> {
        let total = self.allowed + self.dropped;
        if total == 0 {
            return None;
        }
        Some(self.dropped as f64 * 1000.0 / total as f64)
    }

    /// Installed matrix version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Clears rules and counters (edge reboot).
    pub fn clear(&mut self) {
        self.rules.clear();
        self.version = 0;
        self.allowed = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_policy::GroupRule;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn subset(version: u64, rules: &[(u32, u16, u16, Action)]) -> RuleSubset {
        RuleSubset {
            version,
            rules: rules
                .iter()
                .map(|(v, s, d, a)| {
                    (
                        vn(*v),
                        GroupRule {
                            src: GroupId(*s),
                            dst: GroupId(*d),
                            action: *a,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn enforce_counts_and_respects_rules() {
        let mut acl = GroupAcl::new();
        acl.install(&subset(
            1,
            &[(1, 1, 2, Action::Allow), (1, 3, 2, Action::Deny)],
        ));
        assert_eq!(
            acl.enforce(vn(1), GroupId(1), GroupId(2), Action::Deny),
            Action::Allow
        );
        assert_eq!(
            acl.enforce(vn(1), GroupId(3), GroupId(2), Action::Deny),
            Action::Deny
        );
        // Unmatched → default.
        assert_eq!(
            acl.enforce(vn(1), GroupId(9), GroupId(2), Action::Deny),
            Action::Deny
        );
        assert_eq!(acl.counters(), (1, 2));
        let pm = acl.drop_permille().unwrap();
        assert!((pm - 666.66).abs() < 1.0);
    }

    #[test]
    fn default_allow_matrix_supported() {
        let mut acl = GroupAcl::new();
        assert_eq!(
            acl.enforce(vn(1), GroupId(1), GroupId(1), Action::Allow),
            Action::Allow
        );
    }

    #[test]
    fn install_merges_replace_replaces() {
        let mut acl = GroupAcl::new();
        acl.install(&subset(1, &[(1, 1, 2, Action::Allow)]));
        acl.install(&subset(2, &[(1, 3, 2, Action::Deny)]));
        assert_eq!(acl.len(), 2);
        assert_eq!(acl.version(), 2);
        acl.replace(&subset(3, &[(1, 5, 5, Action::Allow)]));
        assert_eq!(acl.len(), 1);
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(2), Action::Deny),
            Action::Deny
        );
    }

    #[test]
    fn install_matrix_copies_every_cell() {
        let mut m = ConnectivityMatrix::new();
        m.allow_bidir(vn(1), GroupId(1), GroupId(2));
        m.set_rule(vn(2), GroupId(3), GroupId(4), Action::Deny);
        let mut acl = GroupAcl::new();
        acl.install_matrix(&m);
        assert_eq!(acl.len(), 3);
        assert_eq!(
            acl.check(vn(1), GroupId(2), GroupId(1), Action::Deny),
            Action::Allow
        );
        assert_eq!(
            acl.check(vn(2), GroupId(3), GroupId(4), Action::Allow),
            Action::Deny
        );
        assert_eq!(acl.version(), m.version());
    }

    #[test]
    fn drop_permille_none_without_traffic() {
        let acl = GroupAcl::new();
        assert!(acl.drop_permille().is_none());
    }

    #[test]
    fn clear_resets_all() {
        let mut acl = GroupAcl::new();
        acl.install(&subset(5, &[(1, 1, 2, Action::Allow)]));
        acl.enforce(vn(1), GroupId(1), GroupId(2), Action::Deny);
        acl.clear();
        assert!(acl.is_empty());
        assert_eq!(acl.counters(), (0, 0));
        assert_eq!(acl.version(), 0);
    }
}
