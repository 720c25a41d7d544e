//! The per-VN group connectivity matrix.
//!
//! Operators express intent as `(source group, destination group) →
//! allow/deny` inside a VN (Fig. 1's "Per-VN connectivity matrix").
//! Cross-VN traffic is impossible by construction — the matrix cannot
//! even express it — which is the paper's "macro" isolation.

use std::collections::BTreeMap;

use sda_types::{GroupId, VnId};

/// The verdict of a rule or lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Permit the traffic.
    Allow,
    /// Drop the traffic.
    Deny,
}

/// One connectivity-matrix cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupRule {
    /// Source group of the packet (carried in VXLAN-GPO).
    pub src: GroupId,
    /// Destination group (looked up in the egress VRF).
    pub dst: GroupId,
    /// Verdict for this pair.
    pub action: Action,
}

/// The connectivity matrices of every VN.
#[derive(Clone, Debug)]
pub struct ConnectivityMatrix {
    /// Explicit cells, per VN.
    rules: BTreeMap<VnId, BTreeMap<(GroupId, GroupId), Action>>,
    /// Verdict when no cell matches. Enterprise default: deny.
    default_action: Action,
    /// Bumped on every mutation; lets caches detect staleness.
    version: u64,
    /// Total explicit cells across VNs, maintained incrementally so
    /// [`ConnectivityMatrix::len`] is O(1) (the MapCache/MappingDb
    /// counter discipline). [`ConnectivityMatrix::recount`] checks the
    /// invariant.
    cells: usize,
}

impl Default for ConnectivityMatrix {
    fn default() -> Self {
        ConnectivityMatrix {
            rules: BTreeMap::new(),
            default_action: Action::Deny,
            version: 0,
            cells: 0,
        }
    }
}

impl ConnectivityMatrix {
    /// An empty deny-by-default matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty matrix with an explicit default action.
    pub fn with_default(default_action: Action) -> Self {
        ConnectivityMatrix {
            default_action,
            ..Self::default()
        }
    }

    /// The default action for unmatched pairs.
    pub fn default_action(&self) -> Action {
        self.default_action
    }

    /// Sets the cell `(src → dst)` in `vn`. Overwrites silently (the
    /// operator UI is declarative).
    pub fn set_rule(&mut self, vn: VnId, src: GroupId, dst: GroupId, action: Action) {
        if self
            .rules
            .entry(vn)
            .or_default()
            .insert((src, dst), action)
            .is_none()
        {
            self.cells += 1;
        }
        self.version += 1;
    }

    /// Convenience: allow both directions between `a` and `b` in `vn`.
    pub fn allow_bidir(&mut self, vn: VnId, a: GroupId, b: GroupId) {
        self.set_rule(vn, a, b, Action::Allow);
        self.set_rule(vn, b, a, Action::Allow);
    }

    /// The verdict for traffic `src → dst` within `vn`.
    pub fn check(&self, vn: VnId, src: GroupId, dst: GroupId) -> Action {
        self.rules
            .get(&vn)
            .and_then(|m| m.get(&(src, dst)))
            .copied()
            .unwrap_or(self.default_action)
    }

    /// All explicit rules of `vn`, ascending by (src, dst).
    pub fn rules_of(&self, vn: VnId) -> impl Iterator<Item = GroupRule> + '_ {
        self.rules.get(&vn).into_iter().flat_map(|m| {
            m.iter().map(|((s, d), a)| GroupRule {
                src: *s,
                dst: *d,
                action: *a,
            })
        })
    }

    /// Explicit rules of `vn` whose destination is in `dst_groups` —
    /// the egress-enforcement subset an edge router downloads (§3.3.1:
    /// "it downloads the rules where the endpoint's group is the
    /// destination"). `dst_groups` must be sorted ascending: the filter
    /// binary-searches it per rule, so a large edge's subset costs
    /// O(rules · log(local groups)) instead of the quadratic scan an
    /// SXP storm used to pay.
    pub fn rules_toward<'a>(
        &'a self,
        vn: VnId,
        dst_groups: &'a [GroupId],
    ) -> impl Iterator<Item = GroupRule> + 'a {
        debug_assert!(
            dst_groups.windows(2).all(|w| w[0] <= w[1]),
            "rules_toward requires a sorted dst_groups slice"
        );
        self.rules_of(vn)
            .filter(move |r| dst_groups.binary_search(&r.dst).is_ok())
    }

    /// Total number of explicit cells across VNs — O(1), maintained by
    /// `set_rule`.
    pub fn len(&self) -> usize {
        self.cells
    }

    /// Recomputes the cell count from the maps and checks it against
    /// the incremental counter (debug/diagnostic invariant — the same
    /// discipline as the trie tables' `recount`).
    pub fn recount(&self) -> usize {
        let counted: usize = self.rules.values().map(BTreeMap::len).sum();
        debug_assert_eq!(counted, self.cells, "cell counter diverged from maps");
        counted
    }

    /// True when no explicit cells exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic mutation counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// VNs with at least one explicit rule, ascending.
    pub fn vns(&self) -> impl Iterator<Item = VnId> + '_ {
        self.rules.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    #[test]
    fn default_deny() {
        let m = ConnectivityMatrix::new();
        assert_eq!(m.check(vn(1), GroupId(1), GroupId(2)), Action::Deny);
        assert_eq!(m.default_action(), Action::Deny);
    }

    #[test]
    fn explicit_rule_overrides_default() {
        let mut m = ConnectivityMatrix::new();
        m.set_rule(vn(1), GroupId(1), GroupId(2), Action::Allow);
        assert_eq!(m.check(vn(1), GroupId(1), GroupId(2)), Action::Allow);
        // Directionality matters.
        assert_eq!(m.check(vn(1), GroupId(2), GroupId(1)), Action::Deny);
        // Other VNs unaffected: macro isolation.
        assert_eq!(m.check(vn(2), GroupId(1), GroupId(2)), Action::Deny);
    }

    #[test]
    fn allow_bidir_sets_both_cells() {
        let mut m = ConnectivityMatrix::new();
        m.allow_bidir(vn(1), GroupId(1), GroupId(2));
        assert_eq!(m.check(vn(1), GroupId(1), GroupId(2)), Action::Allow);
        assert_eq!(m.check(vn(1), GroupId(2), GroupId(1)), Action::Allow);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut m = ConnectivityMatrix::new();
        let v0 = m.version();
        m.check(vn(1), GroupId(1), GroupId(1));
        assert_eq!(m.version(), v0);
        m.set_rule(vn(1), GroupId(1), GroupId(1), Action::Allow);
        assert_eq!(m.version(), v0 + 1);
    }

    #[test]
    fn rules_toward_filters_by_destination() {
        let mut m = ConnectivityMatrix::new();
        m.set_rule(vn(1), GroupId(1), GroupId(10), Action::Allow);
        m.set_rule(vn(1), GroupId(2), GroupId(10), Action::Deny);
        m.set_rule(vn(1), GroupId(1), GroupId(20), Action::Allow);
        let local = [GroupId(10)];
        let subset: Vec<GroupRule> = m.rules_toward(vn(1), &local).collect();
        assert_eq!(subset.len(), 2);
        assert!(subset.iter().all(|r| r.dst == GroupId(10)));
    }

    #[test]
    fn len_counter_tracks_inserts_overwrites_and_clears() {
        let mut m = ConnectivityMatrix::new();
        assert_eq!(m.len(), 0);
        m.set_rule(vn(1), GroupId(1), GroupId(2), Action::Allow);
        m.set_rule(vn(2), GroupId(1), GroupId(2), Action::Allow);
        assert_eq!(m.len(), 2);
        // Overwriting an existing cell must not inflate the counter.
        m.set_rule(vn(1), GroupId(1), GroupId(2), Action::Deny);
        assert_eq!(m.len(), 2);
        assert_eq!(m.recount(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn rules_toward_binary_searches_sorted_locals() {
        let mut m = ConnectivityMatrix::new();
        for d in [5u16, 10, 20, 40] {
            m.set_rule(vn(1), GroupId(1), GroupId(d), Action::Allow);
        }
        let local = [GroupId(5), GroupId(20), GroupId(40)];
        let subset: Vec<GroupRule> = m.rules_toward(vn(1), &local).collect();
        assert_eq!(subset.len(), 3);
        assert!(subset.iter().all(|r| local.binary_search(&r.dst).is_ok()));
    }

    #[test]
    fn vns_lists_only_configured() {
        let mut m = ConnectivityMatrix::new();
        m.set_rule(vn(3), GroupId(1), GroupId(1), Action::Allow);
        m.set_rule(vn(1), GroupId(1), GroupId(1), Action::Allow);
        assert_eq!(m.vns().collect::<Vec<_>>(), vec![vn(1), vn(3)]);
    }
}
