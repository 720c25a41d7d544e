//! Policy-update strategies and their signaling cost (§5.4).
//!
//! When intent changes, the operator can either
//!
//! 1. **move endpoints between groups** — each moved endpoint
//!    re-authenticates at its edge and that edge refreshes its rule
//!    subset (signaling ∝ endpoints moved), or
//! 2. **rewrite the group ACLs** — every edge hosting an affected
//!    destination group must receive the new rows (signaling ∝ affected
//!    edges × rules changed).
//!
//! The paper's examples: acquisitions (progressively move the acquired
//! company's users through groups) and service insertion (retag traffic
//! along the path instead of installing per-hop policies). Which is
//! cheaper "depends on the distribution of endpoints within groups";
//! [`UpdatePlan::signaling_messages`] makes the trade-off computable and
//! the `figs ablation_policy_update` study sweeps it.

use std::collections::BTreeMap;

use sda_types::{GroupId, RouterId, VnId};

/// How an intent change is rolled out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateStrategy {
    /// Re-assign endpoints to different groups; ACLs stay put.
    MoveEndpoints,
    /// Update matrix cells; endpoints keep their groups.
    RewriteRules,
}

/// A deployment snapshot the planner reasons over: which edge hosts how
/// many endpoints of each `(vn, group)`.
#[derive(Clone, Debug, Default)]
pub struct Population {
    /// (edge, vn, group) → endpoint count.
    counts: BTreeMap<(RouterId, VnId, GroupId), u32>,
}

impl Population {
    /// Empty population.
    pub fn new() -> Self {
        Population::default()
    }

    /// Records `n` endpoints of `(vn, group)` on `edge`.
    pub fn add(&mut self, edge: RouterId, vn: VnId, group: GroupId, n: u32) {
        *self.counts.entry((edge, vn, group)).or_default() += n;
    }

    /// Endpoints of `(vn, group)` across all edges.
    pub fn group_size(&self, vn: VnId, group: GroupId) -> u32 {
        self.counts
            .iter()
            .filter(|((_, v, g), _)| *v == vn && *g == group)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Edges hosting at least one endpoint of `(vn, group)`.
    pub(crate) fn edges_hosting(&self, vn: VnId, group: GroupId) -> Vec<RouterId> {
        let mut edges: Vec<RouterId> = self
            .counts
            .iter()
            .filter(|((_, v, g), n)| *v == vn && *g == group && **n > 0)
            .map(|((e, _, _), _)| *e)
            .collect();
        edges.dedup();
        edges
    }

    /// Total endpoints recorded.
    #[cfg(test)]
    fn total(&self) -> u32 {
        self.counts.values().sum()
    }
}

/// One planned intent change, costable under either strategy.
#[derive(Clone, Debug)]
pub struct UpdatePlan {
    /// VN scope of the change.
    pub vn: VnId,
    /// Endpoints that would change group under [`UpdateStrategy::MoveEndpoints`]:
    /// `(from_group, to_group)`.
    pub moved_groups: (GroupId, GroupId),
    /// Matrix rows that would change under [`UpdateStrategy::RewriteRules`]:
    /// destination groups whose rows are touched, with the number of rules
    /// each.
    pub rewritten_rows: Vec<(GroupId, u32)>,
}

impl UpdatePlan {
    /// The §5.4 "acquisition" playbook: move everyone in `from` to `to`
    /// (equivalently expressible as rewriting every row involving `from`).
    pub fn acquisition(vn: VnId, from: GroupId, to: GroupId, rules_touching_from: u32) -> Self {
        UpdatePlan {
            vn,
            moved_groups: (from, to),
            rewritten_rows: vec![(from, rules_touching_from)],
        }
    }

    /// Signaling messages needed to roll out the plan with `strategy`
    /// over `population`.
    ///
    /// * MoveEndpoints: one re-auth + rule refresh per moved endpoint.
    /// * RewriteRules: one SXP push per (affected edge × changed row).
    pub fn signaling_messages(&self, strategy: UpdateStrategy, population: &Population) -> u64 {
        match strategy {
            UpdateStrategy::MoveEndpoints => {
                let (from, _) = self.moved_groups;
                // Re-auth (1 msg) + refreshed subset download (1 msg).
                u64::from(population.group_size(self.vn, from)) * 2
            }
            UpdateStrategy::RewriteRules => self
                .rewritten_rows
                .iter()
                .map(|(dst, rules)| {
                    let edges = population.edges_hosting(self.vn, *dst).len() as u64;
                    edges * u64::from(*rules)
                })
                .sum(),
        }
    }

    /// The cheaper strategy for this plan over `population`.
    pub fn cheaper_strategy(&self, population: &Population) -> UpdateStrategy {
        let mv = self.signaling_messages(UpdateStrategy::MoveEndpoints, population);
        let rw = self.signaling_messages(UpdateStrategy::RewriteRules, population);
        if mv <= rw {
            UpdateStrategy::MoveEndpoints
        } else {
            UpdateStrategy::RewriteRules
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    #[test]
    fn population_accounting() {
        let mut p = Population::new();
        p.add(RouterId(1), vn(1), GroupId(10), 5);
        p.add(RouterId(2), vn(1), GroupId(10), 3);
        p.add(RouterId(2), vn(1), GroupId(20), 7);
        assert_eq!(p.group_size(vn(1), GroupId(10)), 8);
        assert_eq!(
            p.edges_hosting(vn(1), GroupId(10)),
            vec![RouterId(1), RouterId(2)]
        );
        assert_eq!(p.total(), 15);
        assert_eq!(p.group_size(vn(2), GroupId(10)), 0);
    }

    #[test]
    fn small_group_favors_moving_endpoints() {
        // Few endpoints, rules spread over many edges.
        let mut p = Population::new();
        p.add(RouterId(1), vn(1), GroupId(1), 4); // 4 endpoints to move
        for e in 1..=50 {
            p.add(RouterId(e), vn(1), GroupId(1), 1);
        }
        let plan = UpdatePlan::acquisition(vn(1), GroupId(1), GroupId(2), 10);
        let mv = plan.signaling_messages(UpdateStrategy::MoveEndpoints, &p);
        let rw = plan.signaling_messages(UpdateStrategy::RewriteRules, &p);
        assert!(mv > 0 && rw > 0);
        assert_eq!(
            plan.cheaper_strategy(&p),
            if mv <= rw {
                UpdateStrategy::MoveEndpoints
            } else {
                UpdateStrategy::RewriteRules
            }
        );
    }

    #[test]
    fn huge_group_on_one_edge_favors_rewriting() {
        let mut p = Population::new();
        // 10,000 endpoints of group 1, all on one edge.
        p.add(RouterId(1), vn(1), GroupId(1), 10_000);
        let plan = UpdatePlan::acquisition(vn(1), GroupId(1), GroupId(2), 5);
        assert_eq!(
            plan.signaling_messages(UpdateStrategy::MoveEndpoints, &p),
            20_000
        );
        assert_eq!(plan.signaling_messages(UpdateStrategy::RewriteRules, &p), 5);
        assert_eq!(plan.cheaper_strategy(&p), UpdateStrategy::RewriteRules);
    }

    #[test]
    fn tiny_group_many_edges_favors_moving() {
        let mut p = Population::new();
        // 3 endpoints of group 1, but the row must reach 100 edges
        // because group 1 members sit on 100 edges… no — rows go to edges
        // hosting the *destination* group. Spread group 1 thin:
        for e in 0..100 {
            p.add(RouterId(e), vn(1), GroupId(1), 0);
        }
        p.add(RouterId(0), vn(1), GroupId(1), 1);
        p.add(RouterId(1), vn(1), GroupId(1), 1);
        p.add(RouterId(2), vn(1), GroupId(1), 1);
        let plan = UpdatePlan::acquisition(vn(1), GroupId(1), GroupId(2), 40);
        assert_eq!(
            plan.signaling_messages(UpdateStrategy::MoveEndpoints, &p),
            6
        );
        assert_eq!(
            plan.signaling_messages(UpdateStrategy::RewriteRules, &p),
            3 * 40
        );
        assert_eq!(plan.cheaper_strategy(&p), UpdateStrategy::MoveEndpoints);
    }
}
