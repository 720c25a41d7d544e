//! The policy-churn workload: Table 3's update scenarios at scale.
//!
//! A fleet of hundreds of edges, each holding the compiled bitset ACL
//! ([`CompiledAcl`]) its SXP subset compiles into, driven through the
//! §5.3/§5.4 operational storms:
//!
//! * **SXP re-subset storms** — a burst of matrix rewrites; only the
//!   edges whose local scope intersects the touched rows may receive a
//!   push, and the fan-out is accounted edge for edge.
//! * **Enforcement-point flips** — the whole fleet switches between
//!   egress subsets (rules toward local destinations) and ingress
//!   subsets (rules from local sources), re-subsetting everyone; the
//!   report carries the §5.3 state blow-up (ingress rule volume vs
//!   egress) and the flip's total fan-out.
//! * **Group-move vs rule-rewrite rollouts** — [`UpdatePlan`] executed
//!   both ways; the delivered message counts must equal
//!   [`UpdatePlan::signaling_messages`] exactly (the planner's cost
//!   formula is checked against the rollout it plans, not trusted).
//!
//! Convergence is semantic, not version-counting: after every event,
//! each edge must answer every verdict inside its local scope exactly
//! as the policy server's authoritative matrix does. Everything is
//! seeded and deterministic.

use std::collections::BTreeSet;

use sda_policy::{
    ingress_subset, Action, CompiledAcl, EnforcementPoint, Population, RuleSubset, UpdatePlan,
    UpdateStrategy,
};
use sda_types::{GroupId, RouterId, VnId};

/// Fleet shape and seeding knobs.
#[derive(Clone, Copy, Debug)]
pub struct PolicyChurnParams {
    /// Edge routers in the fleet.
    pub edges: usize,
    /// VNs the deployment spans.
    pub vn_count: u32,
    /// Groups per VN id space.
    pub groups: u16,
    /// Distinct `(vn, group)` bindings attached per edge.
    pub bindings_per_edge: usize,
    /// Endpoints behind each binding.
    pub endpoints_per_binding: u32,
    /// Explicit matrix cells seeded before the churn starts.
    pub base_rules: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for PolicyChurnParams {
    /// Table 3 at scale: 300 edges, 4 VNs, 64 groups.
    fn default() -> Self {
        PolicyChurnParams {
            edges: 300,
            vn_count: 4,
            groups: 64,
            bindings_per_edge: 6,
            endpoints_per_binding: 8,
            base_rules: 1_500,
            seed: 0x5DA_9001,
        }
    }
}

/// One edge of the fleet: its local scope and the compiled ACL its
/// last subset push produced.
pub struct ChurnEdge {
    /// Fabric identity.
    pub router: RouterId,
    /// Locally attached `(vn, group)` bindings, sorted and deduped.
    pub local: Vec<(VnId, GroupId)>,
    /// The edge's enforcement table (compiled from the last push).
    pub acl: CompiledAcl,
    /// Subset pushes received since construction.
    pub pushes: u64,
    /// Total rules carried by those pushes.
    pub rules_received: u64,
}

/// What one re-subset storm did.
#[derive(Clone, Copy, Debug, Default)]
pub struct StormReport {
    /// Matrix cells rewritten.
    pub rewrites: u64,
    /// Edges whose local scope intersected a touched row (pushed).
    pub edges_pushed: u64,
    /// Total rules shipped across those pushes.
    pub rules_pushed: u64,
}

/// What an enforcement-point flip did.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlipReport {
    /// Edges re-subset (the whole fleet — a flip invalidates every
    /// subset, the fan-out floor of §5.3).
    pub edges_pushed: u64,
    /// Rule volume under the old enforcement point.
    pub rules_before: u64,
    /// Rule volume under the new one (ingress carries the blow-up).
    pub rules_after: u64,
}

/// What a §5.4 rollout did, planned vs delivered.
#[derive(Clone, Copy, Debug)]
pub struct RolloutReport {
    /// Strategy executed.
    pub strategy: UpdateStrategy,
    /// The planner's predicted signaling cost.
    pub planned_messages: u64,
    /// Messages actually delivered (re-auths + pushes, or row pushes).
    pub delivered_messages: u64,
    /// Edges that received at least one message.
    pub edges_touched: u64,
}

/// The fleet under churn.
pub struct PolicyChurnScenario {
    params: PolicyChurnParams,
    /// Authoritative intent (the policy server's matrix).
    matrix: sda_policy::ConnectivityMatrix,
    edges: Vec<ChurnEdge>,
    population: Population,
    enforcement: EnforcementPoint,
    rng: u64,
}

/// Splitmix64 step — the crate-wide deterministic stream shape.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PolicyChurnScenario {
    /// Builds the fleet, seeds the matrix, and performs the initial
    /// full SXP push (every edge receives its subset once).
    pub fn new(params: PolicyChurnParams) -> Self {
        let mut rng = params.seed | 1;
        let mut matrix = sda_policy::ConnectivityMatrix::new();
        for _ in 0..params.base_rules {
            let r = splitmix(&mut rng);
            let vn = Self::vn_of(params, r as u32);
            let src = GroupId((r >> 16) as u16 % params.groups);
            let dst = GroupId((r >> 32) as u16 % params.groups);
            let action = if r >> 48 & 1 == 0 {
                Action::Allow
            } else {
                Action::Deny
            };
            matrix.set_rule(vn, src, dst, action);
        }

        let mut population = Population::new();
        let mut edges = Vec::with_capacity(params.edges);
        for e in 0..params.edges {
            let router = RouterId(e as u32 + 1);
            let mut local = Vec::with_capacity(params.bindings_per_edge);
            for _ in 0..params.bindings_per_edge {
                let r = splitmix(&mut rng);
                let vn = Self::vn_of(params, r as u32);
                let group = GroupId((r >> 24) as u16 % params.groups);
                local.push((vn, group));
            }
            local.sort_unstable();
            local.dedup();
            for &(vn, group) in &local {
                population.add(router, vn, group, params.endpoints_per_binding);
            }
            edges.push(ChurnEdge {
                router,
                local,
                acl: CompiledAcl::with_default(matrix.default_action()),
                pushes: 0,
                rules_received: 0,
            });
        }

        let mut scenario = PolicyChurnScenario {
            params,
            matrix,
            edges,
            population,
            enforcement: EnforcementPoint::Egress,
            rng,
        };
        for i in 0..scenario.edges.len() {
            scenario.push_subset(i);
        }
        scenario
    }

    fn vn_of(params: PolicyChurnParams, r: u32) -> VnId {
        VnId::new(1 + r % params.vn_count).expect("vn_count stays in 24-bit space")
    }

    /// The fleet's current enforcement point.
    pub fn enforcement(&self) -> EnforcementPoint {
        self.enforcement
    }

    /// Read access to the fleet.
    pub fn edges(&self) -> &[ChurnEdge] {
        &self.edges
    }

    /// Read access to the authoritative matrix.
    pub fn matrix(&self) -> &sda_policy::ConnectivityMatrix {
        &self.matrix
    }

    /// Read access to the deployment snapshot.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The subset edge `i` needs under the current enforcement point.
    fn subset_for(&self, i: usize) -> RuleSubset {
        match self.enforcement {
            EnforcementPoint::Egress => {
                sda_policy::egress_subset(&self.matrix, &self.edges[i].local)
            }
            EnforcementPoint::Ingress => ingress_subset(&self.matrix, &self.edges[i].local),
        }
    }

    /// Pushes a fresh subset to edge `i` (one SXP message), compiling
    /// it into the edge's bitset ACL. Returns the rules shipped.
    fn push_subset(&mut self, i: usize) -> u64 {
        let subset = self.subset_for(i);
        let rules = subset.len() as u64;
        let edge = &mut self.edges[i];
        edge.acl.replace(&subset);
        edge.pushes += 1;
        edge.rules_received += rules;
        rules
    }

    /// Whether edge `i`'s scope intersects `(vn, group)` as the side
    /// the current enforcement point subsets on (destination for
    /// egress, source for ingress — §3.3.1 / §5.3).
    fn edge_scoped_to(&self, i: usize, vn: VnId, group: GroupId) -> bool {
        self.edges[i].local.binary_search(&(vn, group)).is_ok()
    }

    /// A burst of `rewrites` random matrix-cell flips followed by the
    /// SXP re-subset push to exactly the affected edges. Fan-out is
    /// exact: an edge is pushed iff its local scope intersects a
    /// touched row's subset-relevant group.
    pub fn resubset_storm(&mut self, rewrites: usize) -> StormReport {
        let mut touched: BTreeSet<(VnId, GroupId)> = BTreeSet::new();
        for _ in 0..rewrites {
            let r = splitmix(&mut self.rng);
            let vn = Self::vn_of(self.params, r as u32);
            let src = GroupId((r >> 16) as u16 % self.params.groups);
            let dst = GroupId((r >> 32) as u16 % self.params.groups);
            let action = if r >> 48 & 1 == 0 {
                Action::Allow
            } else {
                Action::Deny
            };
            self.matrix.set_rule(vn, src, dst, action);
            // Which group the subset keys on for this rule (§3.3.1:
            // egress subsets follow destinations, ingress follow
            // sources).
            touched.insert(match self.enforcement {
                EnforcementPoint::Egress => (vn, dst),
                EnforcementPoint::Ingress => (vn, src),
            });
        }
        let mut report = StormReport {
            rewrites: rewrites as u64,
            ..StormReport::default()
        };
        for i in 0..self.edges.len() {
            if touched.iter().any(|&(vn, g)| self.edge_scoped_to(i, vn, g)) {
                report.rules_pushed += self.push_subset(i);
                report.edges_pushed += 1;
            }
        }
        report
    }

    /// Flips the fleet's enforcement point and re-subsets every edge
    /// (a flip invalidates the subset-selection rule itself, so the
    /// fan-out is the whole fleet — the operational cost of the §5.3
    /// choice).
    pub fn flip_enforcement(&mut self) -> FlipReport {
        let rules_before: u64 = self.edges.iter().map(|e| e.acl.len() as u64).sum();
        self.enforcement = match self.enforcement {
            EnforcementPoint::Egress => EnforcementPoint::Ingress,
            EnforcementPoint::Ingress => EnforcementPoint::Egress,
        };
        let mut report = FlipReport {
            rules_before,
            ..FlipReport::default()
        };
        for i in 0..self.edges.len() {
            self.push_subset(i);
            report.edges_pushed += 1;
        }
        report.rules_after = self.edges.iter().map(|e| e.acl.len() as u64).sum();
        report
    }

    /// Executes a §5.4 acquisition rollout (`from` absorbed into `to`
    /// inside `vn`) under `strategy`, delivering real messages:
    ///
    /// * MoveEndpoints — every hosted endpoint of `from` re-auths (one
    ///   message) and pulls a refreshed subset (one message); the
    ///   edge's local scope is retagged and its ACL recompiled.
    /// * RewriteRules — every explicit rule touching `from` is
    ///   mirrored onto `to`; each edge scoped to a rewritten row
    ///   receives the row's rules.
    ///
    /// The report carries the planner's predicted cost next to the
    /// delivered count; the scenario tests assert they are equal.
    pub fn rollout(
        &mut self,
        vn: VnId,
        from: GroupId,
        to: GroupId,
        strategy: UpdateStrategy,
    ) -> RolloutReport {
        // Rows the rewrite path would touch: every explicit rule with
        // `from` as destination (the egress-subset side §5.4 costs).
        let rules_toward_from = self.matrix.rules_of(vn).filter(|r| r.dst == from).count() as u32;
        let plan = UpdatePlan::acquisition(vn, from, to, rules_toward_from);
        let planned = plan.signaling_messages(strategy, &self.population);
        let fanout = plan.fanout(strategy, &self.population);

        let mut delivered = 0u64;
        let mut edges_touched = 0u64;
        match strategy {
            UpdateStrategy::MoveEndpoints => {
                for i in 0..self.edges.len() {
                    let hosted = self
                        .population
                        .per_edge(vn, from)
                        .iter()
                        .find(|(e, _)| *e == self.edges[i].router)
                        .map(|(_, n)| *n)
                        .unwrap_or(0);
                    if hosted == 0 {
                        continue;
                    }
                    // Each endpoint re-authenticates and refreshes;
                    // the edge recompiles once (idempotent pushes).
                    delivered += u64::from(hosted) * 2;
                    edges_touched += 1;
                    for binding in &mut self.edges[i].local {
                        if *binding == (vn, from) {
                            *binding = (vn, to);
                        }
                    }
                    self.edges[i].local.sort_unstable();
                    self.edges[i].local.dedup();
                    self.push_subset(i);
                }
                self.population.move_group(vn, from, to);
            }
            UpdateStrategy::RewriteRules => {
                let rows: Vec<sda_policy::GroupRule> =
                    self.matrix.rules_of(vn).filter(|r| r.dst == from).collect();
                for r in &rows {
                    self.matrix.set_rule(vn, r.src, to, r.action);
                }
                for i in 0..self.edges.len() {
                    if self.edge_scoped_to(i, vn, from) {
                        delivered += u64::from(rules_toward_from);
                        edges_touched += 1;
                        self.push_subset(i);
                    }
                }
                // The mirrored `to` rows also land on `to`'s edges.
                for i in 0..self.edges.len() {
                    if self.edge_scoped_to(i, vn, to) && !self.edge_scoped_to(i, vn, from) {
                        self.push_subset(i);
                    }
                }
            }
        }
        debug_assert_eq!(fanout.total(), planned, "planner self-consistency");
        RolloutReport {
            strategy,
            planned_messages: planned,
            delivered_messages: delivered,
            edges_touched,
        }
    }

    /// Semantic convergence: every edge answers every verdict inside
    /// its subset scope exactly as the authoritative matrix does.
    /// Returns the number of `(edge, pair)` divergences (0 = converged).
    pub fn divergences(&self) -> u64 {
        let mut bad = 0;
        let default = self.matrix.default_action();
        for edge in &self.edges {
            for &(vn, local_group) in &edge.local {
                for g in 0..self.params.groups {
                    let other = GroupId(g);
                    let (src, dst) = match self.enforcement {
                        // Egress subset: rules *toward* local groups.
                        EnforcementPoint::Egress => (other, local_group),
                        // Ingress subset: rules *from* local groups.
                        EnforcementPoint::Ingress => (local_group, other),
                    };
                    if edge.acl.check(vn, src, dst, default) != self.matrix.check(vn, src, dst) {
                        bad += 1;
                    }
                }
            }
        }
        bad
    }

    /// Total subset pushes across the fleet.
    pub fn total_pushes(&self) -> u64 {
        self.edges.iter().map(|e| e.pushes).sum()
    }

    /// Total rules shipped across all pushes (SXP byte-volume proxy).
    pub fn total_rules_shipped(&self) -> u64 {
        self.edges.iter().map(|e| e.rules_received).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PolicyChurnParams {
        PolicyChurnParams {
            edges: 24,
            vn_count: 2,
            groups: 16,
            bindings_per_edge: 3,
            endpoints_per_binding: 4,
            base_rules: 120,
            seed: 7,
        }
    }

    #[test]
    fn initial_push_converges_fleet() {
        let s = PolicyChurnScenario::new(small());
        assert_eq!(s.total_pushes(), 24, "exactly one push per edge");
        assert_eq!(s.divergences(), 0);
        assert!(s.edges().iter().all(|e| e.acl.version() > 0));
    }

    #[test]
    fn storm_pushes_only_scoped_edges_and_reconverges() {
        let mut s = PolicyChurnScenario::new(small());
        let before: Vec<u64> = s.edges().iter().map(|e| e.pushes).collect();
        let report = s.resubset_storm(10);
        assert!(
            report.edges_pushed > 0,
            "a 10-cell storm must land somewhere"
        );
        let delta: u64 = s
            .edges()
            .iter()
            .zip(&before)
            .map(|(e, b)| e.pushes - b)
            .sum();
        assert_eq!(delta, report.edges_pushed, "fan-out accounted exactly");
        assert_eq!(s.divergences(), 0);
    }

    #[test]
    fn flip_resubsets_everyone_both_ways() {
        let mut s = PolicyChurnScenario::new(small());
        let f1 = s.flip_enforcement();
        assert_eq!(f1.edges_pushed, 24);
        assert_eq!(s.enforcement(), EnforcementPoint::Ingress);
        assert_eq!(s.divergences(), 0);
        let f2 = s.flip_enforcement();
        assert_eq!(s.enforcement(), EnforcementPoint::Egress);
        assert_eq!(f2.rules_after, f1.rules_before, "flip-back restores volume");
        assert_eq!(s.divergences(), 0);
    }

    #[test]
    fn rollouts_deliver_exactly_the_planned_messages() {
        for strategy in [UpdateStrategy::MoveEndpoints, UpdateStrategy::RewriteRules] {
            let mut s = PolicyChurnScenario::new(small());
            let vn = VnId::new(1).unwrap();
            let report = s.rollout(vn, GroupId(3), GroupId(5), strategy);
            assert_eq!(
                report.delivered_messages, report.planned_messages,
                "{strategy:?}: §5.4 cost formula must match the rollout it plans"
            );
            assert_eq!(s.divergences(), 0, "{strategy:?}: fleet reconverged");
        }
    }
}
