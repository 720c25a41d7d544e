//! Property tests for the policy plane: matrix/subset coherence and the
//! §5.4 planner's cost model.

use proptest::prelude::*;
use sda_policy::{egress_subset, ingress_subset};
use sda_policy::{Action, ConnectivityMatrix, Population, UpdatePlan, UpdateStrategy};
use sda_types::{GroupId, RouterId, VnId};

fn vn(n: u32) -> VnId {
    VnId::new(n).unwrap()
}

fn arb_rules() -> impl Strategy<Value = Vec<(u32, u16, u16, bool)>> {
    proptest::collection::vec((1u32..4, 0u16..12, 0u16..12, any::<bool>()), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The egress subset contains *exactly* the rules whose destination
    /// is local, and every subset rule agrees with the full matrix.
    #[test]
    fn egress_subset_is_sound_and_complete(
        rules in arb_rules(),
        local in proptest::collection::vec((1u32..4, 0u16..12), 1..6),
    ) {
        let mut m = ConnectivityMatrix::new();
        for (v, s, d, allow) in &rules {
            m.set_rule(
                vn(*v),
                GroupId(*s),
                GroupId(*d),
                if *allow { Action::Allow } else { Action::Deny },
            );
        }
        let local: Vec<(VnId, GroupId)> =
            local.into_iter().map(|(v, g)| (vn(v), GroupId(g))).collect();
        let subset = egress_subset(&m, &local);

        // Soundness: every rule in the subset is in the matrix, has a
        // local destination, and carries the matrix's action.
        for (v, r) in &subset.rules {
            prop_assert!(local.contains(&(*v, r.dst)));
            prop_assert_eq!(m.check(*v, r.src, r.dst), r.action);
        }
        // Completeness: every matrix rule with a local destination is in
        // the subset.
        for v in m.vns().collect::<Vec<_>>() {
            for r in m.rules_of(v) {
                if local.contains(&(v, r.dst)) {
                    prop_assert!(
                        subset.rules.iter().any(|(sv, sr)| *sv == v
                            && sr.src == r.src
                            && sr.dst == r.dst
                            && sr.action == r.action),
                        "missing rule {v} {:?}", r
                    );
                }
            }
        }
        // Version tags the matrix state.
        prop_assert_eq!(subset.version, m.version());
    }

    /// Ingress and egress subsets partition along src/dst roles: a rule
    /// appears in the ingress subset iff its source is local.
    #[test]
    fn ingress_subset_selects_by_source(
        rules in arb_rules(),
        local in proptest::collection::vec((1u32..4, 0u16..12), 1..6),
    ) {
        let mut m = ConnectivityMatrix::new();
        for (v, s, d, allow) in &rules {
            m.set_rule(
                vn(*v),
                GroupId(*s),
                GroupId(*d),
                if *allow { Action::Allow } else { Action::Deny },
            );
        }
        let local: Vec<(VnId, GroupId)> =
            local.into_iter().map(|(v, g)| (vn(v), GroupId(g))).collect();
        let subset = ingress_subset(&m, &local);
        for (v, r) in &subset.rules {
            prop_assert!(local.contains(&(*v, r.src)));
        }
        let expected = m
            .vns()
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|v| m.rules_of(v).map(move |r| (v, r)))
            .filter(|(v, r)| local.contains(&(*v, r.src)))
            .count();
        prop_assert_eq!(subset.len(), expected);
    }

    /// Matrix check() is a pure function of the last write per cell.
    #[test]
    fn matrix_last_write_wins(rules in arb_rules(), probe in (1u32..4, 0u16..12, 0u16..12)) {
        let mut m = ConnectivityMatrix::new();
        for (v, s, d, allow) in &rules {
            m.set_rule(
                vn(*v),
                GroupId(*s),
                GroupId(*d),
                if *allow { Action::Allow } else { Action::Deny },
            );
        }
        let (v, s, d) = probe;
        let want = rules
            .iter()
            .rev()
            .find(|(rv, rs, rd, _)| *rv == v && *rs == s && *rd == d)
            .map(|(_, _, _, allow)| if *allow { Action::Allow } else { Action::Deny })
            .unwrap_or(Action::Deny);
        prop_assert_eq!(m.check(vn(v), GroupId(s), GroupId(d)), want);
    }

    /// Planner consistency: `cheaper_strategy` always returns the
    /// strategy whose cost is minimal, and costs scale linearly with
    /// population/rule multipliers.
    #[test]
    fn planner_picks_the_cheaper_strategy(
        spread in proptest::collection::vec((0u32..30, 1u32..200), 1..10),
        rules_touched in 1u32..100,
    ) {
        let mut pop = Population::new();
        for (edge, n) in &spread {
            pop.add(RouterId(*edge), vn(1), GroupId(1), *n);
        }
        let plan = UpdatePlan::acquisition(vn(1), GroupId(1), GroupId(2), rules_touched);
        let mv = plan.signaling_messages(UpdateStrategy::MoveEndpoints, &pop);
        let rw = plan.signaling_messages(UpdateStrategy::RewriteRules, &pop);
        let pick = plan.cheaper_strategy(&pop);
        match pick {
            UpdateStrategy::MoveEndpoints => prop_assert!(mv <= rw),
            UpdateStrategy::RewriteRules => prop_assert!(rw < mv),
        }
        // Move cost = 2 messages per endpoint, exactly.
        prop_assert_eq!(mv, u64::from(pop.group_size(vn(1), GroupId(1))) * 2);
    }
}
