//! Differential property tests: the compiled bitset ACL must agree with
//! the reference per-pair [`GroupAcl`] (frozen in
//! `reference/group_acl.rs`) verdict-for-verdict and
//! counter-for-counter over random matrices, installs, replaces,
//! enforcement traffic and clears — for both compiled default
//! polarities (the folded fast path and the mismatched-default slow
//! path).

use proptest::prelude::*;
use sda_policy::{Action, CompiledAcl, ConnectivityMatrix, GroupRule, RuleSubset};
use sda_types::{GroupId, VnId};

#[path = "reference/group_acl.rs"]
mod reference;
use reference::GroupAcl;

fn vn(n: u32) -> VnId {
    VnId::new(n).unwrap()
}

fn action(allow: bool) -> Action {
    if allow {
        Action::Allow
    } else {
        Action::Deny
    }
}

type RawRules = Vec<(u32, u16, u16, bool)>;

fn arb_rules(max: usize) -> impl Strategy<Value = RawRules> {
    proptest::collection::vec((1u32..4, 0u16..24, 0u16..24, any::<bool>()), 0..max)
}

fn arb_probes() -> impl Strategy<Value = Vec<(u32, u16, u16, bool)>> {
    proptest::collection::vec((1u32..5, 0u16..28, 0u16..28, any::<bool>()), 1..80)
}

fn subset(version: u64, rules: &RawRules) -> RuleSubset {
    RuleSubset {
        version,
        rules: rules
            .iter()
            .map(|(v, s, d, allow)| {
                (
                    vn(*v),
                    GroupRule {
                        src: GroupId(*s),
                        dst: GroupId(*d),
                        action: action(*allow),
                    },
                )
            })
            .collect(),
    }
}

fn matrix(default: Action, rules: &RawRules) -> ConnectivityMatrix {
    let mut m = ConnectivityMatrix::with_default(default);
    for (v, s, d, allow) in rules {
        m.set_rule(vn(*v), GroupId(*s), GroupId(*d), action(*allow));
    }
    m
}

/// The reference table seeded through the compiled one's public door
/// (what the data-plane oracle does with an engine's live table).
fn seeded_from_rules(compiled: &CompiledAcl) -> GroupAcl {
    let mut acl = GroupAcl::new();
    acl.install(&compiled.rules());
    acl
}

/// Asserts check() agreement over the full probe grid, both defaults.
fn assert_grid_agrees(compiled: &CompiledAcl, reference: &GroupAcl) {
    for v in 1..5u32 {
        for s in 0..28u16 {
            for d in 0..28u16 {
                for default in [Action::Allow, Action::Deny] {
                    assert_eq!(
                        compiled.check(vn(v), GroupId(s), GroupId(d), default),
                        reference.check(vn(v), GroupId(s), GroupId(d), default),
                        "vn {v} {s}->{d} default {default:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full lifecycle differential: compile a matrix, enforce traffic,
    /// delta-install, replace, enforce again, clear — the compiled form
    /// must shadow the reference at every step.
    #[test]
    fn compiled_acl_shadows_group_acl(
        compiled_default_allow in any::<bool>(),
        base in arb_rules(60),
        delta in arb_rules(20),
        refresh in arb_rules(20),
        probes in arb_probes(),
    ) {
        let compiled_default = action(compiled_default_allow);
        let m = matrix(compiled_default, &base);

        let mut compiled = CompiledAcl::with_default(compiled_default);
        let mut reference = GroupAcl::new();
        compiled.install_matrix(&m);
        reference.install_matrix(&m);
        prop_assert_eq!(compiled.len(), reference.len());
        prop_assert_eq!(compiled.len(), m.len());
        prop_assert_eq!(compiled.version(), reference.version());
        assert_grid_agrees(&compiled, &reference);

        // Counting traffic: verdict-for-verdict, counter-for-counter.
        for (v, s, d, default_allow) in &probes {
            let default = action(*default_allow);
            prop_assert_eq!(
                compiled.enforce(vn(*v), GroupId(*s), GroupId(*d), default),
                reference.enforce(vn(*v), GroupId(*s), GroupId(*d), default),
            );
        }
        prop_assert_eq!(compiled.counters(), reference.counters());
        prop_assert_eq!(compiled.drop_permille(), reference.drop_permille());

        // Delta install (merge) then full replace.
        let s1 = subset(m.version() + 1, &delta);
        compiled.install(&s1);
        reference.install(&s1);
        prop_assert_eq!(compiled.len(), reference.len());
        prop_assert_eq!(compiled.version(), reference.version());
        assert_grid_agrees(&compiled, &reference);

        let s2 = subset(m.version() + 2, &refresh);
        compiled.replace(&s2);
        reference.replace(&s2);
        prop_assert_eq!(compiled.len(), reference.len());
        prop_assert_eq!(compiled.version(), reference.version());
        assert_grid_agrees(&compiled, &reference);

        for (v, s, d, default_allow) in &probes {
            let default = action(*default_allow);
            prop_assert_eq!(
                compiled.enforce(vn(*v), GroupId(*s), GroupId(*d), default),
                reference.enforce(vn(*v), GroupId(*s), GroupId(*d), default),
            );
        }
        prop_assert_eq!(compiled.counters(), reference.counters());

        compiled.clear();
        reference.clear();
        prop_assert!(compiled.is_empty());
        prop_assert_eq!(compiled.len(), reference.len());
        prop_assert_eq!(compiled.counters(), reference.counters());
        prop_assert_eq!(compiled.version(), reference.version());
    }

    /// Decompilation inverts compilation: `rules()` reproduces the
    /// exact rule set and version, and a published clone keeps serving
    /// the old rules while the working copy takes deltas.
    #[test]
    fn decompile_round_trips_and_publish_isolates(
        base in arb_rules(60),
        delta in arb_rules(20),
    ) {
        let m = matrix(Action::Deny, &base);
        let mut compiled = CompiledAcl::compile(&m);
        let decompiled = seeded_from_rules(&compiled);
        prop_assert_eq!(decompiled.len(), compiled.len());
        prop_assert_eq!(decompiled.version(), compiled.version());
        assert_grid_agrees(&compiled, &decompiled);

        // Epoch-publish model: the clone is the snapshot workers read.
        let published = compiled.clone();
        let frozen = seeded_from_rules(&published);
        compiled.install(&subset(m.version() + 1, &delta));
        // The snapshot still answers exactly as before the delta...
        assert_grid_agrees(&published, &frozen);
        // ...and the working copy matches a reference that took the
        // same delta.
        let mut reference = frozen.clone();
        reference.install(&subset(m.version() + 1, &delta));
        assert_grid_agrees(&compiled, &reference);
        // Counters stay shared across the publish (one Fig. 12 total).
        published.enforce(vn(1), GroupId(0), GroupId(0), Action::Deny);
        compiled.enforce(vn(1), GroupId(0), GroupId(1), Action::Deny);
        let (a, d) = compiled.counters();
        prop_assert_eq!((a, d), published.counters());
        prop_assert_eq!(a + d, 2);
    }

    /// The public door the oracles use: a reference seeded from
    /// `rules()` gives `compiled.check`'s verdict for every `(vn, src,
    /// dst)` of the grid under both per-call defaults, whichever
    /// default the rows folded in — after the compile, after a delta
    /// that interns new groups, and after a replace.
    #[test]
    fn reference_seeded_from_rules_matches_compiled(
        compiled_default_allow in any::<bool>(),
        base in arb_rules(60),
        delta in arb_rules(20),
        refresh in arb_rules(20),
    ) {
        let m = matrix(action(compiled_default_allow), &base);
        let mut compiled = CompiledAcl::compile(&m);
        for step in [None, Some((1, &delta, false)), Some((2, &refresh, true))] {
            if let Some((bump, rules, replace)) = step {
                let s = subset(m.version() + bump, rules);
                if replace { compiled.replace(&s) } else { compiled.install(&s) }
            }
            let seeded = seeded_from_rules(&compiled);
            prop_assert_eq!(seeded.len(), compiled.len());
            prop_assert_eq!(seeded.version(), compiled.version());
            assert_grid_agrees(&compiled, &seeded);
        }
    }
}
