//! Fig. 12 — per-mille hits on drop rules over all ACL hits, for three
//! devices of a ~11,000-endpoint deployment: a VPN gateway, a branch
//! router and a campus edge, over 5 days of egress enforcement.
//!
//! The paper's observation: drops are *rare* (worst case 2 per 10k
//! packets) because endpoints are humans — "when endpoints realize they
//! cannot access this particular destination, they stop requesting it".
//! The VPN gateway shows more drops because remote users "present a
//! different usage pattern from the users in the office".
//!
//! Model: each device enforces the same group ACL (`sda-policy`'s
//! `CompiledAcl` — the table the engine's egress stage 2 consults,
//! counting on its own allow/drop counters). Users run flows to
//! their habitual allowed destinations; occasionally someone tries a
//! forbidden destination and gives up after a few retries; a mid-week
//! policy update flips one pair to deny, causing the paper's "transient
//! period with an increase in drops" until users learn.
//!
//! Run with: `cargo run --release -p sda-bench --bin fig12_drop_permille`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_policy::{Action, CompiledAcl, GroupRule, RuleSubset};
use sda_types::{GroupId, VnId};

struct Profile {
    name: &'static str,
    endpoints: u32,
    /// Flows per endpoint per day.
    flows_per_day: u32,
    /// Fraction of endpoints that ever poke at forbidden destinations
    /// (remote users explore more).
    explorer_share: f64,
    /// Retries before a human gives up on a denied destination.
    retries: u32,
}

const PROFILES: &[Profile] = &[
    Profile {
        name: "VPN",
        endpoints: 3_000,
        flows_per_day: 40,
        explorer_share: 0.012,
        retries: 3,
    },
    Profile {
        name: "Branch",
        endpoints: 3_000,
        flows_per_day: 60,
        explorer_share: 0.004,
        retries: 3,
    },
    Profile {
        name: "Campus",
        endpoints: 5_000,
        flows_per_day: 80,
        explorer_share: 0.005,
        retries: 3,
    },
];

fn vn() -> VnId {
    VnId::new(1).unwrap()
}

fn main() {
    println!("Fig. 12 — permille hits on drop rules over all hits (5 days)\n");
    let days = 5u32;
    // 20 destination groups; 17 allowed to everyone, 3 denied.
    let allowed: Vec<GroupId> = (1..=17).map(GroupId).collect();
    let denied: Vec<GroupId> = (18..=20).map(GroupId).collect();
    let user_group = GroupId(100);

    println!(" device │ endpoints │ total hits │ drops │ permille │ paper(≈)");
    println!("────────┼───────────┼────────────┼───────┼──────────┼─────────");
    let paper = [0.18, 0.06, 0.04];
    for (profile, paper_pm) in PROFILES.iter().zip(paper) {
        let mut rng = SmallRng::seed_from_u64(profile.endpoints as u64);
        let mut acl = CompiledAcl::new();
        let rules: Vec<(VnId, GroupRule)> = allowed
            .iter()
            .map(|g| {
                (
                    vn(),
                    GroupRule {
                        src: user_group,
                        dst: *g,
                        action: Action::Allow,
                    },
                )
            })
            .chain(denied.iter().map(|g| {
                (
                    vn(),
                    GroupRule {
                        src: user_group,
                        dst: *g,
                        action: Action::Deny,
                    },
                )
            }))
            .collect();
        acl.install(&RuleSubset { version: 1, rules });

        // Explorers: the small population that pokes at forbidden
        // destinations (each gives up after `retries` attempts).
        let mut explorer_tries: Vec<u32> = (0..profile.endpoints as usize)
            .map(|_| {
                if rng.gen::<f64>() < profile.explorer_share {
                    profile.retries
                } else {
                    0
                }
            })
            .collect();

        // Mid-run policy update: group 17 becomes denied on day 3. Only
        // its habitual users (1.5%) see the transient, and they learn.
        let mut uses_17: Vec<bool> = (0..profile.endpoints as usize)
            .map(|_| rng.gen::<f64>() < 0.015)
            .collect();

        for day in 0..days {
            if day == 2 {
                acl.install(&RuleSubset {
                    version: 2,
                    rules: vec![(
                        vn(),
                        GroupRule {
                            src: user_group,
                            dst: GroupId(17),
                            action: Action::Deny,
                        },
                    )],
                });
            }
            for ep in 0..profile.endpoints as usize {
                for _ in 0..profile.flows_per_day {
                    // Exploration: a poke at a denied group, while the
                    // explorer's patience lasts (~once a day).
                    if explorer_tries[ep] > 0
                        && rng.gen::<f64>() < 1.0 / f64::from(profile.flows_per_day)
                    {
                        let dst = denied[rng.gen_range(0..denied.len())];
                        acl.enforce(vn(), user_group, dst, Action::Deny);
                        explorer_tries[ep] -= 1;
                        continue;
                    }
                    // Habitual flow to an allowed destination.
                    let idx = rng.gen_range(0..allowed.len());
                    let dst = allowed[idx];
                    if day >= 2 && dst == GroupId(17) && uses_17[ep] {
                        // Transient after the policy update: a couple of
                        // drops until the human stops trying.
                        acl.enforce(vn(), user_group, dst, Action::Deny);
                        if rng.gen::<f64>() < 0.6 {
                            uses_17[ep] = false;
                        }
                        continue;
                    }
                    let dst = if dst == GroupId(17) {
                        allowed[(idx + 1) % 17]
                    } else {
                        dst
                    };
                    acl.enforce(vn(), user_group, dst, Action::Deny);
                }
            }
        }

        let (allowed_hits, drops) = acl.counters();
        let permille = acl.drop_permille().unwrap();
        println!(
            " {:<6} │ {:>9} │ {:>10} │ {:>5} │ {:>8.3} │ {:>7.2}",
            profile.name,
            profile.endpoints,
            allowed_hits + drops,
            drops,
            permille,
            paper_pm,
        );
        assert!(permille < 1.0, "drop rate must stay well below 1‰");
    }
    println!("\npaper: worst case ≈0.18‰ (VPN) — 2 of every 10k packets;");
    println!("egress enforcement wastes negligible bandwidth in practice.");
}
