//! The link-state database: every router's view of the network.

use std::collections::{BTreeMap, BTreeSet};

use sda_types::RouterId;

/// A link-state advertisement: one router's current adjacency set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lsa {
    /// The advertising router.
    pub origin: RouterId,
    /// Monotonic per-origin sequence number; higher wins.
    pub seq: u64,
    /// The origin's live neighbours (sorted when this crate built it).
    pub links: Vec<RouterId>,
}

impl Lsa {
    /// Creates an LSA, normalizing link order.
    pub(crate) fn new(origin: RouterId, seq: u64, mut links: Vec<RouterId>) -> Self {
        links.sort_unstable();
        links.dedup();
        Lsa { origin, seq, links }
    }
}

/// The collected LSAs, newest sequence per origin.
#[derive(Clone, Default, Debug)]
pub(crate) struct Lsdb {
    entries: BTreeMap<RouterId, Lsa>,
}

impl Lsdb {
    /// Installs `lsa` if it is newer than the stored one for its origin.
    /// Returns true when the database changed (the flood-on rule).
    pub(crate) fn install(&mut self, lsa: Lsa) -> bool {
        match self.entries.get(&lsa.origin) {
            Some(existing) if existing.seq >= lsa.seq => false,
            _ => {
                self.entries.insert(lsa.origin, lsa);
                true
            }
        }
    }

    /// The stored LSA for `origin`.
    pub(crate) fn get(&self, origin: RouterId) -> Option<&Lsa> {
        self.entries.get(&origin)
    }

    /// All LSAs, ascending by origin.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Lsa> {
        self.entries.values()
    }

    /// The *bidirectionally confirmed* neighbours of `r`: a link `r→n`
    /// counts only if `n` also advertises `r` (the standard two-way
    /// connectivity check, which is what quarantines a rebooting router
    /// that has stopped advertising).
    fn confirmed_neighbors(&self, r: RouterId) -> impl Iterator<Item = RouterId> + '_ {
        let links = self.entries.get(&r).map_or(&[][..], |lsa| &lsa.links);
        links.iter().copied().filter(move |n| {
            self.entries
                .get(n)
                .is_some_and(|back| back.links.contains(&r))
        })
    }

    /// The routers `src` reaches over confirmed links, `src` included;
    /// empty when `src` has no LSA here.
    pub(crate) fn reachable(&self, src: RouterId) -> BTreeSet<RouterId> {
        let mut seen = BTreeSet::new();
        if !self.entries.contains_key(&src) {
            return seen;
        }
        seen.insert(src);
        let mut stack = vec![src];
        while let Some(r) = stack.pop() {
            for n in self.confirmed_neighbors(r) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lsa(origin: u32, seq: u64, links: &[u32]) -> Lsa {
        Lsa::new(
            RouterId(origin),
            seq,
            links.iter().map(|n| RouterId(*n)).collect(),
        )
    }

    fn ids(routers: &[u32]) -> BTreeSet<RouterId> {
        routers.iter().map(|r| RouterId(*r)).collect()
    }

    #[test]
    fn newer_seq_wins() {
        let mut db = Lsdb::default();
        assert!(db.install(lsa(1, 1, &[2])));
        assert!(!db.install(lsa(1, 1, &[3])), "same seq rejected");
        assert!(!db.install(lsa(1, 0, &[3])), "older rejected");
        assert!(db.install(lsa(1, 2, &[3])));
        assert_eq!(db.get(RouterId(1)).unwrap().links, vec![RouterId(3)]);
    }

    #[test]
    fn links_are_normalized() {
        let l = lsa(1, 1, &[3, 2, 3]);
        assert_eq!(l.links, vec![RouterId(2), RouterId(3)]);
    }

    #[test]
    fn confirmed_requires_two_way() {
        // 1 claims links to 2 and 3; 3 does not confirm the link back
        // (a rebooting router that stopped advertising), and 3's claim
        // to 4 is confirmed but unreachable through the one-way link.
        let mut db = Lsdb::default();
        db.install(lsa(1, 1, &[2, 3]));
        db.install(lsa(2, 1, &[1]));
        db.install(lsa(3, 1, &[4]));
        db.install(lsa(4, 1, &[3]));
        assert_eq!(db.reachable(RouterId(1)), ids(&[1, 2]));
        assert_eq!(db.reachable(RouterId(3)), ids(&[3, 4]));
        assert!(db.reachable(RouterId(9)).is_empty(), "unknown source");
    }

    #[test]
    fn one_way_advertisement_not_used() {
        // 1 claims a link to 2, but 2 does not confirm: a rebooting
        // router that stopped advertising.
        let mut db = Lsdb::default();
        db.install(lsa(0, 1, &[1]));
        db.install(lsa(1, 1, &[0, 2]));
        db.install(lsa(2, 1, &[]));
        let reach = db.reachable(RouterId(0));
        assert!(reach.contains(&RouterId(1)));
        assert!(
            !reach.contains(&RouterId(2)),
            "unconfirmed link must not be used"
        );
    }

    #[test]
    fn unknown_source_yields_empty() {
        assert!(Lsdb::default().reachable(RouterId(7)).is_empty());
        // A source with no LSA reaches nothing, even when others list it.
        let mut db = Lsdb::default();
        db.install(lsa(1, 1, &[7]));
        assert!(db.reachable(RouterId(7)).is_empty());
    }

    #[test]
    fn partition_unreachable() {
        // Line 0—1—2—3 plus an isolated 9.
        let mut db = Lsdb::default();
        db.install(lsa(0, 1, &[1]));
        db.install(lsa(1, 1, &[0, 2]));
        db.install(lsa(2, 1, &[1, 3]));
        db.install(lsa(3, 1, &[2]));
        db.install(lsa(9, 1, &[]));
        assert_eq!(db.reachable(RouterId(0)), ids(&[0, 1, 2, 3]));
        // 1 and 2 drop their shared link: the line is cut in two.
        db.install(lsa(1, 2, &[0]));
        db.install(lsa(2, 2, &[3]));
        assert_eq!(db.reachable(RouterId(0)), ids(&[0, 1]));
        assert_eq!(db.reachable(RouterId(3)), ids(&[2, 3]));
    }

    #[test]
    fn iter_sorted_by_origin() {
        let mut db = Lsdb::default();
        db.install(lsa(5, 1, &[]));
        db.install(lsa(2, 1, &[]));
        let origins: Vec<u32> = db.iter().map(|l| l.origin.0).collect();
        assert_eq!(origins, vec![2, 5]);
    }

    /// `n` routers, each advertising the neighbours `claims` gives it
    /// (one-way claims included).
    fn build(n: u32, claims: &[(u32, u32)]) -> Lsdb {
        let mut db = Lsdb::default();
        for r in 0..n {
            let links = claims
                .iter()
                .filter(|(a, b)| *a == r && *b != r)
                .map(|(_, b)| RouterId(*b))
                .collect();
            db.install(Lsa::new(RouterId(r), 1, links));
        }
        db
    }

    /// Reference: the transitive closure from `src` over the links both
    /// ends claim, grown to a fixed point (the key set a Bellman–Ford
    /// over the same links would settle).
    fn closure(claims: &[(u32, u32)], src: u32) -> BTreeSet<RouterId> {
        let two_way = |a: u32, b: u32| claims.contains(&(a, b)) && claims.contains(&(b, a));
        let mut reach = BTreeSet::from([src]);
        loop {
            let grown: BTreeSet<u32> = claims
                .iter()
                .filter(|(a, b)| a != b && reach.contains(a) && two_way(*a, *b))
                .map(|(_, b)| *b)
                .collect();
            let before = reach.len();
            reach.extend(grown);
            if reach.len() == before {
                return reach.into_iter().map(RouterId).collect();
            }
        }
    }

    /// Random claims over 2..12 routers: each pair `(a, b)` is claimed
    /// by `a`, and by `b` too in three cases out of four.
    fn arb_claims() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
        (2u32..12).prop_flat_map(|n| {
            let pairs = proptest::collection::vec((0..n, 0..n, 0u8..4), 0..(n * n) as usize);
            pairs.prop_map(move |ps| {
                let mut claims = Vec::new();
                for (a, b, roll) in ps {
                    claims.push((a, b));
                    if roll != 0 {
                        claims.push((b, a));
                    }
                }
                (n, claims)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn reachable_matches_reference_closure((n, claims) in arb_claims()) {
            let db = build(n, &claims);
            for src in 0..n {
                prop_assert_eq!(db.reachable(RouterId(src)), closure(&claims, src));
            }
        }

        /// Withdrawing one claim never makes a router reachable.
        #[test]
        fn link_removal_is_monotone((n, claims) in arb_claims(), k in 0usize..64) {
            if claims.is_empty() {
                return Ok(());
            }
            let gone = claims[k % claims.len()];
            let cut: Vec<(u32, u32)> = claims.iter().copied().filter(|c| *c != gone).collect();
            let (before, after) = (build(n, &claims), build(n, &cut));
            for src in 0..n {
                let (b, a) = (before.reachable(RouterId(src)), after.reachable(RouterId(src)));
                prop_assert!(a.is_subset(&b), "src {}: {:?} ⊄ {:?}", src, a, b);
                prop_assert_eq!(a, closure(&cut, src));
            }
        }
    }
}
