//! The link-state database: every router's view of the network.

use std::collections::BTreeMap;

use sda_types::RouterId;

/// A link-state advertisement: one router's current adjacency set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lsa {
    /// The advertising router.
    pub origin: RouterId,
    /// Monotonic per-origin sequence number; higher wins.
    pub seq: u64,
    /// The origin's live links `(neighbor, cost)`, sorted by neighbor.
    pub links: Vec<(RouterId, u32)>,
}

impl Lsa {
    /// Creates an LSA, normalizing link order.
    pub fn new(origin: RouterId, seq: u64, mut links: Vec<(RouterId, u32)>) -> Self {
        links.sort_unstable();
        links.dedup_by_key(|(n, _)| *n);
        Lsa { origin, seq, links }
    }
}

/// The collected LSAs, newest sequence per origin.
#[derive(Clone, Default, Debug)]
pub struct Lsdb {
    entries: BTreeMap<RouterId, Lsa>,
}

impl Lsdb {
    /// Empty database.
    pub fn new() -> Self {
        Lsdb::default()
    }

    /// Installs `lsa` if it is newer than the stored one for its origin.
    /// Returns true when the database changed (the flood-on rule).
    pub fn install(&mut self, lsa: Lsa) -> bool {
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

    /// Number of distinct origins known.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The *bidirectionally confirmed* adjacency view: a link `a→b` is
    /// used by SPF only if `b` also advertises `a` (standard two-way
    /// connectivity check, which is what quarantines a rebooting router
    /// that has stopped advertising).
    pub(crate) fn confirmed_neighbors(&self, r: RouterId) -> Vec<(RouterId, u32)> {
        let Some(lsa) = self.entries.get(&r) else {
            return Vec::new();
        };
        lsa.links
            .iter()
            .filter(|(n, _)| {
                self.entries
                    .get(n)
                    .map(|back| back.links.iter().any(|(m, _)| *m == r))
                    .unwrap_or(false)
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsa(origin: u32, seq: u64, links: &[(u32, u32)]) -> Lsa {
        Lsa::new(
            RouterId(origin),
            seq,
            links.iter().map(|(n, c)| (RouterId(*n), *c)).collect(),
        )
    }

    #[test]
    fn newer_seq_wins() {
        let mut db = Lsdb::new();
        assert!(db.install(lsa(1, 1, &[(2, 1)])));
        assert!(!db.install(lsa(1, 1, &[(3, 1)])), "same seq rejected");
        assert!(!db.install(lsa(1, 0, &[(3, 1)])), "older rejected");
        assert!(db.install(lsa(1, 2, &[(3, 1)])));
        assert_eq!(db.get(RouterId(1)).unwrap().links, vec![(RouterId(3), 1)]);
    }

    #[test]
    fn links_are_normalized() {
        let l = lsa(1, 1, &[(3, 1), (2, 5), (3, 9)]);
        assert_eq!(l.links, vec![(RouterId(2), 5), (RouterId(3), 1)]);
    }

    #[test]
    fn confirmed_requires_two_way() {
        let mut db = Lsdb::new();
        db.install(lsa(1, 1, &[(2, 1), (3, 1)]));
        db.install(lsa(2, 1, &[(1, 1)]));
        db.install(lsa(3, 1, &[])); // 3 does not confirm the link back
        let n = db.confirmed_neighbors(RouterId(1));
        assert_eq!(n, vec![(RouterId(2), 1)]);
        assert!(db.confirmed_neighbors(RouterId(9)).is_empty());
    }

    #[test]
    fn iter_sorted_by_origin() {
        let mut db = Lsdb::new();
        db.install(lsa(5, 1, &[]));
        db.install(lsa(2, 1, &[]));
        let origins: Vec<u32> = db.iter().map(|l| l.origin.0).collect();
        assert_eq!(origins, vec![2, 5]);
        assert_eq!(db.len(), 2);
    }
}
