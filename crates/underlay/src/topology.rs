//! Static topology description: the ground truth a scenario is built
//! from, and the reference SPF input in tests.

use std::collections::BTreeMap;

use sda_types::RouterId;

/// An undirected weighted graph of underlay routers.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// adjacency[r] = neighbors of r with link costs.
    adjacency: BTreeMap<RouterId, BTreeMap<RouterId, u32>>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Ensures `r` exists (possibly isolated).
    pub fn add_router(&mut self, r: RouterId) {
        self.adjacency.entry(r).or_default();
    }

    /// Adds (or updates) the undirected link `a — b` with `cost`.
    ///
    /// # Panics
    /// Panics if `a == b` or `cost == 0`.
    pub fn add_link(&mut self, a: RouterId, b: RouterId, cost: u32) {
        assert_ne!(a, b, "self-links are not allowed");
        assert!(cost > 0, "link cost must be positive");
        self.adjacency.entry(a).or_default().insert(b, cost);
        self.adjacency.entry(b).or_default().insert(a, cost);
    }

    /// Removes the undirected link `a — b` if present.
    pub fn remove_link(&mut self, a: RouterId, b: RouterId) {
        if let Some(n) = self.adjacency.get_mut(&a) {
            n.remove(&b);
        }
        if let Some(n) = self.adjacency.get_mut(&b) {
            n.remove(&a);
        }
    }

    /// All routers, ascending.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Neighbors of `r` with link costs, ascending by id.
    pub fn neighbors(&self, r: RouterId) -> impl Iterator<Item = (RouterId, u32)> + '_ {
        self.adjacency
            .get(&r)
            .into_iter()
            .flat_map(|n| n.iter().map(|(id, c)| (*id, *c)))
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True when no routers exist.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Builds a line `r0 — r1 — … — rn` with unit costs.
    #[cfg(test)]
    pub(crate) fn line(n: u32) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_router(RouterId(i));
        }
        for i in 1..n {
            t.add_link(RouterId(i - 1), RouterId(i), 1);
        }
        t
    }

    /// Builds a two-tier campus underlay: `spines` core routers each
    /// connected to every one of `leaves` access routers (unit costs) —
    /// the shape of Fig. 8 with border-facing spines.
    #[cfg(test)]
    pub(crate) fn spine_leaf(spines: u32, leaves: u32) -> Topology {
        let mut t = Topology::new();
        for s in 0..spines {
            t.add_router(RouterId(s));
        }
        for l in 0..leaves {
            let leaf = RouterId(spines + l);
            t.add_router(leaf);
            for s in 0..spines {
                t.add_link(RouterId(s), leaf, 1);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_undirected() {
        let mut t = Topology::new();
        t.add_link(RouterId(1), RouterId(2), 5);
        assert_eq!(
            t.neighbors(RouterId(1)).collect::<Vec<_>>(),
            vec![(RouterId(2), 5)]
        );
        assert_eq!(
            t.neighbors(RouterId(2)).collect::<Vec<_>>(),
            vec![(RouterId(1), 5)]
        );
    }

    #[test]
    fn remove_link_both_sides() {
        let mut t = Topology::line(3);
        t.remove_link(RouterId(1), RouterId(0));
        assert_eq!(t.neighbors(RouterId(0)).count(), 0);
        assert_eq!(t.neighbors(RouterId(1)).count(), 1);
    }

    #[test]
    fn spine_leaf_shape() {
        let t = Topology::spine_leaf(2, 6);
        assert_eq!(t.len(), 8);
        // Every leaf sees both spines.
        for l in 2..8 {
            assert_eq!(t.neighbors(RouterId(l)).count(), 2);
        }
        // Every spine sees all leaves.
        for s in 0..2 {
            assert_eq!(t.neighbors(RouterId(s)).count(), 6);
        }
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        Topology::new().add_link(RouterId(1), RouterId(1), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cost_panics() {
        Topology::new().add_link(RouterId(1), RouterId(2), 0);
    }
}
