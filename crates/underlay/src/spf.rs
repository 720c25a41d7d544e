//! Shortest-path-first (Dijkstra) with equal-cost multipath next hops.

use std::collections::{BTreeMap, BinaryHeap};

use sda_types::RouterId;

use crate::lsdb::Lsdb;

/// The result of an SPF run from one source router.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteTable {
    /// destination → (total cost, sorted ECMP next-hop set).
    routes: BTreeMap<RouterId, (u32, Vec<RouterId>)>,
}

impl RouteTable {
    /// The cost and ECMP next hops toward `dst`, if reachable.
    pub fn route(&self, dst: RouterId) -> Option<(u32, &[RouterId])> {
        self.routes.get(&dst).map(|(c, n)| (*c, n.as_slice()))
    }

    /// True when `dst` is reachable.
    pub fn reaches(&self, dst: RouterId) -> bool {
        self.routes.contains_key(&dst)
    }

    /// Deterministically picks one ECMP next hop for `dst`, using `flow`
    /// as the hash input (same flow → same path, the ECMP contract).
    pub fn next_hop(&self, dst: RouterId, flow: u64) -> Option<RouterId> {
        let (_, hops) = self.routes.get(&dst)?;
        if hops.is_empty() {
            return None; // dst == src
        }
        // Fibonacci hashing spreads sequential flow ids across hops.
        let idx = (flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % hops.len();
        Some(hops[idx])
    }

    /// Number of reachable destinations (including the source itself).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when empty (source unknown to the LSDB).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[derive(PartialEq, Eq)]
struct QueueEntry {
    cost: u32,
    node: RouterId,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Min-heap by (cost, node id) for determinism.
        (other.cost, other.node).cmp(&(self.cost, self.node))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs Dijkstra over the *bidirectionally confirmed* links in `lsdb`
/// from `src`, collecting every equal-cost next hop.
pub fn spf(lsdb: &Lsdb, src: RouterId) -> RouteTable {
    let mut table = RouteTable::default();
    if lsdb.get(src).is_none() {
        return table;
    }

    // dist[n], next_hops[n] built incrementally.
    let mut dist: BTreeMap<RouterId, u32> = BTreeMap::new();
    let mut hops: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
    let mut done: BTreeMap<RouterId, bool> = BTreeMap::new();
    let mut heap = BinaryHeap::new();

    dist.insert(src, 0);
    hops.insert(src, Vec::new());
    heap.push(QueueEntry { cost: 0, node: src });

    while let Some(QueueEntry { cost, node }) = heap.pop() {
        if *done.get(&node).unwrap_or(&false) {
            continue;
        }
        done.insert(node, true);
        table
            .routes
            .insert(node, (cost, hops.get(&node).cloned().unwrap_or_default()));

        for (neigh, link_cost) in lsdb.confirmed_neighbors(node) {
            let cand = cost + link_cost;
            let current = dist.get(&neigh).copied();
            // Next hops toward `neigh` through `node`: if node is the
            // source, the next hop is `neigh` itself; otherwise inherit.
            let via: Vec<RouterId> = if node == src {
                vec![neigh]
            } else {
                hops.get(&node).cloned().unwrap_or_default()
            };
            match current {
                None => {
                    dist.insert(neigh, cand);
                    hops.insert(neigh, via);
                    heap.push(QueueEntry {
                        cost: cand,
                        node: neigh,
                    });
                }
                Some(cur) if cand < cur => {
                    dist.insert(neigh, cand);
                    hops.insert(neigh, via);
                    heap.push(QueueEntry {
                        cost: cand,
                        node: neigh,
                    });
                }
                Some(cur) if cand == cur => {
                    // Equal cost: merge next-hop sets.
                    let set = hops.entry(neigh).or_default();
                    for h in via {
                        if !set.contains(&h) {
                            set.push(h);
                        }
                    }
                    set.sort_unstable();
                }
                _ => {}
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsdb::Lsa;
    use crate::topology::Topology;

    /// Builds a fully synchronized LSDB from a topology (every router
    /// advertises its true adjacency).
    fn full_lsdb(t: &Topology) -> Lsdb {
        let mut db = Lsdb::new();
        for r in t.routers() {
            db.install(Lsa::new(r, 1, t.neighbors(r).collect()));
        }
        db
    }

    #[test]
    fn line_costs_accumulate() {
        let t = Topology::line(4);
        let db = full_lsdb(&t);
        let table = spf(&db, RouterId(0));
        assert_eq!(table.route(RouterId(3)).unwrap().0, 3);
        assert_eq!(table.route(RouterId(3)).unwrap().1, &[RouterId(1)]);
        assert_eq!(table.route(RouterId(0)).unwrap().0, 0);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn ecmp_keeps_all_equal_paths() {
        // Diamond: 0—1—3 and 0—2—3, all cost 1.
        let mut t = Topology::new();
        t.add_link(RouterId(0), RouterId(1), 1);
        t.add_link(RouterId(0), RouterId(2), 1);
        t.add_link(RouterId(1), RouterId(3), 1);
        t.add_link(RouterId(2), RouterId(3), 1);
        let db = full_lsdb(&t);
        let table = spf(&db, RouterId(0));
        let (cost, hops) = table.route(RouterId(3)).unwrap();
        assert_eq!(cost, 2);
        assert_eq!(hops, &[RouterId(1), RouterId(2)]);
    }

    #[test]
    fn next_hop_is_flow_stable() {
        let t = Topology::spine_leaf(2, 4);
        let db = full_lsdb(&t);
        let table = spf(&db, RouterId(2)); // a leaf
        let dst = RouterId(5); // another leaf, 2 ECMP paths via spines
        let h1 = table.next_hop(dst, 42).unwrap();
        let h2 = table.next_hop(dst, 42).unwrap();
        assert_eq!(h1, h2, "same flow must take the same path");
        // Different flows eventually use both spines.
        let used: std::collections::BTreeSet<RouterId> =
            (0..64).filter_map(|f| table.next_hop(dst, f)).collect();
        assert_eq!(used.len(), 2, "ECMP should spread flows");
    }

    #[test]
    fn cheaper_path_wins_over_fewer_hops() {
        let mut t = Topology::new();
        t.add_link(RouterId(0), RouterId(1), 10);
        t.add_link(RouterId(0), RouterId(2), 1);
        t.add_link(RouterId(2), RouterId(1), 2);
        let db = full_lsdb(&t);
        let table = spf(&db, RouterId(0));
        let (cost, hops) = table.route(RouterId(1)).unwrap();
        assert_eq!(cost, 3);
        assert_eq!(hops, &[RouterId(2)]);
    }

    #[test]
    fn partition_unreachable() {
        let mut t = Topology::line(2);
        t.add_router(RouterId(9)); // isolated
        let db = full_lsdb(&t);
        let table = spf(&db, RouterId(0));
        assert!(table.reaches(RouterId(1)));
        assert!(!table.reaches(RouterId(9)));
    }

    #[test]
    fn one_way_advertisement_not_used() {
        // Router 1 claims a link to 2, but 2 does not confirm: a
        // rebooting router that stopped advertising.
        let mut db = Lsdb::new();
        db.install(Lsa::new(RouterId(0), 1, vec![(RouterId(1), 1)]));
        db.install(Lsa::new(
            RouterId(1),
            1,
            vec![(RouterId(0), 1), (RouterId(2), 1)],
        ));
        db.install(Lsa::new(RouterId(2), 1, vec![]));
        let table = spf(&db, RouterId(0));
        assert!(table.reaches(RouterId(1)));
        assert!(
            !table.reaches(RouterId(2)),
            "unconfirmed link must not be used"
        );
    }

    #[test]
    fn unknown_source_yields_empty() {
        let db = Lsdb::new();
        assert!(spf(&db, RouterId(7)).is_empty());
    }
}
