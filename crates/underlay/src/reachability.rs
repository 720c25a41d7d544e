//! Underlay reachability tracking (§5.1, "Underlay Connectivity Issues").
//!
//! > "edge routers monitor the address announcements of the underlay
//! > routing protocol (IS-IS or OSPF) to know about their reachability to
//! > underlay IP addresses of the other edge routers. This way, when they
//! > detect a connectivity outage, they update their local forwarding
//! > table deleting such route and falling back to the default route to
//! > the border."
//!
//! [`ReachabilityTracker`] diffs consecutive routing tables and emits
//! up/down events for a watched set of peers; `sda-core`'s edge router
//! reacts to `Down` by purging map-cache entries pointing at the lost
//! RLOC.

use std::collections::BTreeMap;

use sda_types::RouterId;

use crate::spf::RouteTable;

/// A change in reachability of a watched peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReachabilityEvent {
    /// The peer became reachable.
    Up(RouterId),
    /// The peer stopped being reachable.
    Down(RouterId),
}

/// Tracks reachability of a fixed set of peers across SPF runs.
#[derive(Clone, Debug, Default)]
pub struct ReachabilityTracker {
    watched: BTreeMap<RouterId, bool>,
}

impl ReachabilityTracker {
    /// Creates a tracker watching `peers` (initially all unreachable).
    pub fn new(peers: impl IntoIterator<Item = RouterId>) -> Self {
        ReachabilityTracker {
            watched: peers.into_iter().map(|p| (p, false)).collect(),
        }
    }

    /// Feeds the latest routing table; returns the transitions since the
    /// previous call, in ascending peer order.
    pub fn update(&mut self, table: &RouteTable) -> Vec<ReachabilityEvent> {
        let mut events = Vec::new();
        for (peer, was_up) in self.watched.iter_mut() {
            let now_up = table.reaches(*peer);
            if now_up != *was_up {
                *was_up = now_up;
                events.push(if now_up {
                    ReachabilityEvent::Up(*peer)
                } else {
                    ReachabilityEvent::Down(*peer)
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsdb::{Lsa, Lsdb};
    use crate::spf::spf;
    use crate::topology::Topology;

    fn table_for(t: &Topology, src: u32) -> RouteTable {
        let mut db = Lsdb::new();
        for r in t.routers() {
            db.install(Lsa::new(r, 1, t.neighbors(r).collect()));
        }
        spf(&db, RouterId(src))
    }

    #[test]
    fn up_then_down_emits_transitions_once() {
        let mut t = Topology::line(3);
        let mut tracker = ReachabilityTracker::new([RouterId(2)]);
        assert!(!tracker.watched[&RouterId(2)]);

        let events = tracker.update(&table_for(&t, 0));
        assert_eq!(events, vec![ReachabilityEvent::Up(RouterId(2))]);
        // Stable: no repeat events.
        assert!(tracker.update(&table_for(&t, 0)).is_empty());
        assert!(tracker.watched[&RouterId(2)]);

        t.remove_link(RouterId(1), RouterId(2));
        let events = tracker.update(&table_for(&t, 0));
        assert_eq!(events, vec![ReachabilityEvent::Down(RouterId(2))]);
        assert!(!tracker.watched[&RouterId(2)]);
    }

    #[test]
    fn only_watched_peers_reported() {
        let t = Topology::line(4);
        let mut tracker = ReachabilityTracker::new([RouterId(3)]);
        let events = tracker.update(&table_for(&t, 0));
        assert_eq!(events.len(), 1, "router 1 and 2 are not watched");
    }
}
