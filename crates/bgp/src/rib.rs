//! The routing information base each BGP edge holds: every host route
//! in the network (the proactive cost Fig. 9 quantifies against).
//!
//! Only host routes live here, so the table is an exact match: one
//! hash table keyed by the EID behind the fabric's [`KeyHasher`], the
//! same probe the reactive map-cache's host routes cost — the
//! proactive-vs-reactive comparison differs only in *how much* state
//! each design installs.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use sda_types::{Eid, EidKey, KeyHasher, Rloc};

/// A full host-route table: EID → (serving edge, update sequence).
#[derive(Default, Debug, Clone)]
pub(crate) struct Rib {
    routes: HashMap<EidKey, (Rloc, u64), BuildHasherDefault<KeyHasher>>,
}

impl Rib {
    /// Empty RIB.
    pub(crate) fn new() -> Self {
        Rib::default()
    }

    /// Installs `eid → rloc` if `seq` is newer than the stored route.
    /// Returns true when the route changed (stale reordered updates are
    /// ignored — BGP's path-selection recency, collapsed to a sequence).
    pub(crate) fn install(&mut self, eid: Eid, rloc: Rloc, seq: u64) -> bool {
        let key = EidKey(eid);
        if self
            .routes
            .get(&key)
            .is_some_and(|(_, stored)| *stored >= seq)
        {
            return false;
        }
        self.routes.insert(key, (rloc, seq));
        true
    }

    /// Removes the route for `eid`.
    #[cfg(test)]
    pub(crate) fn withdraw(&mut self, eid: Eid) -> bool {
        self.routes.remove(&EidKey(eid)).is_some()
    }

    /// Next hop for `eid`.
    pub(crate) fn lookup(&self, eid: Eid) -> Option<Rloc> {
        self.routes.get(&EidKey(eid)).map(|(r, _)| *r)
    }

    /// Number of installed routes — every edge carries all of them,
    /// which is exactly the state the reactive design avoids.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.routes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn eid(n: u8) -> Eid {
        Eid::V4(Ipv4Addr::new(10, 0, 0, n))
    }

    #[test]
    fn install_lookup_withdraw() {
        let mut rib = Rib::new();
        assert!(rib.install(eid(1), Rloc::for_router_index(1), 1));
        assert_eq!(rib.lookup(eid(1)), Some(Rloc::for_router_index(1)));
        assert!(rib.withdraw(eid(1)));
        assert!(!rib.withdraw(eid(1)));
        assert!(rib.lookup(eid(1)).is_none());
    }

    #[test]
    fn stale_updates_ignored() {
        let mut rib = Rib::new();
        rib.install(eid(1), Rloc::for_router_index(1), 5);
        assert!(
            !rib.install(eid(1), Rloc::for_router_index(2), 4),
            "older seq"
        );
        assert!(
            !rib.install(eid(1), Rloc::for_router_index(2), 5),
            "same seq"
        );
        assert_eq!(rib.lookup(eid(1)), Some(Rloc::for_router_index(1)));
        assert!(rib.install(eid(1), Rloc::for_router_index(2), 6));
        assert_eq!(rib.lookup(eid(1)), Some(Rloc::for_router_index(2)));
    }

    #[test]
    fn len_counts_routes() {
        let mut rib = Rib::new();
        for i in 0..10 {
            rib.install(eid(i), Rloc::for_router_index(1), 1);
        }
        assert_eq!(rib.len(), 10);
    }
}
