//! The link-state protocol state machine: hellos, adjacency tracking and
//! LSA flooding.
//!
//! [`LinkStateRouter`] is a pure state machine: callers feed it messages
//! and periodic ticks; it returns the messages to transmit. This keeps it
//! independently testable and lets `sda-core` adapt it onto the
//! simulator's node trait.

use std::collections::BTreeMap;

use sda_simnet::{SimDuration, SimTime};
use sda_types::RouterId;

use crate::lsdb::{Lsa, Lsdb};
use crate::spf::{spf, RouteTable};

/// Protocol messages exchanged between direct neighbors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// Periodic keepalive. Carries the sender's live-neighbor list (the
    /// OSPF "two-way check"): a hello that does not list the receiver
    /// tells the receiver the sender has restarted and needs a full
    /// database exchange.
    Hello {
        /// The sending router.
        from: RouterId,
        /// Neighbors the sender currently considers up.
        seen: Vec<RouterId>,
    },
    /// A flooded link-state advertisement.
    Flood(Lsa),
}

/// Timer configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProtocolConfig {
    /// Hello transmission interval.
    pub hello_interval: SimDuration,
    /// Adjacency declared dead after this silence.
    pub dead_interval: SimDuration,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        // OSPF-ish defaults scaled down for campus convergence tests.
        ProtocolConfig {
            hello_interval: SimDuration::from_secs(1),
            dead_interval: SimDuration::from_secs(4),
        }
    }
}

/// Per-neighbor adjacency state.
#[derive(Clone, Copy, Debug)]
struct Adjacency {
    cost: u32,
    up: bool,
    last_hello: SimTime,
}

/// A link-state router instance.
pub struct LinkStateRouter {
    id: RouterId,
    config: ProtocolConfig,
    /// Configured local links (physical wiring), regardless of liveness.
    configured: BTreeMap<RouterId, u32>,
    adjacencies: BTreeMap<RouterId, Adjacency>,
    lsdb: Lsdb,
    seq: u64,
    last_hello_tx: Option<SimTime>,
}

/// Messages to transmit: `(neighbor, message)` pairs.
pub(crate) type Outbox = Vec<(RouterId, Message)>;

impl LinkStateRouter {
    /// Creates a router with its configured local links.
    pub fn new(id: RouterId, links: impl IntoIterator<Item = (RouterId, u32)>) -> Self {
        LinkStateRouter {
            id,
            config: ProtocolConfig::default(),
            configured: links.into_iter().collect(),
            adjacencies: BTreeMap::new(),
            lsdb: Lsdb::new(),
            seq: 0,
            last_hello_tx: None,
        }
    }

    /// This router's id.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// Current routing table from this router's perspective.
    pub fn routes(&self) -> RouteTable {
        spf(&self.lsdb, self.id)
    }

    /// Live (up) adjacencies.
    fn live_links(&self) -> Vec<(RouterId, u32)> {
        self.adjacencies
            .iter()
            .filter(|(_, a)| a.up)
            .map(|(n, a)| (*n, a.cost))
            .collect()
    }

    fn originate(&mut self, now: SimTime) -> Outbox {
        self.seq += 1;
        let lsa = Lsa::new(self.id, self.seq, self.live_links());
        self.lsdb.install(lsa.clone());
        let _ = now;
        self.flood_to_all(&lsa, None)
    }

    fn flood_to_all(&self, lsa: &Lsa, except: Option<RouterId>) -> Outbox {
        self.adjacencies
            .iter()
            .filter(|(n, a)| a.up && Some(**n) != except)
            .map(|(n, _)| (*n, Message::Flood(lsa.clone())))
            .collect()
    }

    /// Periodic tick: emits hellos, expires dead adjacencies,
    /// re-originates the local LSA on change. Call at least once per
    /// hello interval.
    pub fn tick(&mut self, now: SimTime) -> Outbox {
        let mut out = Outbox::new();

        // Expire adjacencies that missed the dead interval.
        let mut changed = false;
        for (_, adj) in self.adjacencies.iter_mut() {
            if adj.up && now.saturating_since(adj.last_hello) >= self.config.dead_interval {
                adj.up = false;
                changed = true;
            }
        }

        // Hellos to every configured neighbor (up or not — that's how a
        // recovered neighbor is re-discovered).
        let due = match self.last_hello_tx {
            None => true,
            Some(t) => now.saturating_since(t) >= self.config.hello_interval,
        };
        if due {
            self.last_hello_tx = Some(now);
            let seen: Vec<RouterId> = self.live_links().iter().map(|(n, _)| *n).collect();
            for n in self.configured.keys() {
                out.push((
                    *n,
                    Message::Hello {
                        from: self.id,
                        seen: seen.clone(),
                    },
                ));
            }
        }

        if changed {
            out.extend(self.originate(now));
        }
        out
    }

    /// Handles a protocol message received from direct neighbor `from`.
    pub fn handle(&mut self, from: RouterId, msg: Message, now: SimTime) -> Outbox {
        match msg {
            Message::Hello { from, seen } => {
                let Some(&cost) = self.configured.get(&from) else {
                    return Outbox::new(); // hello from a non-neighbor
                };
                let adj = self.adjacencies.entry(from).or_insert(Adjacency {
                    cost,
                    up: false,
                    last_hello: now,
                });
                adj.last_hello = now;
                // Two-way check: a live neighbor whose hello no longer
                // lists us has restarted — drop to "new adjacency" so the
                // full database exchange below runs again.
                let restarted = adj.up && !seen.contains(&self.id);
                if !adj.up || restarted {
                    adj.up = true;
                    // New adjacency: advertise it, and give the neighbor
                    // our whole LSDB so it converges in one exchange.
                    let mut out = self.originate(now);
                    let lsas: Vec<Lsa> = self.lsdb.iter().cloned().collect();
                    for lsa in lsas {
                        out.push((from, Message::Flood(lsa)));
                    }
                    return out;
                }
                Outbox::new()
            }
            Message::Flood(lsa) => {
                if lsa.origin == self.id {
                    // Never accept someone else's version of our own LSA
                    // with a higher seq — bump past it and re-originate
                    // (OSPF "self-originated LSA" handling, simplified).
                    // This is how a rebooted router recovers its sequence
                    // number and re-announces itself.
                    if lsa.seq > self.seq {
                        self.seq = lsa.seq;
                        return self.originate(now);
                    }
                    return Outbox::new();
                }
                if self.lsdb.install(lsa.clone()) {
                    // Changed: flood onward (split horizon is best-effort;
                    // seq numbers stop loops regardless).
                    return self.flood_to_all(&lsa, None);
                }
                // Not installed: if we hold a strictly newer copy, send it
                // back so a stale sender (e.g. freshly rebooted) catches
                // up — OSPF's "database is newer, reply with ours".
                if let Some(stored) = self.lsdb.get(lsa.origin) {
                    if stored.seq > lsa.seq {
                        return vec![(from, Message::Flood(stored.clone()))];
                    }
                }
                Outbox::new()
            }
        }
    }

    /// Is `dst` currently reachable?
    #[cfg(test)]
    pub(crate) fn reaches(&self, dst: RouterId) -> bool {
        self.routes().reaches(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use std::collections::VecDeque;

    /// Synchronous harness: runs routers to quiescence, delivering
    /// messages breadth-first with zero latency.
    struct Harness {
        routers: BTreeMap<RouterId, LinkStateRouter>,
        now: SimTime,
    }

    impl Harness {
        fn from_topology(t: &Topology) -> Self {
            let routers = t
                .routers()
                .map(|r| (r, LinkStateRouter::new(r, t.neighbors(r))))
                .collect();
            Harness {
                now: SimTime::ZERO,
                routers,
            }
        }

        fn advance(&mut self, d: SimDuration) {
            self.now += d;
        }

        /// One tick on every router, then deliver until quiet.
        fn settle(&mut self) {
            let mut queue: VecDeque<(RouterId, RouterId, Message)> = VecDeque::new();
            let now = self.now;
            for (id, router) in self.routers.iter_mut() {
                for (to, msg) in router.tick(now) {
                    queue.push_back((*id, to, msg));
                }
            }
            let mut guard = 0;
            while let Some((from, to, msg)) = queue.pop_front() {
                guard += 1;
                assert!(guard < 100_000, "flooding did not converge");
                if let Some(r) = self.routers.get_mut(&to) {
                    for (next_to, next_msg) in r.handle(from, msg, now) {
                        queue.push_back((to, next_to, next_msg));
                    }
                }
            }
        }

        fn router(&self, id: u32) -> &LinkStateRouter {
            &self.routers[&RouterId(id)]
        }
    }

    #[test]
    fn full_mesh_converges_after_two_rounds() {
        let t = Topology::spine_leaf(2, 4);
        let mut h = Harness::from_topology(&t);
        h.settle(); // adjacencies come up, LSAs flood
        h.advance(SimDuration::from_secs(1));
        h.settle(); // steady state
        for r in 0..6 {
            let table = h.router(r).routes();
            assert_eq!(table.len(), 6, "router {r} must reach all 6");
        }
    }

    #[test]
    fn dead_interval_tears_down_and_spf_reroutes() {
        // Square: 0-1, 1-3, 0-2, 2-3.
        let mut t = Topology::new();
        t.add_link(RouterId(0), RouterId(1), 1);
        t.add_link(RouterId(1), RouterId(3), 1);
        t.add_link(RouterId(0), RouterId(2), 1);
        t.add_link(RouterId(2), RouterId(3), 1);
        let mut h = Harness::from_topology(&t);
        h.settle();
        h.advance(SimDuration::from_secs(1));
        h.settle();
        assert!(h.router(0).reaches(RouterId(3)));

        // Kill router 1: remove it from the harness so it neither hellos
        // nor floods; after the dead interval others expire it.
        h.routers.remove(&RouterId(1));
        for _ in 0..6 {
            h.advance(SimDuration::from_secs(1));
            h.settle();
        }
        let table = h.router(0).routes();
        assert!(!table.reaches(RouterId(1)), "dead router must disappear");
        let (cost, hops) = table.route(RouterId(3)).unwrap();
        assert_eq!(cost, 2);
        assert_eq!(hops, &[RouterId(2)], "traffic must reroute via 2");
    }

    #[test]
    fn hello_from_stranger_ignored() {
        let mut r = LinkStateRouter::new(RouterId(1), vec![(RouterId(2), 1)]);
        let out = r.handle(
            RouterId(99),
            Message::Hello {
                from: RouterId(99),
                seen: vec![],
            },
            SimTime::ZERO,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn self_originated_echo_bumps_sequence() {
        let mut r = LinkStateRouter::new(RouterId(1), vec![(RouterId(2), 1)]);
        // Bring the adjacency up.
        r.handle(
            RouterId(2),
            Message::Hello {
                from: RouterId(2),
                seen: vec![RouterId(1)],
            },
            SimTime::ZERO,
        );
        let stale = Lsa::new(RouterId(1), 50, vec![]);
        let out = r.handle(RouterId(2), Message::Flood(stale), SimTime::ZERO);
        // The router must re-originate with seq > 50.
        let reissued = out.iter().find_map(|(_, m)| match m {
            Message::Flood(l) if l.origin == RouterId(1) => Some(l.seq),
            _ => None,
        });
        assert!(reissued.unwrap() > 50);
    }

    #[test]
    fn rejoin_after_recovery() {
        let t = Topology::line(3);
        let mut h = Harness::from_topology(&t);
        h.settle();
        h.advance(SimDuration::from_secs(1));
        h.settle();
        assert!(h.router(0).reaches(RouterId(2)));

        // Router 1 "reboots": replace with a fresh instance (empty LSDB).
        let links: Vec<(RouterId, u32)> = t.neighbors(RouterId(1)).collect();
        h.routers
            .insert(RouterId(1), LinkStateRouter::new(RouterId(1), links));
        for _ in 0..3 {
            h.advance(SimDuration::from_secs(1));
            h.settle();
        }
        assert!(
            h.router(0).reaches(RouterId(2)),
            "recovered router must rejoin"
        );
        assert!(h.router(1).reaches(RouterId(0)));
        assert!(h.router(1).reaches(RouterId(2)));
    }
}
