//! The link-state protocol state machine: hellos, adjacency tracking,
//! LSA flooding and the reachability watch.

use std::collections::{BTreeMap, BTreeSet};

use sda_simnet::{SimDuration, SimTime};
use sda_types::RouterId;

use crate::lsdb::{Lsa, Lsdb};

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

/// Hello transmission interval (OSPF-ish timers, scaled down for
/// campus convergence tests).
const HELLO_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Adjacency declared dead after this silence.
const DEAD_INTERVAL: SimDuration = SimDuration::from_secs(4);

/// Per-neighbor adjacency state.
#[derive(Clone, Copy, Debug)]
struct Adjacency {
    up: bool,
    last_hello: SimTime,
}

/// A link-state router instance.
pub struct LinkStateRouter {
    id: RouterId,
    /// Configured local links (physical wiring), regardless of liveness.
    configured: BTreeSet<RouterId>,
    adjacencies: BTreeMap<RouterId, Adjacency>,
    lsdb: Lsdb,
    seq: u64,
    last_hello_tx: Option<SimTime>,
    /// The reachable set as of the previous [`LinkStateRouter::lost`].
    reached: BTreeSet<RouterId>,
}

/// Messages to transmit: `(neighbor, message)` pairs.
pub(crate) type Outbox = Vec<(RouterId, Message)>;

impl LinkStateRouter {
    /// Creates a router with its configured local links.
    pub fn new(id: RouterId, links: impl IntoIterator<Item = RouterId>) -> Self {
        LinkStateRouter {
            id,
            configured: links.into_iter().collect(),
            adjacencies: BTreeMap::new(),
            lsdb: Lsdb::default(),
            seq: 0,
            last_hello_tx: None,
            reached: BTreeSet::new(),
        }
    }

    /// This router's id.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// The routers that dropped out of this router's reachable set
    /// since the previous call, ascending (§5.1's reachability watch:
    /// the caller purges routes through each). The first call compares
    /// against an empty set, so it reports nothing.
    pub fn lost(&mut self) -> Vec<RouterId> {
        let reach = self.lsdb.reachable(self.id);
        let lost = self.reached.difference(&reach).copied().collect();
        self.reached = reach;
        lost
    }

    /// Live (up) adjacencies.
    fn live_links(&self) -> Vec<RouterId> {
        self.adjacencies
            .iter()
            .filter(|(_, a)| a.up)
            .map(|(n, _)| *n)
            .collect()
    }

    fn originate(&mut self) -> Outbox {
        self.seq += 1;
        let lsa = Lsa::new(self.id, self.seq, self.live_links());
        self.lsdb.install(lsa.clone());
        self.flood_to_all(&lsa)
    }

    fn flood_to_all(&self, lsa: &Lsa) -> Outbox {
        self.adjacencies
            .iter()
            .filter(|(_, a)| a.up)
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
            if adj.up && now.saturating_since(adj.last_hello) >= DEAD_INTERVAL {
                adj.up = false;
                changed = true;
            }
        }

        // Hellos to every configured neighbor (up or not — that's how a
        // recovered neighbor is re-discovered).
        if self
            .last_hello_tx
            .is_none_or(|t| now.saturating_since(t) >= HELLO_INTERVAL)
        {
            self.last_hello_tx = Some(now);
            let (from, live) = (self.id, self.live_links());
            for n in &self.configured {
                let seen = live.clone();
                out.push((*n, Message::Hello { from, seen }));
            }
        }

        if changed {
            out.extend(self.originate());
        }
        out
    }

    /// Handles a protocol message received from direct neighbor `from`.
    pub fn handle(&mut self, from: RouterId, msg: Message, now: SimTime) -> Outbox {
        match msg {
            Message::Hello { from, seen } => {
                if !self.configured.contains(&from) {
                    return Outbox::new(); // hello from a non-neighbor
                }
                let adj = self.adjacencies.entry(from).or_insert(Adjacency {
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
                    let mut out = self.originate();
                    out.extend(self.lsdb.iter().map(|l| (from, Message::Flood(l.clone()))));
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
                        return self.originate();
                    }
                    return Outbox::new();
                }
                if self.lsdb.install(lsa.clone()) {
                    // Changed: flood onward (split horizon is best-effort;
                    // seq numbers stop loops regardless).
                    return self.flood_to_all(&lsa);
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
    fn reaches(&self, dst: RouterId) -> bool {
        self.lsdb.reachable(self.id).contains(&dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Synchronous harness: runs routers to quiescence, delivering
    /// messages breadth-first with zero latency.
    struct Harness {
        routers: BTreeMap<RouterId, LinkStateRouter>,
        now: SimTime,
    }

    /// The configured neighbours of each router, from undirected links.
    fn wiring(links: &[(u32, u32)]) -> BTreeMap<RouterId, BTreeSet<RouterId>> {
        let mut w: BTreeMap<RouterId, BTreeSet<RouterId>> = BTreeMap::new();
        for (a, b) in links {
            w.entry(RouterId(*a)).or_default().insert(RouterId(*b));
            w.entry(RouterId(*b)).or_default().insert(RouterId(*a));
        }
        w
    }

    impl Harness {
        fn new(links: &[(u32, u32)]) -> Self {
            let routers = wiring(links)
                .into_iter()
                .map(|(r, ns)| (r, LinkStateRouter::new(r, ns)))
                .collect();
            Harness {
                now: SimTime::ZERO,
                routers,
            }
        }

        /// `rounds` times: one tick on every router, deliver until
        /// quiet, then advance the clock one second.
        fn run(&mut self, rounds: u32) {
            for _ in 0..rounds {
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
                self.now += SimDuration::from_secs(1);
            }
        }

        fn router(&self, id: u32) -> &LinkStateRouter {
            &self.routers[&RouterId(id)]
        }

        fn router_mut(&mut self, id: u32) -> &mut LinkStateRouter {
            self.routers.get_mut(&RouterId(id)).unwrap()
        }
    }

    #[test]
    fn full_mesh_converges_after_two_rounds() {
        // Spine-leaf: spines 0 and 1, every leaf 2..6 wired to both.
        let links: Vec<(u32, u32)> = (0..2).flat_map(|s| (2..6).map(move |l| (s, l))).collect();
        let mut h = Harness::new(&links);
        h.run(2); // adjacencies come up, LSAs flood, steady state
        for r in 0..6 {
            for dst in 0..6 {
                assert!(h.router(r).reaches(RouterId(dst)), "{r} must reach {dst}");
            }
        }
    }

    #[test]
    fn dead_interval_tears_down_and_lost_reports_once() {
        // Square: 0-1, 1-3, 0-2, 2-3.
        let mut h = Harness::new(&[(0, 1), (1, 3), (0, 2), (2, 3)]);
        h.run(2);
        assert!(h.router(0).reaches(RouterId(3)));
        assert!(h.router_mut(0).lost().is_empty(), "nothing lost yet");

        // Kill router 1: remove it from the harness so it neither hellos
        // nor floods; after the dead interval others expire it.
        h.routers.remove(&RouterId(1));
        h.run(6);
        assert_eq!(h.router_mut(0).lost(), vec![RouterId(1)]);
        assert!(h.router_mut(0).lost().is_empty(), "a loss is reported once");
        assert!(h.router(0).reaches(RouterId(3)), "3 stays reachable via 2");
    }

    #[test]
    fn lost_reports_each_drop_once_and_not_the_return() {
        // Line 0-1-2: router 2 goes, comes back, goes again.
        let line = [(0, 1), (1, 2)];
        let mut h = Harness::new(&line);
        h.run(2);
        assert!(h.router_mut(0).lost().is_empty());

        h.routers.remove(&RouterId(2));
        h.run(6);
        assert_eq!(h.router_mut(0).lost(), vec![RouterId(2)]);
        assert!(h.router_mut(0).lost().is_empty(), "stable: no repeat");

        let links = wiring(&line).remove(&RouterId(2)).unwrap();
        h.routers
            .insert(RouterId(2), LinkStateRouter::new(RouterId(2), links));
        h.run(3);
        assert!(h.router(0).reaches(RouterId(2)));
        assert!(h.router_mut(0).lost().is_empty(), "a return is no loss");

        h.routers.remove(&RouterId(2));
        h.run(6);
        assert_eq!(h.router_mut(0).lost(), vec![RouterId(2)]);
    }

    #[test]
    fn lost_lists_only_the_routers_cut_off() {
        // Line 0-1-2-3: losing 2 cuts off 3 too, while 1 stays.
        let mut h = Harness::new(&[(0, 1), (1, 2), (2, 3)]);
        h.run(2);
        assert!(h.router_mut(0).lost().is_empty());

        h.routers.remove(&RouterId(2));
        h.run(6);
        assert_eq!(h.router_mut(0).lost(), vec![RouterId(2), RouterId(3)]);
        assert!(h.router(0).reaches(RouterId(1)));
    }

    #[test]
    fn hello_from_stranger_ignored() {
        let mut r = LinkStateRouter::new(RouterId(1), [RouterId(2)]);
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
        let mut r = LinkStateRouter::new(RouterId(1), [RouterId(2)]);
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
        let line = [(0, 1), (1, 2)];
        let mut h = Harness::new(&line);
        h.run(2);
        assert!(h.router(0).reaches(RouterId(2)));

        // Router 1 "reboots": replace with a fresh instance (empty LSDB).
        let links = wiring(&line).remove(&RouterId(1)).unwrap();
        h.routers
            .insert(RouterId(1), LinkStateRouter::new(RouterId(1), links));
        h.run(3);
        assert!(
            h.router(0).reaches(RouterId(2)),
            "recovered router must rejoin"
        );
        assert!(h.router(1).reaches(RouterId(0)));
        assert!(h.router(1).reaches(RouterId(2)));
    }
}
