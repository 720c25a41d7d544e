//! A BGP-fabric edge router: full RIB, proactive updates, no reactive
//! machinery (and no old-edge forwarding — traffic to a moved endpoint
//! blackholes until the sender's RIB converges, which is why Fig. 11's
//! proactive CDF sits an order of magnitude to the right).

use std::collections::BTreeMap;
use std::rc::Rc;

use sda_simnet::{Context, Node, NodeId};
use sda_types::{Eid, MacAddr, Rloc};

use crate::msg::{BgpDirectory, BgpHostEvent, BgpMsg};
use crate::rib::Rib;

/// Counters for scenario assertions.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct BgpEdgeStats {
    /// Packets delivered to locally attached endpoints.
    pub delivered: u64,
    /// Packets dropped: destination not local and RIB empty for it.
    pub no_route: u64,
    /// Packets dropped: RIB pointed here but the endpoint left
    /// (the mobility blackhole).
    pub blackholed: u64,
    /// Advertisements sent.
    pub advertised: u64,
    /// Route updates installed.
    pub installed: u64,
}

/// A proactive-control-plane edge.
pub struct BgpEdge {
    rloc: Rloc,
    dir: Rc<BgpDirectory>,
    rib: Rib,
    /// Locally attached endpoints: EID → present (keyed by IPv4 EID).
    local: BTreeMap<Eid, MacAddr>,
    by_mac: BTreeMap<MacAddr, Eid>,
    stats: BgpEdgeStats,
}

impl BgpEdge {
    /// Creates an edge serving `rloc`.
    pub fn new(rloc: Rloc, dir: Rc<BgpDirectory>) -> Self {
        BgpEdge {
            rloc,
            dir,
            rib: Rib::new(),
            local: BTreeMap::new(),
            by_mac: BTreeMap::new(),
            stats: BgpEdgeStats::default(),
        }
    }

    /// Counters.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> BgpEdgeStats {
        self.stats
    }
}

impl Node<BgpMsg> for BgpEdge {
    fn on_message(&mut self, ctx: &mut Context<'_, BgpMsg>, _from: NodeId, msg: BgpMsg) {
        match msg {
            BgpMsg::Host(BgpHostEvent::Attach { mac, ipv4 }) => {
                let eid = Eid::V4(ipv4);
                self.local.insert(eid, mac);
                self.by_mac.insert(mac, eid);
                self.stats.advertised += 1;
                // Matched AAA delay, then advertise to the reflector.
                ctx.send_after(
                    self.dir.config.auth_delay,
                    self.dir.reflector,
                    BgpMsg::Advertise {
                        eid,
                        rloc: self.rloc,
                    },
                );
            }
            BgpMsg::Host(BgpHostEvent::Detach { mac }) => {
                if let Some(eid) = self.by_mac.remove(&mac) {
                    self.local.remove(&eid);
                }
                // No withdraw: the re-advertisement from the new edge
                // supersedes the route, as in the paper's move test.
            }
            BgpMsg::Host(BgpHostEvent::Send { dst, flow, track }) => {
                if self.local.contains_key(&dst) {
                    self.deliver(ctx, dst, flow, track);
                    return;
                }
                match self.rib.lookup(dst) {
                    Some(rloc) if rloc != self.rloc => {
                        ctx.send(self.dir.node_of(rloc), BgpMsg::Data { dst, flow, track });
                    }
                    Some(_) => {
                        // RIB says "here" but the endpoint left.
                        self.stats.blackholed += 1;
                    }
                    None => {
                        self.stats.no_route += 1;
                    }
                }
            }
            BgpMsg::Data { dst, flow, track } => {
                if self.local.contains_key(&dst) {
                    self.deliver(ctx, dst, flow, track);
                } else {
                    // Proactive fabric: no onward forwarding machinery.
                    self.stats.blackholed += 1;
                    ctx.metrics().incr("bgp.blackholed");
                }
            }
            BgpMsg::Batch(updates) => {
                let cost = self
                    .dir
                    .config
                    .install_cost
                    .saturating_mul(updates.len() as u64);
                ctx.busy(cost);
                for u in updates {
                    if self.rib.install(u.eid, u.rloc, u.seq) {
                        self.stats.installed += 1;
                    }
                }
            }
            other => {
                debug_assert!(false, "edge received unexpected {other:?}");
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl BgpEdge {
    fn deliver(&mut self, ctx: &mut Context<'_, BgpMsg>, dst: Eid, flow: u64, track: bool) {
        self.stats.delivered += 1;
        ctx.metrics().incr("bgp.delivered");
        if track {
            let name = format!("deliver.{dst}");
            let now = ctx.now();
            ctx.metrics().record(&name, now, flow as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reflector::RouteReflector;
    use sda_simnet::{SimDuration, SimTime, Simulator};
    use std::net::Ipv4Addr;

    /// Builds a reflector + n edges; returns (sim, dir, edge node ids).
    fn build(n: usize, seed: u64) -> (Simulator<BgpMsg>, Rc<BgpDirectory>, Vec<NodeId>) {
        let mut node_of_rloc = BTreeMap::new();
        let reflector_id = NodeId(0);
        for i in 0..n {
            node_of_rloc.insert(Rloc::for_router_index(1 + i as u16), NodeId(1 + i as u32));
        }
        let dir = Rc::new(BgpDirectory {
            node_of_rloc,
            reflector: reflector_id,
            config: crate::msg::BgpConfig::default(),
        });
        let mut sim = Simulator::new(seed);
        let peers: Vec<Rloc> = (0..n)
            .map(|i| Rloc::for_router_index(1 + i as u16))
            .collect();
        let got = sim.add_node(Box::new(RouteReflector::new(dir.clone(), peers)));
        assert_eq!(got, reflector_id);
        let mut edges = Vec::new();
        for i in 0..n {
            let rloc = Rloc::for_router_index(1 + i as u16);
            edges.push(sim.add_node(Box::new(BgpEdge::new(rloc, dir.clone()))));
        }
        // Kick the reflector's flush timer.
        sim.arm_timer_at(SimTime::ZERO, reflector_id, 0);
        (sim, dir, edges)
    }

    fn edge(sim: &Simulator<BgpMsg>, id: NodeId) -> &BgpEdge {
        sim.node(id)
            .as_any()
            .unwrap()
            .downcast_ref::<BgpEdge>()
            .unwrap()
    }

    #[test]
    fn attach_floods_route_to_every_peer() {
        let (mut sim, _dir, edges) = build(4, 1);
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        sim.inject_at(
            SimTime::ZERO,
            edges[0],
            BgpMsg::Host(BgpHostEvent::Attach {
                mac: MacAddr::from_seed(1),
                ipv4: ip,
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        for (i, e) in edges.iter().enumerate() {
            assert_eq!(edge(&sim, *e).rib.len(), 1, "edge {i} must hold the route");
        }
    }

    #[test]
    fn delivery_follows_rib_and_blackholes_after_move() {
        let (mut sim, _dir, edges) = build(3, 2);
        let mac = MacAddr::from_seed(1);
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Eid::V4(ip);
        // Host on edge 1; converge.
        sim.inject_at(
            SimTime::ZERO,
            edges[1],
            BgpMsg::Host(BgpHostEvent::Attach { mac, ipv4: ip }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(200));
        // Edge 0 sends: delivered at edge 1.
        sim.inject_at(
            SimTime::ZERO + SimDuration::from_millis(210),
            edges[0],
            BgpMsg::Host(BgpHostEvent::Send {
                dst,
                flow: 1,
                track: false,
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(300));
        assert_eq!(edge(&sim, edges[1]).stats().delivered, 1);

        // Host moves to edge 2 but we stop before convergence: edge 0
        // still sends to edge 1 → blackhole.
        sim.inject_at(
            SimTime::ZERO + SimDuration::from_millis(310),
            edges[1],
            BgpMsg::Host(BgpHostEvent::Detach { mac }),
        );
        sim.inject_at(
            SimTime::ZERO + SimDuration::from_millis(311),
            edges[2],
            BgpMsg::Host(BgpHostEvent::Attach { mac, ipv4: ip }),
        );
        sim.inject_at(
            SimTime::ZERO + SimDuration::from_millis(312),
            edges[0],
            BgpMsg::Host(BgpHostEvent::Send {
                dst,
                flow: 2,
                track: false,
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(313));
        assert_eq!(
            edge(&sim, edges[1]).stats().blackholed,
            1,
            "pre-convergence drop"
        );

        // After convergence the same send reaches edge 2.
        sim.inject_at(
            SimTime::ZERO + SimDuration::from_millis(400),
            edges[0],
            BgpMsg::Host(BgpHostEvent::Send {
                dst,
                flow: 3,
                track: false,
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(500));
        assert_eq!(edge(&sim, edges[2]).stats().delivered, 1);
    }

    #[test]
    fn every_edge_carries_full_state() {
        // The proactive state cost: attach 50 hosts across 5 edges;
        // every edge ends with 50 routes.
        let (mut sim, _dir, edges) = build(5, 3);
        for i in 0..50u32 {
            let e = edges[(i % 5) as usize];
            sim.inject_at(
                SimTime::ZERO,
                e,
                BgpMsg::Host(BgpHostEvent::Attach {
                    mac: MacAddr::from_seed(i),
                    ipv4: Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                }),
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        for e in &edges {
            assert_eq!(edge(&sim, *e).rib.len(), 50);
        }
    }

    #[test]
    fn updates_arrive_staggered_across_peers() {
        // One move, many peers: install times must differ (the walk).
        let (mut sim, _dir, edges) = build(16, 4);
        sim.inject_at(
            SimTime::ZERO,
            edges[0],
            BgpMsg::Host(BgpHostEvent::Attach {
                mac: MacAddr::from_seed(1),
                ipv4: Ipv4Addr::new(10, 0, 0, 1),
            }),
        );
        // Run to completion; the point is stagger, checked via the
        // reflector's replication accounting.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("bgp.updates_replicated"), 16);
    }
}
