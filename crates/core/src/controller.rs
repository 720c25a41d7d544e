//! The fabric controller: the declarative operator interface of §3.1
//! ("define (i) an endpoint's group and VN, (ii) the endpoint
//! authentication data, (iii) the connectivity matrix") plus the
//! scenario builder that instantiates the whole system on the simulator.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::rc::Rc;

use sda_policy::{Action, AuthMethod, PolicyServer};
use sda_simnet::{Metrics, NodeId, SimDuration, SimTime, Simulator};
use sda_types::{Eid, GroupId, Ipv4Prefix, MacAddr, PortId, Rloc, VnId};
use sda_underlay::LinkStateRouter;

use crate::border::BorderRouter;
use crate::dhcp::DhcpPool;
use crate::edge::{underlay_id, EdgeRouter};
use crate::msg::{EndpointIdentity, FabricMsg, HostEvent};
use crate::servers::{Directory, FabricCounters, PolicyServerNode, RoutingServerNode};
use sda_policy::EnforcementPoint;

/// Fabric-wide behavior knobs, shared read-only by every node.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Where group policy is enforced (§5.3).
    pub enforcement: EnforcementPoint,
    /// Registration TTL sent in Map-Registers.
    pub register_ttl_secs: u32,
    /// Register the MAC EID alongside IPv4 (L2 services). Large mobility
    /// scenarios that only exercise L3 can disable it to halve
    /// registration load.
    pub register_mac: bool,
    /// Forward cache misses to the border (§3.2.2's default route).
    /// `false` drops the first packets of a flow instead — the ablation
    /// showing why the border sync exists.
    pub border_default_route: bool,
    /// Edge re-registration period (None = never refresh).
    pub refresh_interval: Option<SimDuration>,
    /// Map-cache eviction sweep period.
    pub eviction_interval: SimDuration,
    /// Map-cache idle decay: entries unused this long are dropped.
    pub idle_timeout: SimDuration,
    /// FIB-size sampling period (None = no sampling). Fig. 9's "hourly
    /// from the router CLI" collection.
    pub fib_sample_interval: Option<SimDuration>,
    /// Routing-server expiry sweep period (None = never purge).
    pub purge_interval: Option<SimDuration>,
    /// Map-server shards the routing server partitions EID space over
    /// (1 = the paper's single routing server).
    pub ctrl_shards: usize,
    /// Control-plane retransmit: the shortest retry delay for
    /// unacknowledged Map-Requests, Map-Registers and Subscribes. With
    /// `rtx_jitter` (the default) each delay is drawn uniformly from
    /// `[rtx_initial, min(3 × the previous delay, rtx_max_backoff)]`,
    /// the first with `rtx_initial` as the previous delay; without it
    /// the delay starts here and doubles per attempt up to
    /// `rtx_max_backoff`. Map-Requests and Map-Registers give up after
    /// six sends; border Subscribes retry without bound.
    pub rtx_initial: SimDuration,
    /// Cap on the retransmit backoff.
    pub rtx_max_backoff: SimDuration,
    /// Border re-subscribe period (None = subscribe once at start and
    /// only resync on detected gaps). A periodic resubscribe bounds how
    /// long a border can stay silently divergent after arbitrary loss.
    pub subscribe_refresh_interval: Option<SimDuration>,
    /// Decorrelated jitter on retransmit backoff (per-node deterministic
    /// stream). `false` restores the synchronized exponential schedule —
    /// the ablation showing why jitter exists.
    pub rtx_jitter: bool,
    /// Per-edge cap on each of its retry tables — concurrently
    /// resolving EIDs (the punt funnel's control-plane side) and unacked
    /// Map-Registers — and on its negative cache. Overflow evicts the
    /// oldest-deadline entry; the periodic refresh re-registers a
    /// dropped register.
    pub max_pending: usize,
    /// Per-node ingress queue bound (None = unbounded). Arrivals beyond
    /// the cap while the node's CPU is busy are tail-dropped.
    pub node_ingress_cap: Option<usize>,
    /// Routing-server admission control (None = serve everything).
    pub admission: Option<sda_ctrl::AdmissionConfig>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            enforcement: EnforcementPoint::Egress,
            register_ttl_secs: 2 * 3600,
            register_mac: true,
            border_default_route: true,
            refresh_interval: Some(SimDuration::from_mins(30)),
            eviction_interval: SimDuration::from_mins(10),
            idle_timeout: SimDuration::from_hours(20),
            fib_sample_interval: None,
            purge_interval: Some(SimDuration::from_mins(10)),
            ctrl_shards: 1,
            rtx_initial: SimDuration::from_millis(500),
            rtx_max_backoff: SimDuration::from_secs(8),
            subscribe_refresh_interval: None,
            rtx_jitter: true,
            max_pending: 4096,
            node_ingress_cap: None,
            admission: None,
        }
    }
}

/// Handle to an edge added to the builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdgeHandle(pub usize);

/// Handle to a border added to the builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BorderHandle(pub usize);

/// Builds a runnable [`Fabric`].
pub struct FabricBuilder {
    seed: u64,
    config: FabricConfig,
    policy: PolicyServer,
    dhcp: DhcpPool,
    edge_names: Vec<String>,
    border_names: Vec<String>,
    border_external: Vec<Vec<Ipv4Prefix>>,
    next_mac_seed: u32,
    underlay_dynamics: bool,
    /// VNs declared by [`FabricBuilder::add_vn`].
    vns: Vec<VnId>,
    /// Every minted endpoint's group, by IPv4 and MAC EID.
    dst_groups: BTreeMap<(VnId, Eid), GroupId>,
}

impl FabricBuilder {
    /// Starts a build with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FabricBuilder {
            seed,
            config: FabricConfig::default(),
            policy: PolicyServer::new(),
            dhcp: DhcpPool::new(),
            edge_names: Vec::new(),
            border_names: Vec::new(),
            border_external: Vec::new(),
            next_mac_seed: 1,
            underlay_dynamics: false,
            vns: Vec::new(),
            dst_groups: BTreeMap::new(),
        }
    }

    /// Mutable access to the behavior knobs.
    pub fn config_mut(&mut self) -> &mut FabricConfig {
        &mut self.config
    }

    /// Enables the live link-state underlay on every edge (hellos, LSAs,
    /// reachability fallback). Off by default: long campus runs don't
    /// need per-second protocol chatter.
    pub fn enable_underlay_dynamics(&mut self) -> &mut Self {
        self.underlay_dynamics = true;
        self
    }

    /// Declares a VN with its overlay subnet.
    pub fn add_vn(&mut self, raw: u32, subnet: Ipv4Prefix) -> VnId {
        let vn = VnId::new(raw).expect("VN id fits 24 bits");
        self.dhcp.add_pool(vn, subnet);
        self.vns.push(vn);
        vn
    }

    /// Allows `src → dst` (one direction) in `vn`.
    pub fn allow(&mut self, vn: VnId, src: GroupId, dst: GroupId) -> &mut Self {
        self.policy
            .matrix_mut()
            .set_rule(vn, src, dst, Action::Allow);
        self
    }

    /// Denies `src → dst` explicitly in `vn`.
    pub fn deny(&mut self, vn: VnId, src: GroupId, dst: GroupId) -> &mut Self {
        self.policy
            .matrix_mut()
            .set_rule(vn, src, dst, Action::Deny);
        self
    }

    /// Adds an edge router.
    pub fn add_edge(&mut self, name: impl Into<String>) -> EdgeHandle {
        self.edge_names.push(name.into());
        EdgeHandle(self.edge_names.len() - 1)
    }

    /// Adds a border router with its external prefixes.
    pub fn add_border(
        &mut self,
        name: impl Into<String>,
        external: Vec<Ipv4Prefix>,
    ) -> BorderHandle {
        self.border_names.push(name.into());
        self.border_external.push(external);
        BorderHandle(self.border_names.len() - 1)
    }

    /// Mints a new endpoint in `vn`/`group`: allocates its overlay IP,
    /// enrolls its credential, returns its identity for attach events.
    pub fn mint_endpoint(&mut self, vn: VnId, group: GroupId) -> EndpointIdentity {
        let seed = self.next_mac_seed;
        self.next_mac_seed += 1;
        let mac = MacAddr::from_seed(seed);
        let ipv4 = self
            .dhcp
            .allocate(vn)
            .expect("overlay pool exhausted or VN undeclared");
        let secret = u64::from(seed) * 7919;
        self.policy
            .enroll(mac, secret, vn, group, AuthMethod::Simple);
        // Keep the §5.3 oracle in sync for ingress-mode ablations.
        self.dst_groups.insert((vn, Eid::V4(ipv4)), group);
        self.dst_groups.insert((vn, Eid::Mac(mac)), group);
        EndpointIdentity { mac, ipv4, secret }
    }

    /// RLOC assignment: edges at indices 1…, borders at 30000…, routing
    /// server at 65000.
    fn edge_rloc(i: usize) -> Rloc {
        Rloc::for_router_index(1 + i as u16)
    }

    fn border_rloc(i: usize) -> Rloc {
        Rloc::for_router_index(30_000 + i as u16)
    }

    const ROUTING_RLOC: Rloc = Rloc(Ipv4Addr::new(10, 255, 253, 232)); // index 65000

    /// One-way latency of every fabric link.
    const LINK_LATENCY: SimDuration = SimDuration::from_micros(50);

    /// Instantiates the simulator, nodes and wiring.
    ///
    /// # Panics
    /// Panics if no border router was added (the design requires the
    /// default-route target).
    pub fn build(self) -> Fabric {
        assert!(
            !self.border_names.is_empty(),
            "SDA requires at least one border router (default-route target)"
        );
        let mut sim: Simulator<FabricMsg> = Simulator::new(self.seed);
        sim.set_default_latency(Self::LINK_LATENCY);

        // Node ids are assigned in add order: policy, routing, borders,
        // edges.
        let policy_id = NodeId(0);
        let routing_id = NodeId(1);
        let mut node_of_rloc = HashMap::default();
        node_of_rloc.insert(Self::ROUTING_RLOC, routing_id);
        for i in 0..self.border_names.len() {
            node_of_rloc.insert(Self::border_rloc(i), NodeId(2 + i as u32));
        }
        let first_edge = 2 + self.border_names.len() as u32;
        for i in 0..self.edge_names.len() {
            node_of_rloc.insert(Self::edge_rloc(i), NodeId(first_edge + i as u32));
        }

        let dir = Rc::new(Directory {
            node_of_rloc,
            routing_server: routing_id,
            routing_server_rloc: Self::ROUTING_RLOC,
            policy_server: policy_id,
            border_rloc: Self::border_rloc(0),
            params: self.config.clone(),
            vns: self.vns,
            dst_groups: self.dst_groups,
            counters: FabricCounters::resolve(sim.metrics_mut()),
        });

        let got_policy = sim.add_node(Box::new(PolicyServerNode::new(self.policy, dir.clone())));
        assert_eq!(got_policy, policy_id);
        let mut rs =
            sda_ctrl::PartitionedMapServer::new(Self::ROUTING_RLOC, self.config.ctrl_shards);
        rs.set_admission(self.config.admission);
        let got_routing = sim.add_node(Box::new(RoutingServerNode::new(rs, dir.clone())));
        assert_eq!(got_routing, routing_id);

        let mut borders = Vec::new();
        for (i, name) in self.border_names.iter().enumerate() {
            let mut border = BorderRouter::new(name.clone(), Self::border_rloc(i), dir.clone());
            for p in &self.border_external[i] {
                border.add_external(*p);
            }
            let id = sim.add_node(Box::new(border));
            borders.push(id);
        }

        // Fabric routers that participate in the underlay protocol see a
        // full mesh of links to the other fabric routers.
        let all_fabric_rlocs: Vec<Rloc> = (0..self.edge_names.len())
            .map(Self::edge_rloc)
            .chain((0..self.border_names.len()).map(Self::border_rloc))
            .collect();

        let mut edges = Vec::new();
        for (i, name) in self.edge_names.iter().enumerate() {
            let rloc = Self::edge_rloc(i);
            let mut edge = EdgeRouter::new(name.clone(), rloc, dir.clone());
            if self.underlay_dynamics {
                let me = underlay_id(rloc);
                let links = all_fabric_rlocs
                    .iter()
                    .filter(|r| **r != rloc)
                    .map(|r| underlay_id(*r));
                edge = edge.with_underlay(LinkStateRouter::new(me, links));
            }
            let id = sim.add_node(Box::new(edge));
            edges.push(id);
        }

        // Bounded ingress: apply the per-node queue cap to every fabric
        // node (servers included — the storm hits them hardest).
        if let Some(cap) = dir.params.node_ingress_cap {
            sim.set_ingress_cap(policy_id, cap);
            sim.set_ingress_cap(routing_id, cap);
            for id in borders.iter().chain(edges.iter()) {
                sim.set_ingress_cap(*id, cap);
            }
        }

        // Kick timers: border subscription at t=0, edge timers at t=0.
        for b in &borders {
            sim.arm_timer_at(SimTime::ZERO, *b, 0);
        }
        for e in &edges {
            sim.arm_timer_at(SimTime::ZERO, *e, 0);
        }
        if dir.params.purge_interval.is_some() {
            sim.arm_timer_at(SimTime::ZERO, routing_id, 0);
        }

        Fabric {
            sim,
            dir,
            policy: policy_id,
            routing: routing_id,
            borders,
            edges,
        }
    }
}

/// A built, runnable fabric.
pub struct Fabric {
    sim: Simulator<FabricMsg>,
    dir: Rc<Directory>,
    policy: NodeId,
    routing: NodeId,
    borders: Vec<NodeId>,
    edges: Vec<NodeId>,
}

impl Fabric {
    /// Schedules an endpoint attach at `at`.
    pub fn attach_at(
        &mut self,
        at: SimTime,
        edge: EdgeHandle,
        endpoint: EndpointIdentity,
        port: PortId,
    ) {
        let vn = VnId::DEFAULT; // informational; binding comes from policy
        self.sim.inject_at(
            at,
            self.edges[edge.0],
            FabricMsg::Host(HostEvent::Attach { endpoint, port, vn }),
        );
    }

    /// Schedules an endpoint detach at `at`.
    pub fn detach_at(&mut self, at: SimTime, edge: EdgeHandle, mac: MacAddr) {
        self.sim.inject_at(
            at,
            self.edges[edge.0],
            FabricMsg::Host(HostEvent::Detach { mac }),
        );
    }

    /// Schedules a packet send from an endpoint attached at `edge`.
    #[allow(clippy::too_many_arguments)]
    pub fn send_at(
        &mut self,
        at: SimTime,
        edge: EdgeHandle,
        src_mac: MacAddr,
        dst: Eid,
        payload_len: u16,
        flow: u64,
        track: bool,
    ) {
        self.sim.inject_at(
            at,
            self.edges[edge.0],
            FabricMsg::Host(HostEvent::Send {
                src_mac,
                dst,
                payload_len,
                flow,
                track,
            }),
        );
    }

    /// Schedules an ARP broadcast from an endpoint.
    pub fn arp_at(&mut self, at: SimTime, edge: EdgeHandle, src_mac: MacAddr, target_ip: Ipv4Addr) {
        self.sim.inject_at(
            at,
            self.edges[edge.0],
            FabricMsg::Host(HostEvent::ArpRequest { src_mac, target_ip }),
        );
    }

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Raw simulator access (advanced scenarios).
    pub fn sim_mut(&mut self) -> &mut Simulator<FabricMsg> {
        &mut self.sim
    }

    /// The directory (wiring + parameters).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Inspects an edge router after/during a run.
    pub fn edge(&self, h: EdgeHandle) -> &EdgeRouter {
        self.sim
            .node(self.edges[h.0])
            .as_any()
            .and_then(|a| a.downcast_ref::<EdgeRouter>())
            .expect("edge handle maps to an EdgeRouter")
    }

    /// Inspects a border router.
    pub fn border(&self, h: BorderHandle) -> &BorderRouter {
        self.sim
            .node(self.borders[h.0])
            .as_any()
            .and_then(|a| a.downcast_ref::<BorderRouter>())
            .expect("border handle maps to a BorderRouter")
    }

    /// Inspects the routing server.
    pub fn routing_server(&self) -> &RoutingServerNode {
        self.sim
            .node(self.routing)
            .as_any()
            .and_then(|a| a.downcast_ref::<RoutingServerNode>())
            .expect("routing node")
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of borders.
    pub fn border_count(&self) -> usize {
        self.borders.len()
    }

    /// Simulator node of an edge — for authoring [`sda_simnet::FaultPlan`]s.
    pub fn edge_node(&self, h: EdgeHandle) -> NodeId {
        self.edges[h.0]
    }

    /// Simulator node of a border.
    pub fn border_node(&self, h: BorderHandle) -> NodeId {
        self.borders[h.0]
    }

    /// Simulator node of the routing server.
    pub fn routing_node(&self) -> NodeId {
        self.routing
    }

    /// Simulator node of the policy server.
    pub fn policy_node(&self) -> NodeId {
        self.policy
    }

    /// Schedules a chaos plan against the fabric (see
    /// [`sda_simnet::FaultPlan`]).
    pub fn schedule_faults(&mut self, plan: &sda_simnet::FaultPlan) {
        self.sim.schedule_faults(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_types::Eid;

    fn two_edge_fabric() -> (
        Fabric,
        EdgeHandle,
        EdgeHandle,
        BorderHandle,
        VnId,
        EndpointIdentity,
        EndpointIdentity,
    ) {
        let mut b = FabricBuilder::new(42);
        let vn = b.add_vn(
            100,
            Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
        );
        let users = GroupId(10);
        b.allow(vn, users, users);
        let e1 = b.add_edge("edge1");
        let e2 = b.add_edge("edge2");
        let border = b.add_border(
            "border",
            vec![Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0).unwrap()],
        );
        let alice = b.mint_endpoint(vn, users);
        let bob = b.mint_endpoint(vn, users);
        (b.build(), e1, e2, border, vn, alice, bob)
    }

    #[test]
    fn onboarding_registers_and_delivers_cross_edge() {
        let (mut f, e1, e2, _bh, _vn, alice, bob) = two_edge_fabric();
        f.attach_at(SimTime::ZERO, e1, alice, PortId(1));
        f.attach_at(SimTime::ZERO, e2, bob, PortId(1));
        f.run_until(SimTime::from_nanos(100_000_000)); // 100 ms

        assert_eq!(f.edge(e1).stats().onboarded, 1);
        assert_eq!(f.edge(e2).stats().onboarded, 1);
        assert_eq!(
            f.routing_server().server().db_len(),
            4,
            "2 endpoints × 2 EIDs"
        );

        // First packet: cache miss → default route via border; resolution
        // follows; second packet goes direct.
        let t1 = SimTime::from_nanos(200_000_000);
        f.send_at(t1, e1, alice.mac, Eid::V4(bob.ipv4), 100, 1, false);
        let t2 = SimTime::from_nanos(400_000_000);
        f.send_at(t2, e1, alice.mac, Eid::V4(bob.ipv4), 100, 2, false);
        f.run_until(SimTime::from_nanos(600_000_000));

        let e1s = f.edge(e1).stats();
        let e2s = f.edge(e2).stats();
        assert_eq!(e1s.default_routed, 1, "first packet border-routed");
        assert_eq!(e1s.map_requests, 1);
        assert_eq!(e2s.delivered, 2, "both packets delivered");
        assert_eq!(f.border(_bh).stats().relayed, 1, "border relayed the first");
        assert_eq!(f.edge(e1).fib_len(), 1, "one cached mapping");
    }

    #[test]
    fn policy_denies_unauthorized_group_traffic() {
        let mut b = FabricBuilder::new(7);
        let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
        let users = GroupId(10);
        let iot = GroupId(20);
        b.allow(vn, users, users);
        // No rule users→iot: default deny.
        let e1 = b.add_edge("e1");
        let e2 = b.add_edge("e2");
        let bh = b.add_border("border", vec![]);
        let user = b.mint_endpoint(vn, users);
        let sensor = b.mint_endpoint(vn, iot);
        let mut f = b.build();
        let _ = bh;

        f.attach_at(SimTime::ZERO, e1, user, PortId(1));
        f.attach_at(SimTime::ZERO, e2, sensor, PortId(1));
        f.run_until(SimTime::from_nanos(100_000_000));

        // user → sensor must drop at egress (e2).
        f.send_at(
            SimTime::from_nanos(200_000_000),
            e1,
            user.mac,
            Eid::V4(sensor.ipv4),
            64,
            1,
            false,
        );
        f.run_until(SimTime::from_nanos(400_000_000));
        assert_eq!(f.edge(e2).stats().policy_drops, 1);
        assert_eq!(f.edge(e2).stats().delivered, 0);
    }

    #[test]
    fn vn_isolation_is_structural() {
        let mut b = FabricBuilder::new(9);
        let vn_a = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
        let vn_b = b.add_vn(2, Ipv4Prefix::new(Ipv4Addr::new(10, 2, 0, 0), 16).unwrap());
        let g = GroupId(1);
        b.allow(vn_a, g, g);
        b.allow(vn_b, g, g);
        let e1 = b.add_edge("e1");
        let e2 = b.add_edge("e2");
        b.add_border("border", vec![]);
        let a = b.mint_endpoint(vn_a, g);
        let bb = b.mint_endpoint(vn_b, g);
        let mut f = b.build();

        f.attach_at(SimTime::ZERO, e1, a, PortId(1));
        f.attach_at(SimTime::ZERO, e2, bb, PortId(1));
        f.run_until(SimTime::from_nanos(100_000_000));

        // a (VN 1) → bb's address: lookup happens inside VN 1 where bb
        // is not registered → never delivered.
        f.send_at(
            SimTime::from_nanos(200_000_000),
            e1,
            a.mac,
            Eid::V4(bb.ipv4),
            64,
            1,
            false,
        );
        f.run_until(SimTime::from_nanos(500_000_000));
        assert_eq!(f.edge(e2).stats().delivered, 0);
        assert_eq!(f.border(BorderHandle(0)).stats().unroutable, 1);
    }

    #[test]
    fn same_edge_traffic_stays_local() {
        let (mut f, e1, _e2, bh, _vn, alice, bob) = two_edge_fabric();
        f.attach_at(SimTime::ZERO, e1, alice, PortId(1));
        f.attach_at(SimTime::ZERO, e1, bob, PortId(2));
        f.run_until(SimTime::from_nanos(100_000_000));
        f.send_at(
            SimTime::from_nanos(200_000_000),
            e1,
            alice.mac,
            Eid::V4(bob.ipv4),
            64,
            1,
            false,
        );
        f.run_until(SimTime::from_nanos(300_000_000));
        let s = f.edge(e1).stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.default_routed, 0, "no fabric transit for local traffic");
        assert_eq!(f.border(bh).stats().relayed, 0);
    }

    #[test]
    fn mobility_forwarding_and_smr_refresh() {
        let mut b = FabricBuilder::new(42);
        let vn = b.add_vn(
            100,
            Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
        );
        let users = GroupId(10);
        b.allow(vn, users, users);
        let e1 = b.add_edge("edge1");
        let e2 = b.add_edge("edge2");
        let e3 = b.add_edge("edge3");
        b.add_border("border", vec![]);
        let alice = b.mint_endpoint(vn, users);
        let bob = b.mint_endpoint(vn, users);
        let mut f = b.build();

        // bob on e2, alice on e1; alice talks to bob, e1's cache warms.
        f.attach_at(SimTime::ZERO, e1, alice, PortId(1));
        f.attach_at(SimTime::ZERO, e2, bob, PortId(1));
        f.run_until(SimTime::from_nanos(100_000_000));
        f.send_at(
            SimTime::from_nanos(200_000_000),
            e1,
            alice.mac,
            Eid::V4(bob.ipv4),
            64,
            1,
            false,
        );
        f.run_until(SimTime::from_nanos(300_000_000));
        assert_eq!(f.edge(e1).fib_len(), 1, "cache warmed");

        // bob roams e2 → e3. The routing server Map-Notifies e2 (Fig. 5).
        f.detach_at(SimTime::from_nanos(310_000_000), e2, bob.mac);
        f.attach_at(SimTime::from_nanos(320_000_000), e3, bob, PortId(9));
        f.run_until(SimTime::from_nanos(400_000_000));

        // alice sends with her stale cache entry (→ e2): e2 forwards to
        // e3 (Fig. 5 step 3 / Fig. 6 step 3) and SMRs e1 (Fig. 6 step 2).
        f.send_at(
            SimTime::from_nanos(410_000_000),
            e1,
            alice.mac,
            Eid::V4(bob.ipv4),
            64,
            2,
            false,
        );
        f.run_until(SimTime::from_nanos(600_000_000));
        assert_eq!(f.edge(e3).stats().delivered, 1, "packet followed the move");
        assert_eq!(
            f.edge(e2).stats().mobility_forwards,
            1,
            "old edge forwarded"
        );
        assert_eq!(f.edge(e2).stats().smrs_sent, 1, "old edge SMR'd the source");

        // After the SMR-triggered re-resolution, alice's edge sends
        // directly to e3 — no more forwarding through e2.
        f.send_at(
            SimTime::from_nanos(700_000_000),
            e1,
            alice.mac,
            Eid::V4(bob.ipv4),
            64,
            3,
            false,
        );
        f.run_until(SimTime::from_nanos(900_000_000));
        assert_eq!(f.edge(e3).stats().delivered, 2);
        assert_eq!(f.edge(e2).stats().mobility_forwards, 1, "no second detour");
    }

    #[test]
    fn arp_broadcast_converted_to_unicast() {
        let (mut f, e1, e2, _bh, _vn, alice, bob) = two_edge_fabric();
        f.attach_at(SimTime::ZERO, e1, alice, PortId(1));
        f.attach_at(SimTime::ZERO, e2, bob, PortId(1));
        f.run_until(SimTime::from_nanos(100_000_000));
        f.arp_at(SimTime::from_nanos(200_000_000), e1, alice.mac, bob.ipv4);
        f.run_until(SimTime::from_nanos(400_000_000));
        assert!(f.edge(e1).stats().arp_converted >= 1);
        assert_eq!(f.metrics().counter("fabric.arp_converted"), 1);
        // The unicast L2 packet reached bob's edge.
        assert!(f.edge(e2).stats().delivered >= 1);
    }

    #[test]
    fn arp_for_a_host_on_the_same_edge_is_answered_there_and_counted() {
        let (mut f, e1, _e2, _bh, _vn, alice, bob) = two_edge_fabric();
        f.attach_at(SimTime::ZERO, e1, alice, PortId(1));
        f.attach_at(SimTime::ZERO, e1, bob, PortId(2));
        f.run_until(SimTime::from_nanos(100_000_000));
        f.arp_at(SimTime::from_nanos(200_000_000), e1, alice.mac, bob.ipv4);
        f.run_until(SimTime::from_nanos(400_000_000));
        // Stat and fabric counter agree, as on the remote path.
        assert_eq!(f.edge(e1).stats().arp_converted, 1);
        assert_eq!(f.metrics().counter("fabric.arp_converted"), 1);
    }
}
