//! The edge router node: the §3.3 "Edge Routers" functions.
//!
//! 1. Encap/decap endpoint traffic — through this node's own
//!    [`sda_dataplane::Switch`], on real bytes. The node composes each
//!    endpoint `Send` event into an Ethernet frame
//!    ([`pipeline::compose_host_frame`]), runs the engine's
//!    ingress/egress batch pipeline, and transmits the rewritten
//!    buffers as [`FabricMsg::Data`] byte packets. The engine makes
//!    every forwarding decision; the node's job is the control plane
//!    around it.
//! 2. Inter-VN isolation (the switch's VRF tables keyed by VN).
//! 3. Roaming detection and location registration.
//! 4. Group-permission enforcement (in the switch's ACL stage).
//!
//! Punt-driven control: the engine queues [`Punt`]s —
//! Map-Requests for misses and stale refreshes, data-triggered SMRs for
//! departed endpoints (Fig. 6) — and this node drains them after every
//! burst ([`Switch::drain_punts_into`]), deduplicating Map-Requests
//! through its in-flight `resolving` set and rate-limiting SMRs through
//! the [`SmrTracker`], then emits the actual LISP messages.
//!
//! Plus the lessons-learned machinery: default-route fallback while a
//! resolution is in flight (§3.2.2), reboot recovery (§5.2), and
//! underlay-reachability fallback (§5.1).
//!
//! §5.1's watch: with underlay dynamics on, the node runs a
//! [`LinkStateRouter`] with a link to every other fabric router. After
//! each underlay tick and message it asks the router which routers it
//! [`lost`](LinkStateRouter::lost) and purges the map-cache routes
//! through each lost RLOC (`fabric.reachability_purges`), so traffic to
//! those EIDs rides the border's default route until it re-resolves.
//! Faults reach the node only through the simulator's `FaultPlan`: a
//! crash drops its deliveries (its timers re-arm but do no work), and a
//! restart runs the §5.2 recovery with a fresh underlay instance.
//!
//! The historical structured decision pipeline survives only as the
//! differential oracle in [`crate::pipeline`]; this node no longer
//! calls it on the data path.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use sda_dataplane::{PacketBuf, Punt, Switch, SwitchConfig, SwitchStats, Verdict};
use sda_lisp::SmrTracker;
use sda_simnet::{Context, CounterId, FaultEvent, Metrics, Node, NodeId, SimDuration, SimTime};
use sda_types::{Eid, EidKind, GroupId, MacAddr, PortId, Rloc, VnId};
use sda_underlay::LinkStateRouter;
use sda_wire::lisp::{BusyClass, Message as Lisp};

use crate::backoff::{Backoff, Retries};
use crate::msg::{ArpMsg, EndpointIdentity, FabricMsg, HostEvent, PolicyMsg};
use crate::pipeline;
use crate::servers::Directory;
use sda_dataplane::LocalEndpoint;
use sda_policy::EnforcementPoint;

/// Timer tokens.
const TIMER_EVICT: u64 = 1;
/// FIB sampling, on edges and borders alike (see [`sample_fib`]).
pub(crate) const TIMER_FIB_SAMPLE: u64 = 2;
const TIMER_UNDERLAY: u64 = 3;
const TIMER_REFRESH: u64 = 4;
/// Retransmit sweep for unanswered Map-Requests/Registers. Lazily
/// armed only while something is pending, so lossless runs never see
/// it fire.
const TIMER_RETRY: u64 = 5;

/// Underlay protocol tick (only with dynamics enabled).
const UNDERLAY_TICK: SimDuration = SimDuration::from_secs(1);
/// Per-packet cost of fabric data on the edge (tiny: ASIC path).
const DATA_SERVICE: SimDuration = SimDuration::from_nanos(500);
/// Per-message cost of control traffic on the edge.
const CONTROL_SERVICE: SimDuration = SimDuration::from_micros(50);
/// Send budget per Map-Request and Map-Register (initial send included).
/// Exhausting it gives the entry up, so nothing stays pending forever.
const MAX_ATTEMPTS: u32 = 6;
/// How long an EID whose resolution spent its budget stays in the
/// negative cache: fresh punts for it are ignored this long.
const NEGATIVE_HOLD: SimDuration = SimDuration::from_secs(2);

/// A pending attach awaiting authentication.
struct PendingAttach {
    endpoint: EndpointIdentity,
    port: PortId,
    started: SimTime,
}

/// Counters a scenario can read back after the run.
#[derive(Clone, Copy, Default, Debug)]
pub struct EdgeStats {
    /// Packets handed to locally attached endpoints.
    pub delivered: u64,
    /// Egress policy drops.
    pub policy_drops: u64,
    /// Packets forwarded to the border on cache miss (default route).
    pub default_routed: u64,
    /// Packets forwarded onward for a moved endpoint (Fig. 5 step 3).
    pub mobility_forwards: u64,
    /// Packets dropped because the hop budget ran out (§5.2 transient
    /// loops).
    pub hop_exhausted: u64,
    /// Packets from unknown (unauthenticated) senders.
    pub unknown_source: u64,
    /// Packets dropped on cache miss with the border default route
    /// disabled (§3.2.2 ablation).
    pub first_packet_drops: u64,
    /// Map-Requests sent.
    pub map_requests: u64,
    /// SMRs sent (Fig. 6 step 2).
    pub smrs_sent: u64,
    /// Completed onboardings.
    pub onboarded: u64,
    /// ARP broadcasts converted to unicast (§3.5).
    pub arp_converted: u64,
    /// Map-Request retransmits (loss recovery).
    pub map_request_retries: u64,
    /// Map-Register retransmits.
    pub register_retries: u64,
}

/// The edge router.
pub struct EdgeRouter {
    /// Human-readable name used as a metrics prefix (`edgeA1` etc.).
    name: String,
    /// `acl.drops.<name>`, once resolved (see [`bump_acl_drops`]).
    acl_drops: Option<CounterId>,
    rloc: Rloc,
    dir: Rc<Directory>,
    /// This node's data plane: VRF, map-cache and ACL live inside.
    switch: Switch,
    smr: SmrTracker,
    pending_auth: HashMap<u64, PendingAttach>,
    /// Resolutions in flight: dedupes Map-Requests, retried until a
    /// reply arrives or the attempt budget runs out — then given up, so
    /// an EID never wedges here (a later packet restarts resolution).
    resolving: Retries<(VnId, Eid), ()>,
    /// Unacked Map-Registers by nonce, retransmitted under the *same*
    /// nonce until the server's MapNotify ack — re-delivery is
    /// idempotent on the server, and any in-flight ack still matches.
    pending_registers: Retries<u64, (VnId, Eid)>,
    /// Negative cache: EIDs whose resolution repeatedly timed out, held
    /// until the stored instant so the punt funnel stops re-requesting
    /// them. Bounded by `max_pending` with oldest-evict.
    unresolvable: BTreeMap<(VnId, Eid), SimTime>,
    /// Retransmit schedule (and its private jitter stream).
    backoff: Backoff,
    /// Non-volatile endpoint inventory (port config + cached auth):
    /// what the box re-detects on its ports after a reboot, used to
    /// re-attach and re-register everything on restart (§5.2).
    inventory: BTreeMap<MacAddr, (VnId, LocalEndpoint)>,
    /// Pending ARP conversions: (vn, ip) → requesting endpoint's MAC.
    pending_arp: HashMap<(VnId, std::net::Ipv4Addr), MacAddr>,
    next_txn: u64,
    next_nonce: u64,
    stats: EdgeStats,
    /// Underlay protocol instance (when dynamics are enabled).
    underlay: Option<LinkStateRouter>,
    /// Crashed by a fault plan: timers keep re-arming but do no work
    /// (the simulator drops every delivery to a crashed node).
    failed: bool,
    /// Reusable single-packet buffer (the simulator delivers one packet
    /// per event; the engine still runs its batch pipeline over it).
    buf: PacketBuf,
    /// Frame-composition scratch, reused across sends.
    frame_scratch: Vec<u8>,
    /// Punt-drain scratch, swap-cycled with the switch's queue.
    punt_scratch: Vec<Punt>,
    /// Where the eviction sweep's grid starts (the arming kick): sweeps
    /// fall on `origin + k × eviction_interval` only.
    sweep_origin: Option<SimTime>,
    /// A sweep timer is pending. An empty map-cache parks its sweep
    /// (nothing to evict); the first install re-arms it on the grid.
    sweep_armed: bool,
}

/// Builds the engine configuration a fabric node runs with, from the
/// fabric-wide knobs. `border` is the default route's target: `None` on
/// the border itself, the end of the line.
pub(crate) fn switch_config(rloc: Rloc, border: Option<Rloc>, dir: &Directory) -> SwitchConfig {
    let mut cfg = SwitchConfig::new(rloc);
    cfg.border = border;
    cfg.miss_default_route = dir.params.border_default_route;
    cfg.enforcement = dir.params.enforcement;
    cfg
}

impl EdgeRouter {
    /// Creates an edge router serving `rloc`.
    pub(crate) fn new(name: impl Into<String>, rloc: Rloc, dir: Rc<Directory>) -> Self {
        let mut switch = Switch::new(switch_config(rloc, Some(dir.border_rloc), &dir));
        install_dst_hints(&mut switch, &dir);
        let name = name.into();
        let backoff = Backoff::new(rloc, &dir.params);
        let (cap, budget) = (Some(dir.params.max_pending), Some(MAX_ATTEMPTS));
        EdgeRouter {
            acl_drops: None,
            name,
            rloc,
            dir,
            switch,
            smr: SmrTracker::new(SimDuration::from_secs(5)),
            pending_auth: HashMap::new(),
            resolving: Retries::new(cap, budget),
            pending_registers: Retries::new(cap, budget),
            unresolvable: BTreeMap::new(),
            backoff,
            inventory: BTreeMap::new(),
            pending_arp: HashMap::new(),
            next_txn: 1,
            next_nonce: 1,
            stats: EdgeStats::default(),
            underlay: None,
            failed: false,
            buf: PacketBuf::new(),
            frame_scratch: Vec::new(),
            punt_scratch: Vec::new(),
            sweep_origin: None,
            sweep_armed: false,
        }
    }

    /// Attaches an underlay protocol instance (dynamics mode).
    pub(crate) fn with_underlay(mut self, router: LinkStateRouter) -> Self {
        self.underlay = Some(router);
        self
    }

    /// This edge's locator.
    pub fn rloc(&self) -> Rloc {
        self.rloc
    }

    /// Scenario-facing counters.
    pub fn stats(&self) -> EdgeStats {
        self.stats
    }

    /// This node's data plane (read access for harnesses and the
    /// differential oracle).
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Current overlay FIB size (map-cache entries).
    pub fn fib_len(&self) -> usize {
        self.switch.fib_len()
    }

    /// IPv4 overlay-to-underlay mappings only — the exact Fig. 9 metric
    /// ("we counted the number of overlay-to-underlay IPv4 mappings in
    /// the FIB").
    pub fn fib_len_v4(&self) -> usize {
        self.switch.map_cache().len_of(EidKind::V4)
    }

    /// Locally attached endpoints.
    pub fn attached(&self) -> usize {
        self.switch.tables().vrf().endpoint_count()
    }

    /// Resolutions currently in flight (convergence checks: must be 0
    /// once the fabric quiesces).
    pub fn resolving_len(&self) -> usize {
        self.resolving.len()
    }

    /// Unacknowledged Map-Registers (convergence checks).
    pub fn pending_register_len(&self) -> usize {
        self.pending_registers.len()
    }

    /// ACL state (for the §5.3 ablation).
    pub fn acl(&self) -> &sda_policy::CompiledAcl {
        self.switch.acl()
    }

    /// Simulates a reboot (§5.2) on a fault-plan restart: all volatile
    /// state is lost — the switch restarts with empty tables ("it will
    /// start with an empty FIB for the overlay entries"). The restart
    /// handler then re-attaches the endpoint inventory (the real box
    /// re-detects them on its ports). A fresh underlay instance starts
    /// with an empty reachable set, so it reports no loss until its own
    /// view has seen a router and lost it.
    fn reboot(&mut self) {
        self.switch = Switch::new(*self.switch.config());
        install_dst_hints(&mut self.switch, &self.dir);
        self.pending_auth.clear();
        self.resolving.clear();
        self.pending_registers.clear();
        self.pending_arp.clear();
        self.unresolvable.clear();
        if let Some(ls) = self.underlay.take() {
            // Fresh protocol instance with the same wiring — a link to
            // every other fabric router (empty LSDB, sequence restart:
            // the §5.2 recovery path).
            let (me, rs) = (self.rloc, self.dir.routing_server_rloc);
            let links = self
                .dir
                .node_of_rloc
                .keys()
                .filter(|r| **r != me && **r != rs)
                .map(|r| underlay_id(*r));
            self.underlay = Some(LinkStateRouter::new(ls.id(), links));
        }
    }

    /// Arms the periodic timers; the controller calls this right after
    /// node creation via an injected kick (timers need a context). The
    /// eviction sweep's grid starts here; the sweep itself waits for the
    /// first install.
    fn arm_timers(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        self.sweep_origin = Some(ctx.now());
        self.arm_sweep(ctx);
        let p = &self.dir.params;
        if let Some(interval) = p.fib_sample_interval {
            ctx.set_timer(interval, TIMER_FIB_SAMPLE);
        }
        if self.underlay.is_some() {
            ctx.set_timer(UNDERLAY_TICK, TIMER_UNDERLAY);
        }
        if let Some(interval) = p.refresh_interval {
            ctx.set_timer(interval, TIMER_REFRESH);
        }
    }

    /// Arms the eviction sweep at the grid's next instant after now,
    /// unless it is armed already or the map-cache is empty. A sweep
    /// that finds the cache empty does not re-arm, so an idle edge fires
    /// no timer at all; an install re-arms it on the grid, so every
    /// eviction falls on the instant a sweep that never parks would have
    /// made it.
    fn arm_sweep(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        let Some(origin) = self.sweep_origin else {
            return;
        };
        if self.sweep_armed || self.switch.map_cache().is_empty() {
            return;
        }
        let interval = self.dir.params.eviction_interval.as_nanos();
        let since = ctx.now().since(origin).as_nanos();
        let next = (since / interval + 1) * interval;
        ctx.set_timer(SimDuration::from_nanos(next - since), TIMER_EVICT);
        self.sweep_armed = true;
    }

    fn txn(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn
    }

    fn nonce(&mut self) -> u64 {
        self.next_nonce += 1;
        self.next_nonce
    }

    fn node_of(&self, rloc: Rloc) -> NodeId {
        self.dir.node_of(rloc)
    }

    /// High-water mark of the `resolving` map (cap audits).
    pub fn resolving_peak(&self) -> usize {
        self.resolving.peak()
    }

    /// High-water mark of the `pending_registers` map (cap audits).
    pub fn pending_registers_peak(&self) -> usize {
        self.pending_registers.peak()
    }

    /// Starts resolving `eid` unless it is in flight already or held in
    /// the negative cache.
    fn resolve(&mut self, ctx: &mut Context<'_, FabricMsg>, vn: VnId, eid: Eid) {
        if self.resolving.contains(&(vn, eid)) {
            return; // already in flight
        }
        // Negative cache: a repeatedly-unresolvable EID is not re-asked
        // until its hold expires — the punt funnel stays bounded even
        // when traffic keeps hitting a dead destination.
        if let Some(&until) = self.unresolvable.get(&(vn, eid)) {
            if until > ctx.now() {
                ctx.metrics().bump(self.dir.counters.negative_cache_hits);
                return;
            }
            self.unresolvable.remove(&(vn, eid));
        }
        // In-flight cap: the entry with the oldest deadline makes room
        // (it restarts from scratch if its packet returns).
        let now = ctx.now();
        let evicted = self.resolving.start((vn, eid), (), now, &mut self.backoff);
        if evicted.is_some() {
            ctx.metrics().bump(self.dir.counters.resolve_evictions);
        }
        self.stats.map_requests += 1;
        ctx.metrics().bump(self.dir.counters.map_requests);
        self.send_map_request(ctx, self.dir.routing_server, false, vn, eid);
        self.backoff.arm(ctx, TIMER_RETRY);
    }

    /// Sends a Map-Request for `eid` under a fresh nonce: to the routing
    /// server to resolve it, or as an SMR to the node whose cached
    /// mapping went stale (Fig. 6 step 2).
    fn send_map_request(
        &mut self,
        ctx: &mut Context<'_, FabricMsg>,
        to: NodeId,
        smr: bool,
        vn: VnId,
        eid: Eid,
    ) {
        let nonce = self.nonce();
        ctx.send(
            to,
            FabricMsg::Control(Lisp::MapRequest {
                nonce,
                smr,
                vn,
                eid,
                itr_rloc: self.rloc,
            }),
        );
    }

    fn send_map_register(&self, ctx: &mut Context<'_, FabricMsg>, nonce: u64, vn: VnId, eid: Eid) {
        ctx.send(
            self.dir.routing_server,
            FabricMsg::Control(Lisp::MapRegister {
                nonce,
                vn,
                eid,
                rloc: self.rloc,
                ttl_secs: self.dir.params.register_ttl_secs,
                want_notify: true,
            }),
        );
    }

    /// One pass of the retransmit sweep: resend due Map-Requests and
    /// Map-Registers with backoff, give up entries whose attempt budget
    /// is spent, and re-arm while anything is still pending.
    fn run_retries(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        let now = ctx.now();
        let (resend, given_up) = self.resolving.sweep(now, &mut self.backoff);
        for ((vn, eid), ()) in resend {
            self.count_jittered(ctx);
            self.stats.map_request_retries += 1;
            ctx.metrics().bump(self.dir.counters.map_request_retries);
            self.send_map_request(ctx, self.dir.routing_server, false, vn, eid);
        }
        for (key, ()) in given_up {
            ctx.metrics().bump(self.dir.counters.resolve_timeouts);
            // The server never answered across the whole attempt budget:
            // negative-cache the EID so fresh punts don't immediately
            // restart the same doomed resolution.
            if self.unresolvable.len() >= self.dir.params.max_pending {
                if let Some(oldest) = self
                    .unresolvable
                    .iter()
                    .min_by_key(|(k, t)| (**t, **k))
                    .map(|(k, _)| *k)
                {
                    self.unresolvable.remove(&oldest);
                }
            }
            self.unresolvable.insert(key, now + NEGATIVE_HOLD);
        }
        let (resend, given_up) = self.pending_registers.sweep(now, &mut self.backoff);
        for (nonce, (vn, eid)) in resend {
            self.count_jittered(ctx);
            self.stats.register_retries += 1;
            ctx.metrics().bump(self.dir.counters.register_retries);
            self.send_map_register(ctx, nonce, vn, eid);
        }
        // Given up for now; the periodic refresh re-registers.
        let timeouts = given_up.len() as u64;
        ctx.metrics()
            .bump_by(self.dir.counters.register_timeouts, timeouts);
        if !(self.resolving.is_empty() && self.pending_registers.is_empty()) {
            self.backoff.arm(ctx, TIMER_RETRY);
        }
    }

    /// Counts a retransmit whose delay came from the jittered schedule.
    fn count_jittered(&self, ctx: &mut Context<'_, FabricMsg>) {
        if self.dir.params.rtx_jitter {
            ctx.metrics().bump(self.dir.counters.jittered_retries);
        }
    }

    fn register_endpoint(
        &mut self,
        ctx: &mut Context<'_, FabricMsg>,
        vn: VnId,
        mac: MacAddr,
        ipv4: std::net::Ipv4Addr,
    ) {
        let eids = [Eid::V4(ipv4), Eid::Mac(mac)];
        let registered = if self.dir.params.register_mac { 2 } else { 1 };
        for &eid in &eids[..registered] {
            // If an earlier register for this EID is still unacked, the
            // retransmit sweep already owns it — don't pile up pendings.
            if self.pending_registers.tracks(&(vn, eid)) {
                continue;
            }
            // Outstanding-register cap: the oldest deadline makes room;
            // the periodic refresh re-registers anything dropped here.
            let nonce = self.nonce();
            let now = ctx.now();
            self.pending_registers
                .start(nonce, (vn, eid), now, &mut self.backoff);
            self.send_map_register(ctx, nonce, vn, eid);
        }
        self.backoff.arm(ctx, TIMER_RETRY);
        // §3.5: the routing server also stores the IP→MAC pair.
        if self.dir.params.register_mac {
            ctx.send(
                self.dir.routing_server,
                FabricMsg::Arp(ArpMsg::Register { vn, ip: ipv4, mac }),
            );
        }
    }

    /// Periodic refresh: re-register every attached endpoint so live
    /// registrations never expire while the endpoint is present.
    fn refresh_registrations(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        let attached: Vec<(VnId, MacAddr, std::net::Ipv4Addr)> = self
            .switch
            .tables()
            .vrf()
            .iter()
            .map(|(vn, ep)| (vn, ep.mac, ep.ipv4))
            .collect();
        for (vn, mac, ipv4) in attached {
            self.register_endpoint(ctx, vn, mac, ipv4);
        }
    }

    fn handle_host_event(&mut self, ctx: &mut Context<'_, FabricMsg>, ev: HostEvent) {
        match ev {
            HostEvent::Attach {
                endpoint,
                port,
                vn: _,
            } => {
                // Fig. 3 step 1: authenticate against the policy server.
                let txn = self.txn();
                self.pending_auth.insert(
                    txn,
                    PendingAttach {
                        endpoint,
                        port,
                        started: ctx.now(),
                    },
                );
                ctx.send(
                    self.dir.policy_server,
                    FabricMsg::Policy(PolicyMsg::AuthRequest {
                        mac: endpoint.mac,
                        secret: endpoint.secret,
                        txn,
                    }),
                );
            }
            HostEvent::Detach { mac } => {
                self.inventory.remove(&mac);
                self.switch.detach(mac);
                // Deliberately no withdraw: mobility overwrites the
                // mapping when the endpoint re-registers elsewhere
                // (Fig. 5); a true offboard goes through the controller.
            }
            HostEvent::Send {
                src_mac,
                dst,
                payload_len,
                flow,
                track,
            } => {
                self.handle_endpoint_send(ctx, src_mac, dst, payload_len, flow, track);
            }
            HostEvent::ArpRequest { src_mac, target_ip } => {
                self.handle_arp_request(ctx, src_mac, target_ip);
            }
        }
    }

    fn handle_endpoint_send(
        &mut self,
        ctx: &mut Context<'_, FabricMsg>,
        src_mac: MacAddr,
        dst: Eid,
        payload_len: u16,
        flow: u64,
        track: bool,
    ) {
        // Host-side frame synthesis: the `Send` event stands for a real
        // frame the endpoint emits, so we need its bound IPv4 (the host
        // knows its own address; the event model doesn't carry it). The
        // engine re-classifies and enforces the binding itself.
        let Some(src_ipv4) = self
            .switch
            .tables()
            .vrf()
            .classify(src_mac)
            .map(|(_, ep)| ep.ipv4)
        else {
            self.stats.unknown_source += 1;
            return;
        };
        if !pipeline::compose_host_frame(
            &mut self.frame_scratch,
            src_mac,
            src_ipv4,
            dst,
            payload_len,
            flow,
            track,
        ) {
            // No byte form (IPv6 EID) — documented simplification.
            ctx.metrics().bump(self.dir.counters.unencodable_sends);
            return;
        }
        assert!(self.buf.load(&self.frame_scratch));

        let before = self.switch.stats();
        let verdict = self
            .switch
            .process_ingress(std::slice::from_mut(&mut self.buf), ctx.now())[0];
        match verdict {
            Verdict::Deliver { .. } => {
                self.stats.delivered += 1;
                record_delivery(ctx, self.dir.counters.delivered, self.buf.bytes());
            }
            Verdict::Forward { to } => {
                if was_default_route(&before, &self.switch.stats()) {
                    self.stats.default_routed += 1;
                }
                ctx.metrics()
                    .bump_by(self.dir.counters.overlay_bytes, u64::from(payload_len));
                let node = self.node_of(to);
                ctx.send(node, FabricMsg::Data(self.buf.bytes().to_vec()));
            }
            Verdict::Drop(sda_dataplane::DropReason::Policy) => {
                self.stats.policy_drops += 1;
            }
            Verdict::Drop(sda_dataplane::DropReason::NoRoute) => {
                // Ablation: no border sync — the first packets of a
                // flow are lost while the resolution completes.
                self.stats.first_packet_drops += 1;
            }
            Verdict::Drop(_) => {
                self.stats.unknown_source += 1;
            }
            Verdict::DeliverExternal => {
                debug_assert!(false, "edges hold no external routes");
            }
        }
        self.service_punts(ctx);
    }

    fn handle_arp_request(
        &mut self,
        ctx: &mut Context<'_, FabricMsg>,
        src_mac: MacAddr,
        target_ip: std::net::Ipv4Addr,
    ) {
        let Some((vn, _)) = self.switch.tables().vrf().classify(src_mac) else {
            self.stats.unknown_source += 1;
            return;
        };
        // Local answer: target attached to this same edge.
        if self
            .switch
            .tables()
            .vrf()
            .lookup(vn, Eid::V4(target_ip))
            .is_some()
        {
            self.stats.arp_converted += 1;
            ctx.metrics().bump(self.dir.counters.arp_converted);
            return;
        }
        // §3.5: the L2 gateway absorbs the broadcast and asks the
        // routing server for the owning MAC.
        self.pending_arp.insert((vn, target_ip), src_mac);
        ctx.send(
            self.dir.routing_server,
            FabricMsg::Arp(ArpMsg::Query {
                vn,
                ip: target_ip,
                reply_to: self.rloc,
            }),
        );
    }

    fn handle_arp_answer(
        &mut self,
        ctx: &mut Context<'_, FabricMsg>,
        vn: VnId,
        ip: std::net::Ipv4Addr,
        mac: Option<MacAddr>,
    ) {
        let Some(requester) = self.pending_arp.remove(&(vn, ip)) else {
            return;
        };
        let Some(mac) = mac else {
            ctx.metrics().bump(self.dir.counters.arp_unresolved);
            return;
        };
        // Broadcast became unicast: forward the (now unicast) ARP
        // request as an L2 overlay packet toward the owner MAC; the
        // owning edge delivers it and the target replies over the same
        // machinery. Delivery itself reuses the normal send path.
        self.stats.arp_converted += 1;
        ctx.metrics().bump(self.dir.counters.arp_converted);
        self.handle_endpoint_send(ctx, requester, Eid::Mac(mac), 28, 0, false);
    }

    /// Decap + egress processing for fabric traffic arriving from the
    /// underlay — the engine's egress pipeline on the received bytes.
    /// Local deliveries are rewritten in place; traffic for departed
    /// endpoints is re-forwarded toward the cached location (Fig. 6) or
    /// rides the border default route (§5.2 reboot recovery), with the
    /// Fig. 6 SMR raised through the punt queue.
    fn handle_data(&mut self, ctx: &mut Context<'_, FabricMsg>, bytes: &[u8]) {
        if !self.buf.load(bytes) {
            debug_assert!(false, "fabric data exceeds MAX_FRAME");
            return;
        }
        let before = self.switch.stats();
        let verdict = self
            .switch
            .process_egress(std::slice::from_mut(&mut self.buf), ctx.now())[0];
        match verdict {
            Verdict::Deliver { .. } => {
                self.stats.delivered += 1;
                record_delivery(ctx, self.dir.counters.delivered, self.buf.bytes());
            }
            Verdict::Drop(sda_dataplane::DropReason::Policy) => {
                self.stats.policy_drops += 1;
                bump_acl_drops(&mut self.acl_drops, &self.name, ctx.metrics());
            }
            Verdict::Drop(sda_dataplane::DropReason::TtlExpired) => {
                // §5.2: the hop budget damped a transient loop.
                self.stats.hop_exhausted += 1;
                ctx.metrics().bump(self.dir.counters.hop_exhausted);
            }
            Verdict::Forward { to } => {
                if was_default_route(&before, &self.switch.stats()) {
                    // Unknown here entirely (e.g. freshly rebooted,
                    // §5.2): the engine fell back to the default route.
                    self.stats.default_routed += 1;
                } else {
                    // Fig. 6 step 3: forwarded onward to the moved
                    // endpoint's current location.
                    self.stats.mobility_forwards += 1;
                }
                let node = self.node_of(to);
                ctx.send(node, FabricMsg::Data(self.buf.bytes().to_vec()));
            }
            Verdict::Drop(_) => {
                debug_assert!(false, "unexpected fabric data drop: {verdict:?}");
            }
            Verdict::DeliverExternal => {
                debug_assert!(false, "edges hold no external routes");
            }
        }
        self.service_punts(ctx);
    }

    /// Drains the switch's punt queue and runs the control plane over
    /// it: Map-Requests are deduplicated through the `resolving` set,
    /// data-triggered SMRs (Fig. 6 step 2) are rate-limited per
    /// `(eid, source)` and never aimed at ourselves or the border
    /// (default-routed traffic does not imply a stale sender).
    fn service_punts(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        self.switch.drain_punts_into(&mut self.punt_scratch);
        let punts = std::mem::take(&mut self.punt_scratch);
        for &punt in &punts {
            match punt {
                Punt::MapRequest { vn, eid, .. } => self.resolve(ctx, vn, eid),
                Punt::Smr { to, vn, eid } => {
                    let now = ctx.now();
                    if to != self.rloc
                        && to != self.dir.border_rloc
                        && self.smr.should_send(vn, eid, to, now)
                    {
                        self.stats.smrs_sent += 1;
                        ctx.metrics().bump(self.dir.counters.smrs);
                        let node = self.node_of(to);
                        self.send_map_request(ctx, node, true, vn, eid);
                    }
                }
            }
        }
        self.punt_scratch = punts;
    }

    fn handle_control(&mut self, ctx: &mut Context<'_, FabricMsg>, msg: Lisp) {
        let now = ctx.now();
        match msg {
            Lisp::MapReply {
                vn,
                prefix,
                rloc,
                negative,
                ttl_secs,
                ..
            } => {
                if let Some(eid0) = prefix.as_host() {
                    self.resolving.settle(&(vn, eid0));
                    // An answer (even a negative one) supersedes any
                    // negative-cache hold: the server is reachable again.
                    self.unresolvable.remove(&(vn, eid0));
                }
                if negative {
                    self.switch.apply_negative(vn, prefix);
                } else if let Some(rloc) = rloc {
                    self.switch.install_mapping(
                        vn,
                        prefix,
                        rloc,
                        SimDuration::from_secs(u64::from(ttl_secs)),
                        now,
                    );
                }
            }
            Lisp::MapNotify {
                nonce,
                vn,
                eid,
                new_rloc,
            } => {
                if nonce != 0 {
                    // Register ack: the server echoes our nonce (moves
                    // always carry nonce 0). Settle the pending entry;
                    // installing would self-map the endpoint.
                    self.pending_registers.settle(&nonce);
                } else {
                    // Fig. 5 step 2–3: the moved endpoint's new location.
                    // Install it so in-flight traffic forwards onward.
                    self.switch.update_mapping(
                        vn,
                        eid,
                        new_rloc,
                        SimDuration::from_secs(u64::from(sda_lisp::REPLY_TTL_SECS)),
                        now,
                    );
                    self.smr.forget_eid(vn, eid);
                }
            }
            Lisp::MapRequest {
                smr: true, vn, eid, ..
            } => {
                // An SMR: our cached mapping is stale. Mark and
                // re-resolve (Fig. 6 step 4).
                self.switch.receive_smr(vn, eid, now);
                self.resolve(ctx, vn, eid);
            }
            Lisp::ServerBusy {
                nonce,
                vn,
                eid,
                class,
                retry_after_ms,
            } => {
                // Shed-load reply: our message was dropped unprocessed.
                // Honor the server's retry-after hint instead of our own
                // (possibly much shorter) backoff — collapsing the
                // retransmit storm is the whole point of the hint.
                let (hint, backoff) = (retry_after_ms, &mut self.backoff);
                let held = match class {
                    BusyClass::Request => self.resolving.hold(&(vn, eid), now, hint, backoff),
                    BusyClass::Register => self.pending_registers.hold(&nonce, now, hint, backoff),
                    // The server sheds Subscribes to subscribers only,
                    // and an edge subscribes to nothing.
                    BusyClass::Subscribe => false,
                };
                if held {
                    ctx.metrics().bump(self.dir.counters.server_busy_backoffs);
                }
                self.backoff.arm(ctx, TIMER_RETRY);
            }
            other => {
                debug_assert!(false, "edge received unexpected control {other:?}");
            }
        }
        // An install into an empty cache unparks the sweep.
        self.arm_sweep(ctx);
    }

    fn handle_policy(&mut self, ctx: &mut Context<'_, FabricMsg>, msg: PolicyMsg) {
        match msg {
            PolicyMsg::AuthAccept {
                txn,
                mac,
                profile,
                rules,
            } => {
                let Some(pending) = self.pending_auth.remove(&txn) else {
                    return;
                };
                debug_assert_eq!(pending.endpoint.mac, mac);
                // Fig. 3 steps 2–4: install binding, rules, register.
                self.switch.install_rules(&rules);
                let ep = LocalEndpoint {
                    port: pending.port,
                    group: profile.group,
                    mac,
                    ipv4: pending.endpoint.ipv4,
                };
                self.inventory.insert(mac, (profile.vn, ep));
                self.switch.attach(profile.vn, ep);
                self.register_endpoint(ctx, profile.vn, mac, pending.endpoint.ipv4);
                self.stats.onboarded += 1;
                let latency = ctx.now().since(pending.started);
                ctx.metrics()
                    .observe("fabric.onboarding_secs", latency.as_secs_f64());
            }
            PolicyMsg::AuthReject { txn, .. } => {
                self.pending_auth.remove(&txn);
            }
            PolicyMsg::RuleRefresh { rules } => {
                self.switch.replace_rules(&rules);
            }
            other => {
                debug_assert!(false, "edge received server-side policy msg {other:?}");
            }
        }
    }

    fn handle_underlay(
        &mut self,
        ctx: &mut Context<'_, FabricMsg>,
        msg: sda_underlay::Message,
        from: NodeId,
    ) {
        let Some(ls) = self.underlay.as_mut() else {
            return;
        };
        // Map the sender node back to a RouterId via the directory's
        // rloc table (fabric routers are their own underlay routers).
        let from_router = self
            .dir
            .node_of_rloc
            .iter()
            .find(|(_, n)| **n == from)
            .map(|(r, _)| underlay_id(*r));
        let Some(from_router) = from_router else {
            return;
        };
        let out = ls.handle(from_router, msg, ctx.now());
        self.flush_underlay(ctx, out);
        self.apply_reachability(ctx);
    }

    fn flush_underlay(
        &mut self,
        ctx: &mut Context<'_, FabricMsg>,
        out: Vec<(sda_types::RouterId, sda_underlay::Message)>,
    ) {
        for (to, msg) in out {
            let rloc = rloc_of_underlay(to);
            if let Some(node) = self.dir.node_of_rloc.get(&rloc) {
                ctx.send(*node, FabricMsg::Underlay(msg));
            }
        }
    }

    fn apply_reachability(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        let Some(ls) = self.underlay.as_mut() else {
            return;
        };
        for router in ls.lost() {
            // §5.1: delete routes through the lost RLOC; traffic falls
            // back to the border default route.
            let purged = self.switch.purge_rloc(rloc_of_underlay(router));
            ctx.metrics()
                .bump_by(self.dir.counters.reachability_purges, purged as u64);
        }
    }
}

/// Whether the engine call between the two stat snapshots rode the
/// border default route (a miss), as opposed to a cache-directed
/// forward. One packet is processed per call, so the delta is 0 or 1.
pub(crate) fn was_default_route(before: &SwitchStats, after: &SwitchStats) -> bool {
    after.forwarded_default > before.forwarded_default
}

/// Installs the §5.3 destination-group oracle into a switch's hint
/// table (ingress-enforcement ablation only; a no-op under egress
/// enforcement, where the engine never consults hints).
pub(crate) fn install_dst_hints(switch: &mut Switch, dir: &Directory) {
    if matches!(dir.params.enforcement, EnforcementPoint::Ingress) {
        for (&(vn, eid), &group) in &dir.dst_groups {
            switch.install_dst_hint(vn, eid, group);
        }
    }
}

/// Counts a delivery a switch just made and, for a tracked probe,
/// records `deliver.<dst>` from the measurement meta the delivered
/// `frame` carries.
pub(crate) fn record_delivery(
    ctx: &mut Context<'_, FabricMsg>,
    delivered: CounterId,
    frame: &[u8],
) {
    ctx.metrics().bump(delivered);
    if let Some(d) = pipeline::parse_delivered_frame(frame) {
        if d.track {
            let name = format!("deliver.{}", d.dst);
            let now = ctx.now();
            ctx.metrics().record(&name, now, d.flow as f64);
        }
    }
}

/// Records a node's IPv4 FIB size (`v4`, the Fig. 9 sample) under
/// `fib.<name>` and sets the next sample.
pub(crate) fn sample_fib(ctx: &mut Context<'_, FabricMsg>, name: &str, v4: usize, dir: &Directory) {
    let name = format!("fib.{name}");
    let now = ctx.now();
    ctx.metrics().record(&name, now, v4 as f64);
    if let Some(interval) = dir.params.fib_sample_interval {
        ctx.set_timer(interval, TIMER_FIB_SAMPLE);
    }
}

/// Counts a policy drop under `acl.drops.<name>`. The per-node name is
/// resolved into `slot` by the node's first drop, so the ones after it
/// cost neither a `String` nor a name hash (and building a fabric
/// registers nothing for nodes that never drop).
pub(crate) fn bump_acl_drops(slot: &mut Option<CounterId>, name: &str, metrics: &mut Metrics) {
    let id = *slot.get_or_insert_with(|| metrics.counter_id(&format!("acl.drops.{name}")));
    metrics.bump(id);
}

/// Fabric routers use their RLOC's host octets as underlay RouterId.
pub(crate) fn underlay_id(rloc: Rloc) -> sda_types::RouterId {
    let o = rloc.addr().octets();
    sda_types::RouterId(u32::from(o[2]) << 8 | u32::from(o[3]))
}

/// Inverse of [`underlay_id`].
pub(crate) fn rloc_of_underlay(id: sda_types::RouterId) -> Rloc {
    Rloc::for_router_index(id.0 as u16)
}

impl Node<FabricMsg> for EdgeRouter {
    fn on_message(&mut self, ctx: &mut Context<'_, FabricMsg>, from: NodeId, msg: FabricMsg) {
        match msg {
            FabricMsg::Host(ev) => self.handle_host_event(ctx, ev),
            FabricMsg::Data(bytes) => {
                ctx.busy(DATA_SERVICE);
                self.handle_data(ctx, &bytes);
            }
            FabricMsg::Control(m) => {
                ctx.busy(CONTROL_SERVICE);
                self.handle_control(ctx, m);
            }
            FabricMsg::Policy(m) => self.handle_policy(ctx, m),
            FabricMsg::Arp(ArpMsg::Answer { vn, ip, mac }) => {
                self.handle_arp_answer(ctx, vn, ip, mac);
            }
            FabricMsg::Arp(_) => {}
            FabricMsg::Underlay(m) => self.handle_underlay(ctx, m, from),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FabricMsg>, token: u64) {
        if self.failed {
            // Keep timers armed so a revived edge resumes housekeeping.
            let p = &self.dir.params;
            match token {
                TIMER_EVICT => {
                    self.sweep_armed = false;
                    self.arm_sweep(ctx);
                }
                TIMER_UNDERLAY => ctx.set_timer(UNDERLAY_TICK, TIMER_UNDERLAY),
                TIMER_REFRESH => {
                    if let Some(i) = p.refresh_interval {
                        ctx.set_timer(i, TIMER_REFRESH);
                    }
                }
                TIMER_FIB_SAMPLE => {
                    if let Some(i) = p.fib_sample_interval {
                        ctx.set_timer(i, TIMER_FIB_SAMPLE);
                    }
                }
                // Retransmit state is volatile: a crashed box isn't
                // retrying anything. Restart re-registers from the
                // inventory and re-arms on demand.
                TIMER_RETRY => self.backoff.disarm(),
                _ => {}
            }
            return;
        }
        match token {
            TIMER_EVICT => {
                self.switch
                    .evict_expired(ctx.now(), self.dir.params.idle_timeout);
                self.sweep_armed = false;
                self.arm_sweep(ctx);
            }
            TIMER_FIB_SAMPLE => sample_fib(ctx, &self.name, self.fib_len_v4(), &self.dir),
            TIMER_UNDERLAY => {
                if let Some(ls) = self.underlay.as_mut() {
                    let out = ls.tick(ctx.now());
                    self.flush_underlay(ctx, out);
                    self.apply_reachability(ctx);
                    ctx.set_timer(UNDERLAY_TICK, TIMER_UNDERLAY);
                }
            }
            TIMER_REFRESH => {
                self.refresh_registrations(ctx);
                if let Some(interval) = self.dir.params.refresh_interval {
                    ctx.set_timer(interval, TIMER_REFRESH);
                }
            }
            TIMER_RETRY => {
                self.backoff.disarm();
                self.run_retries(ctx);
            }
            // Token 0 is the controller's arming kick.
            0 => self.arm_timers(ctx),
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut Context<'_, FabricMsg>, fault: FaultEvent) {
        match fault {
            FaultEvent::Crash => {
                self.failed = true;
            }
            FaultEvent::Restart => {
                self.failed = false;
                self.reboot();
                ctx.metrics().bump(self.dir.counters.edge_restarts);
                // §5.2 recovery: the endpoint inventory (port config +
                // cached auth) survives the reboot — re-attach it, then
                // re-register every endpoint and re-fetch the group
                // rules the attached population needs.
                let inventory: Vec<(VnId, LocalEndpoint)> =
                    self.inventory.values().copied().collect();
                let mut local: Vec<(VnId, GroupId)> =
                    inventory.iter().map(|(vn, ep)| (*vn, ep.group)).collect();
                local.sort_unstable();
                local.dedup();
                for (vn, ep) in inventory {
                    self.switch.attach(vn, ep);
                    self.register_endpoint(ctx, vn, ep.mac, ep.ipv4);
                }
                if !local.is_empty() {
                    ctx.send(
                        self.dir.policy_server,
                        FabricMsg::Policy(PolicyMsg::RuleRefreshRequest { local }),
                    );
                }
            }
            // Shard-scoped faults target the routing server, not edges.
            _ => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use sda_simnet::{SimDuration, SimTime};
    use sda_types::{EidPrefix, GroupId, Ipv4Prefix, Rloc};
    use sda_wire::lisp::Message as Lisp;

    use crate::controller::FabricBuilder;
    use crate::msg::FabricMsg;

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn a_parked_sweep_rearms_on_the_original_grid() {
        let mut b = FabricBuilder::new(3);
        let vn = b.add_vn(
            100,
            Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
        );
        b.allow(vn, GroupId(10), GroupId(10));
        let edge = b.add_edge("edge1");
        b.add_border("border", vec![]);
        b.config_mut().eviction_interval = SimDuration::from_secs(2);
        b.config_mut().idle_timeout = SimDuration::from_millis(500);
        let mut f = b.build();
        let node = f.edge_node(edge);
        let reply = |n: u8| {
            FabricMsg::Control(Lisp::MapReply {
                nonce: 0,
                vn,
                prefix: EidPrefix::host(Ipv4Addr::new(10, 100, 9, n).into()),
                rloc: Some(Rloc::for_router_index(7)),
                negative: false,
                ttl_secs: 3600,
            })
        };

        // An empty cache fires no sweep: none at 2 s or 4 s.
        f.run_until(secs(1.0));
        let before = f.sim_mut().events_processed();
        f.run_until(secs(5.0));
        assert_eq!(f.sim_mut().events_processed(), before);

        // Installed at 5.1 s, idle past the timeout by the 6 s sweep,
        // which leaves the cache empty and parks.
        f.sim_mut().inject_at(secs(5.1), node, reply(1));
        f.run_until(secs(5.9));
        assert_eq!(f.edge(edge).fib_len(), 1);
        f.run_until(secs(6.0));
        assert_eq!(f.edge(edge).fib_len(), 0);

        // An install at 7.3 s re-arms on the grid: the next sweep is at
        // 8 s, not at 7.3 + 2 s.
        f.sim_mut().inject_at(secs(7.3), node, reply(2));
        f.run_until(secs(7.99));
        assert_eq!(f.edge(edge).fib_len(), 1);
        f.run_until(secs(8.0));
        assert_eq!(f.edge(edge).fib_len(), 0, "swept at 8 s");
    }
}
