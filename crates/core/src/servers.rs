//! Simulator nodes wrapping the control-plane servers.
//!
//! * [`RoutingServerNode`] — the routing server of Fig. 1: an
//!   `sda-ctrl` [`PartitionedMapServer`] (one shard by default — the
//!   paper's single routing server; `FabricConfig::ctrl_shards` scales
//!   it) plus the §3.5 IP→MAC table for ARP service, with a
//!   single-server control CPU (service times from `sda-lisp`, small
//!   multiplicative jitter for realistic percentile spread — Fig. 7's
//!   boxplots). Pub/sub publishes drain through the partitioned
//!   server's delta fan-out immediately after each handled message, so
//!   the wire timing matches the old inline-publish model.
//! * [`PolicyServerNode`] — the policy server: `sda-policy`'s
//!   [`PolicyServer`] answering auth and rule-refresh requests.
//!
//! Both translate between `(RLOC)`-addressed protocol outboxes and
//! simulator `NodeId`s via the shared [`Directory`].

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::net::Ipv4Addr;
use std::rc::Rc;

use rand::Rng;
use sda_ctrl::{Disposition, PartitionedMapServer};
use sda_policy::PolicyServer;
use sda_simnet::{Context, CounterId, FaultEvent, Metrics, Node, NodeId, SimDuration};
use sda_types::{Eid, GroupId, KeyHasher, MacAddr, Rloc, VnId};

use crate::msg::{ArpMsg, FabricMsg, PolicyMsg};

/// Immutable fabric-wide wiring and parameters, shared by every node.
#[derive(Debug)]
pub struct Directory {
    /// RLOC → simulator node, probed on every reply, publish and data
    /// send. Unordered: a reader that needs an order sorts.
    pub node_of_rloc: HashMap<Rloc, NodeId, BuildHasherDefault<KeyHasher>>,
    /// The routing server's node and locator.
    pub routing_server: NodeId,
    /// The routing server's RLOC (Map-Request targets).
    pub routing_server_rloc: Rloc,
    /// The policy server's node.
    pub policy_server: NodeId,
    /// The primary border router's locator (default-route target).
    pub border_rloc: Rloc,
    /// Fabric behavior knobs.
    pub params: crate::controller::FabricConfig,
    /// VNs the borders subscribe to.
    pub(crate) vns: Vec<VnId>,
    /// Ingress-enforcement destination-group oracle (§5.3 ablation):
    /// every minted endpoint's group, by IPv4 and MAC EID.
    pub(crate) dst_groups: BTreeMap<(VnId, Eid), GroupId>,
    /// Handles of the counters fabric nodes bump on their event paths.
    pub(crate) counters: FabricCounters,
}

/// Declares [`FabricCounters`]: one handle per counter name, the two
/// side by side so a field cannot drift from the name it stands for.
macro_rules! fabric_counters {
    ($($field:ident => $name:literal,)*) => {
        /// The fabric's counter names, resolved once against the
        /// simulator's [`Metrics`] when the fabric is built: a node
        /// bumps `dir.counters.<field>` — an indexed add — instead of
        /// hashing the name on every event. Readers still go by name.
        #[derive(Debug)]
        pub(crate) struct FabricCounters {
            $(pub(crate) $field: CounterId,)*
        }

        impl FabricCounters {
            pub(crate) fn resolve(metrics: &mut Metrics) -> Self {
                FabricCounters {
                    $($field: metrics.counter_id($name),)*
                }
            }
        }
    };
}

fabric_counters! {
    // Edge and border data path.
    delivered => "fabric.delivered",
    external_delivered => "fabric.external_delivered",
    overlay_bytes => "fabric.overlay_bytes",
    unroutable => "fabric.unroutable",
    hop_exhausted => "fabric.hop_exhausted",
    unencodable_sends => "fabric.unencodable_sends",
    smrs => "fabric.smrs",
    arp_unresolved => "fabric.arp_unresolved",
    arp_converted => "fabric.arp_converted",
    // Edge control plane: resolution, registration, housekeeping.
    map_requests => "fabric.map_requests",
    map_request_retries => "fabric.map_request_retries",
    resolve_timeouts => "fabric.resolve_timeouts",
    resolve_evictions => "fabric.resolve_evictions",
    negative_cache_hits => "fabric.negative_cache_hits",
    register_retries => "fabric.register_retries",
    register_timeouts => "fabric.register_timeouts",
    jittered_retries => "fabric.jittered_retries",
    server_busy_backoffs => "fabric.server_busy_backoffs",
    reachability_purges => "fabric.reachability_purges",
    edge_restarts => "fabric.edge_restarts",
    // Border pub/sub.
    border_publishes => "border.publishes",
    border_snapshot_rows => "border.snapshot_rows",
    border_delta_rows => "border.delta_rows",
    border_publish_gaps => "border.publish_gaps",
    border_publish_regressions => "border.publish_regressions",
    border_resyncs_requested => "border.resyncs_requested",
    border_resyncs_completed => "border.resyncs_completed",
    border_stream_resumes => "border.stream_resumes",
    border_subscribe_retries => "border.subscribe_retries",
    // Servers.
    ctrl_server_restarts => "ctrl.server_restarts",
    ctrl_stream_replays => "ctrl.stream_replays",
    ctrl_shed_replies => "ctrl.shed_replies",
    ctrl_shard_drops => "ctrl.shard_drops",
    routing_server_arp_queries => "routing_server.arp_queries",
}

impl Directory {
    /// The simulator node serving `rloc`.
    ///
    /// # Panics
    /// Panics on an unknown RLOC — scenario wiring bug, not a runtime
    /// condition.
    pub(crate) fn node_of(&self, rloc: Rloc) -> NodeId {
        *self
            .node_of_rloc
            .get(&rloc)
            .unwrap_or_else(|| panic!("no node for rloc {rloc}"))
    }
}

/// Multiplicative service-time jitter: 1.0 + Exp(1)·0.18, capped.
/// Produces the long-tailed-but-bounded spread of Fig. 7's boxplots.
pub(crate) fn service_jitter(rng: &mut impl Rng) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    let exp = -u.ln();
    1.0 + (exp * 0.18).min(2.0)
}

/// The routing server simulator node.
pub struct RoutingServerNode {
    server: PartitionedMapServer,
    dir: Rc<Directory>,
    /// §3.5: overlay IP → MAC, for ARP broadcast-to-unicast conversion.
    arp_db: BTreeMap<(VnId, Ipv4Addr), MacAddr>,
    /// Crashed (fault injection). All state here is volatile: a restart
    /// comes up with an empty mapping database, empty subscriber list
    /// and empty ARP table — edges repopulate it through registration
    /// refreshes, and a border's next resubscribe finds no stream to
    /// resume: it resets, rebuilt from the new server's delta log or a
    /// snapshot. The simulator drops every delivery to a crashed node,
    /// so only the purge timer reads this.
    failed: bool,
}

impl RoutingServerNode {
    /// Wraps `server` with fabric wiring.
    pub(crate) fn new(server: PartitionedMapServer, dir: Rc<Directory>) -> Self {
        RoutingServerNode {
            server,
            dir,
            arp_db: BTreeMap::new(),
            failed: false,
        }
    }

    /// Read access for post-run assertions.
    pub fn server(&self) -> &PartitionedMapServer {
        &self.server
    }

    /// Registered IP→MAC pairs.
    pub fn arp_entries(&self) -> usize {
        self.arp_db.len()
    }

    /// Sends the handled message's answer (replies, notifies, a
    /// Subscribe's ack and any snapshot behind it), then drains the
    /// queued pub/sub deltas.
    fn transmit(&mut self, ctx: &mut Context<'_, FabricMsg>, out: sda_lisp::Outbox) {
        for (rloc, msg) in out.into_iter().chain(self.server.flush_publishes()) {
            ctx.send(self.dir.node_of(rloc), FabricMsg::Control(msg));
        }
    }
}

/// Timer token: periodic purge of expired registrations.
const TIMER_PURGE: u64 = 0;

/// CPU cost of shedding or dropping a message at the admission gate —
/// a header peek plus (for sheds) a fixed-size reply, far cheaper than
/// real service. This is what keeps the server responsive under storm.
const SHED_SERVICE: SimDuration = SimDuration::from_micros(2);

impl Node<FabricMsg> for RoutingServerNode {
    fn on_timer(&mut self, ctx: &mut Context<'_, FabricMsg>, token: u64) {
        if token == TIMER_PURGE {
            if !self.failed {
                self.server.expire(ctx.now());
                self.transmit(ctx, sda_lisp::Outbox::new());
            }
            if let Some(interval) = self.dir.params.purge_interval {
                ctx.set_timer(interval, TIMER_PURGE);
            }
        }
    }

    fn on_fault(&mut self, ctx: &mut Context<'_, FabricMsg>, fault: FaultEvent) {
        match fault {
            FaultEvent::Crash => {
                self.failed = true;
            }
            FaultEvent::Restart => {
                self.failed = false;
                let rloc = self.server.rloc();
                let shards = self.server.shard_count();
                let admission = self.server.admission();
                self.server = PartitionedMapServer::new(rloc, shards);
                // Admission policy is configuration, not volatile state:
                // it survives the reboot (with fresh full buckets).
                self.server.set_admission(admission);
                self.arp_db.clear();
                ctx.metrics().bump(self.dir.counters.ctrl_server_restarts);
            }
            // Shard-scoped faults: the node stays up; the partitioned
            // server tracks which slice is dark.
            FaultEvent::ShardCrash(i) => {
                if i < self.server.shard_count() {
                    self.server.crash_shard(i);
                }
            }
            FaultEvent::ShardRestart(i) => {
                if i < self.server.shard_count() {
                    self.server.restart_shard(i);
                }
            }
            FaultEvent::ShardPartition(i) => {
                if i < self.server.shard_count() {
                    self.server.partition_shard(i);
                }
            }
            FaultEvent::ShardHeal(i) => {
                if i < self.server.shard_count() {
                    self.server.heal_shard(i);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FabricMsg>, _from: NodeId, msg: FabricMsg) {
        match msg {
            FabricMsg::Control(m) => {
                let base = sda_lisp::service_time(&m);
                let replays = self.server.pubsub_replays();
                let (disposition, out) = self.server.handle_with_disposition(m, ctx.now());
                match disposition {
                    Disposition::Served => {
                        let jitter = service_jitter(ctx.rng());
                        ctx.busy(SimDuration::from_secs_f64(base.as_secs_f64() * jitter));
                    }
                    Disposition::Shed => {
                        ctx.busy(SHED_SERVICE);
                        ctx.metrics().bump(self.dir.counters.ctrl_shed_replies);
                    }
                    Disposition::ShardDown => {
                        ctx.busy(SHED_SERVICE);
                        ctx.metrics().bump(self.dir.counters.ctrl_shard_drops);
                    }
                }
                (ctx.metrics()).bump_by(
                    self.dir.counters.ctrl_stream_replays,
                    self.server.pubsub_replays() - replays,
                );
                self.transmit(ctx, out);
            }
            FabricMsg::Arp(ArpMsg::Register { vn, ip, mac }) => {
                self.arp_db.insert((vn, ip), mac);
            }
            FabricMsg::Arp(ArpMsg::Query { vn, ip, reply_to }) => {
                ctx.busy(SimDuration::from_micros(100));
                let mac = self.arp_db.get(&(vn, ip)).copied();
                ctx.send(
                    self.dir.node_of(reply_to),
                    FabricMsg::Arp(ArpMsg::Answer { vn, ip, mac }),
                );
                ctx.metrics()
                    .bump(self.dir.counters.routing_server_arp_queries);
            }
            other => {
                debug_assert!(
                    false,
                    "routing server received unexpected message {other:?}"
                );
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Per-auth-round-trip policy-server processing time.
pub(crate) const AUTH_SERVICE: SimDuration = SimDuration::from_micros(200);

/// The policy server simulator node.
pub(crate) struct PolicyServerNode {
    server: PolicyServer,
    dir: Rc<Directory>,
}

impl PolicyServerNode {
    /// Wraps a configured policy server.
    pub(crate) fn new(server: PolicyServer, dir: Rc<Directory>) -> Self {
        PolicyServerNode { server, dir }
    }
}

impl Node<FabricMsg> for PolicyServerNode {
    fn on_message(&mut self, ctx: &mut Context<'_, FabricMsg>, from: NodeId, msg: FabricMsg) {
        let FabricMsg::Policy(pm) = msg else {
            debug_assert!(false, "policy server received non-policy message");
            return;
        };
        match pm {
            PolicyMsg::AuthRequest { mac, secret, txn } => {
                let cred = sda_policy::Credential {
                    identity: mac,
                    secret,
                };
                match self.server.onboard(&cred) {
                    Some(grant) => {
                        // EAP methods cost extra round trips; charge them
                        // as additional serialized service time (with the
                        // same long-tail jitter as the routing server).
                        let jitter = service_jitter(ctx.rng());
                        let base = AUTH_SERVICE.saturating_mul(u64::from(grant.auth_round_trips));
                        ctx.busy(SimDuration::from_secs_f64(base.as_secs_f64() * jitter));
                        // §5.3: with egress enforcement the edge gets the
                        // rules *toward* the endpoint's group; with
                        // ingress enforcement (ablation) it needs every
                        // rule the group can *source* — the state blow-up
                        // the paper avoids.
                        let rules = match self.dir.params.enforcement {
                            sda_policy::EnforcementPoint::Egress => grant.rules,
                            sda_policy::EnforcementPoint::Ingress => sda_policy::ingress_subset(
                                self.server.matrix(),
                                &[(grant.profile.vn, grant.profile.group)],
                            ),
                        };
                        ctx.send(
                            from,
                            FabricMsg::Policy(PolicyMsg::AuthAccept {
                                txn,
                                mac,
                                profile: grant.profile,
                                rules,
                            }),
                        );
                    }
                    None => {
                        ctx.busy(AUTH_SERVICE);
                        ctx.send(from, FabricMsg::Policy(PolicyMsg::AuthReject { txn, mac }));
                    }
                }
            }
            PolicyMsg::RuleRefreshRequest { local } => {
                ctx.busy(AUTH_SERVICE);
                let rules = self.server.rules_for_edge(&local);
                ctx.send(from, FabricMsg::Policy(PolicyMsg::RuleRefresh { rules }));
            }
            other => {
                debug_assert!(false, "policy server received reply-type message {other:?}");
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn jitter_is_bounded_and_above_one() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let j = service_jitter(&mut rng);
            assert!((1.0..=3.0).contains(&j), "jitter {j} out of range");
        }
    }

    #[test]
    fn jitter_has_spread() {
        let mut rng = SmallRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..1000).map(|_| service_jitter(&mut rng)).collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.3, "jitter spread too tight: {min}..{max}");
    }
}
