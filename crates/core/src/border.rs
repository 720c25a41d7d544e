//! The border router (§3.3 "Border Routers").
//!
//! Same functions as an edge — and, since the data-plane fold, the same
//! engine: data traffic runs through this node's own
//! [`sda_dataplane::Switch`] on real bytes. Two differences:
//!
//! 1. Its overlay table is **synchronized** with the routing server via
//!    pub/sub instead of populated reactively — every `Publish` installs
//!    into (or withdraws from) the switch's map-cache with an
//!    effectively infinite TTL — so it can absorb the default-routed
//!    traffic edges send while their resolutions are in flight. Per VN
//!    it keeps its slice a prefix of the publish stream — the VN as it
//!    stood at a watermark, with the slice's digest (sum of
//!    [`row_digest`]; per Publish the displaced row's term out, the new
//!    one in) — and states both in every Subscribe. A delta past the
//!    watermark's successor is dropped, not applied: the hole before it
//!    is asked for by a resubscribe. An ack `resumed` keeps the slice
//!    and the deltas after the watermark follow (a replayed delta the
//!    slice already holds is dropped as stale, counted in
//!    `border.publish_regressions`); any other resets it and the
//!    Publishes that follow rebuild it.
//! 2. It holds routes to external networks (Internet, datacenter) in
//!    the switch's external-prefix table, and its engine config has no
//!    further default route (`border: None`): the border *is* the last
//!    resort, so a miss there is unroutable.
//!
//! The engine's punts are drained and dropped here: arriving traffic
//! was *default-routed*, which does not imply a stale sender (no Fig. 6
//! SMR), and the synced table makes reactive Map-Requests pointless.
//!
//! It is also provisioned with a beefier control CPU in the scenarios
//! ("the border router is usually more powerful than edge routers").

use std::collections::BTreeMap;
use std::rc::Rc;

use sda_dataplane::{DropReason, PacketBuf, Punt, Switch, Verdict};
use sda_simnet::{Context, CounterId, FaultEvent, Node, NodeId, SimDuration, SimTime};
use sda_types::{row_digest, EidKind, EidPrefix, Ipv4Prefix, Rloc, VnId};
use sda_wire::lisp::{BusyClass, Message as Lisp};

use crate::backoff::{Backoff, Retries};
use crate::edge::{
    install_dst_hints, record_delivery, sample_fib, switch_config, TIMER_FIB_SAMPLE,
};
use crate::msg::{FabricMsg, PolicyMsg};
use crate::servers::Directory;

/// Timer token for the subscription kick (and periodic resubscribe:
/// a resume or a resync).
const TIMER_SUBSCRIBE: u64 = 0;
/// Retransmit sweep for unacknowledged Subscribes. Lazily armed.
const TIMER_RETRY: u64 = 3;

/// Per-packet cost of fabric data on the border (a more powerful box
/// than an edge).
const DATA_SERVICE: SimDuration = SimDuration::from_nanos(200);

/// Pub/sub-synced mappings never idle out on the border; the routing
/// server withdraws them explicitly. Far beyond any scenario horizon.
const SYNC_TTL: SimDuration = SimDuration::from_secs(100 * 365 * 24 * 3600);

/// Border counters for scenario assertions.
#[derive(Clone, Copy, Default, Debug)]
pub struct BorderStats {
    /// Packets relayed into the fabric from the synced table.
    pub relayed: u64,
    /// Packets delivered to external networks.
    pub external: u64,
    /// Packets dropped: destination unknown everywhere.
    pub unroutable: u64,
    /// Packets delivered to endpoints attached directly to the border.
    pub delivered: u64,
    /// Policy drops at the border's egress ACL.
    pub policy_drops: u64,
    /// Holes detected in a VN's publish stream, one per episode (a hole
    /// means deltas were lost upstream; what arrives past it is dropped
    /// until the resubscribe it triggers is acked).
    pub publish_gaps: u64,
    /// Resync Subscribes this border sent after detecting a hole.
    pub resyncs_requested: u64,
    /// Reset-acked (re)subscriptions after the initial one: each emptied
    /// the VN's synced slice, which the Publishes that follow rebuild —
    /// the VN's changes from the first, or a snapshot (the
    /// `border.delta_rows` and `border.snapshot_rows` counters). A
    /// resubscribe the server resumed counts in the `border.stream_resumes`
    /// counter instead.
    pub resyncs_completed: u64,
}

/// What a border holds of one VN's stream — `seq` and `digest` go into
/// its Subscribes.
#[derive(Clone, Copy, Default, Debug)]
struct Synced {
    /// The watermark: the slice is the VN as it stood at this sequence
    /// number (0: not yet known — the next publish sets it).
    seq: u64,
    /// Wrapping sum of [`row_digest`] over the VN's synced rows.
    digest: u64,
    /// A hole was seen and counted; later deltas are dropped until the
    /// next SubscribeAck.
    gap: bool,
}

/// The border router node.
pub struct BorderRouter {
    name: String,
    /// `acl.drops.<name>`, once resolved (see
    /// [`crate::edge::bump_acl_drops`]).
    acl_drops: Option<CounterId>,
    rloc: Rloc,
    dir: Rc<Directory>,
    /// The data plane: synced overlay table (map-cache), directly
    /// attached endpoints (VRF), ACL and external prefixes.
    switch: Switch,
    stats: BorderStats,
    /// Per VN: the slice's watermark and digest, and whether a hole is
    /// being recovered. A VN present here has completed at least one
    /// acked subscription (or seen a Publish).
    synced: BTreeMap<VnId, Synced>,
    /// Subscribes in flight (their nonces), per VN, until the server's
    /// SubscribeAck. Unbounded and retried without budget: a border
    /// without a synced table is useless.
    pending_subscribes: Retries<VnId, u64>,
    next_nonce: u64,
    /// Crashed (fault injection): volatile synced state is rebuilt on
    /// restart by resubscribing to every VN.
    failed: bool,
    /// Retransmit schedule (and its private jitter stream).
    backoff: Backoff,
    buf: PacketBuf,
    punt_scratch: Vec<Punt>,
}

impl BorderRouter {
    /// Creates a border router serving `rloc`.
    pub(crate) fn new(name: impl Into<String>, rloc: Rloc, dir: Rc<Directory>) -> Self {
        let mut switch = Switch::new(switch_config(rloc, None, &dir));
        install_dst_hints(&mut switch, &dir);
        let name = name.into();
        let backoff = Backoff::new(rloc, &dir.params);
        BorderRouter {
            acl_drops: None,
            name,
            rloc,
            dir,
            switch,
            stats: BorderStats::default(),
            synced: BTreeMap::new(),
            pending_subscribes: Retries::new(None, None),
            next_nonce: 1,
            failed: false,
            backoff,
            buf: PacketBuf::new(),
            punt_scratch: Vec::new(),
        }
    }

    /// Adds an external route (e.g. `0.0.0.0/0` for the Internet).
    pub(crate) fn add_external(&mut self, prefix: Ipv4Prefix) {
        self.switch.add_external(prefix);
    }

    /// Counters.
    pub fn stats(&self) -> BorderStats {
        self.stats
    }

    /// This node's data plane (read access for harnesses and the
    /// differential oracle).
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Synced overlay FIB size (all families).
    pub fn fib_len(&self) -> usize {
        self.switch.fib_len()
    }

    /// IPv4 mappings only — the Fig. 9 border series.
    pub fn fib_len_v4(&self) -> usize {
        self.switch.map_cache().len_of(EidKind::V4)
    }

    /// The maintained digest of `vn`'s synced slice — what the next
    /// Subscribe for `vn` claims (0 before any). Equals the wrapping sum
    /// of [`row_digest`] over the map-cache's rows of `vn`.
    pub fn slice_digest(&self, vn: VnId) -> u64 {
        self.synced.get(&vn).map_or(0, |s| s.digest)
    }

    /// Subscribes in flight (convergence checks: must be 0 once the
    /// fabric quiesces).
    pub fn pending_subscribe_len(&self) -> usize {
        self.pending_subscribes.len()
    }

    /// Sends a Subscribe for `vn` and tracks it until acked. The server
    /// answers with a SubscribeAck: `resumed` keeps the synced slice and
    /// what followed its watermark comes as deltas; anything else resets
    /// it and Publishes rebuild it.
    fn subscribe_vn(&mut self, ctx: &mut Context<'_, FabricMsg>, vn: VnId) {
        if self.pending_subscribes.contains(&vn) {
            return; // one in flight per VN is enough
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let now = ctx.now();
        self.pending_subscribes
            .start(vn, nonce, now, &mut self.backoff);
        self.send_subscribe(ctx, nonce, vn);
        self.backoff.arm(ctx, TIMER_RETRY);
    }

    /// Sends (or resends) a Subscribe stating what the border holds of
    /// `vn` now.
    fn send_subscribe(&self, ctx: &mut Context<'_, FabricMsg>, nonce: u64, vn: VnId) {
        let held = self.synced.get(&vn).copied().unwrap_or_default();
        ctx.send(
            self.dir.routing_server,
            FabricMsg::Control(Lisp::Subscribe {
                nonce,
                vn,
                subscriber: self.rloc,
                have_seq: held.seq,
                digest: held.digest,
            }),
        );
    }

    /// A hole was detected in `vn`'s publish stream: resubscribe from
    /// the watermark (unless a Subscribe is already in flight — its
    /// answer covers the hole too).
    fn request_resync(&mut self, ctx: &mut Context<'_, FabricMsg>, vn: VnId) {
        if self.pending_subscribes.contains(&vn) {
            return;
        }
        self.stats.resyncs_requested += 1;
        ctx.metrics()
            .bump(self.dir.counters.border_resyncs_requested);
        self.subscribe_vn(ctx, vn);
    }

    /// Retransmit sweep: resend due Subscribes (same nonce — the ack
    /// matches by VN anyway) and re-arm while any are pending.
    fn run_retries(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        // Unbudgeted: nothing is ever given up.
        let (resend, _) = self.pending_subscribes.sweep(ctx.now(), &mut self.backoff);
        for (vn, nonce) in resend {
            ctx.metrics()
                .bump(self.dir.counters.border_subscribe_retries);
            self.send_subscribe(ctx, nonce, vn);
        }
        if !self.pending_subscribes.is_empty() {
            self.backoff.arm(ctx, TIMER_RETRY);
        }
    }

    /// Runs one packet of fabric bytes through the engine's egress
    /// pipeline and folds the verdict into the border's books.
    fn handle_data(&mut self, ctx: &mut Context<'_, FabricMsg>, bytes: &[u8]) {
        if !self.buf.load(bytes) {
            debug_assert!(false, "fabric data exceeds MAX_FRAME");
            return;
        }
        let bufs = std::slice::from_mut(&mut self.buf);
        let verdict = self.switch.process_egress(bufs, ctx.now())[0];
        match verdict {
            Verdict::Deliver { .. } => {
                self.stats.delivered += 1;
                record_delivery(ctx, self.dir.counters.delivered, self.buf.bytes());
            }
            Verdict::Forward { to } => {
                // Every forward out of a border is a relay off the
                // synced table (it has no further default route).
                self.stats.relayed += 1;
                let node = self.dir.node_of(to);
                ctx.send(node, FabricMsg::Data(self.buf.bytes().to_vec()));
            }
            Verdict::DeliverExternal => {
                self.stats.external += 1;
                ctx.metrics().bump(self.dir.counters.external_delivered);
            }
            Verdict::Drop(DropReason::Policy) => {
                self.stats.policy_drops += 1;
                crate::edge::bump_acl_drops(&mut self.acl_drops, &self.name, ctx.metrics());
            }
            Verdict::Drop(DropReason::TtlExpired) => {
                ctx.metrics().bump(self.dir.counters.hop_exhausted);
            }
            Verdict::Drop(_) => {
                self.stats.unroutable += 1;
                ctx.metrics().bump(self.dir.counters.unroutable);
            }
        }
        // Default-routed traffic does not imply a stale sender and the
        // synced table needs no reactive resolution: punts are drained
        // (cycling the scratch capacity) and intentionally dropped.
        self.switch.drain_punts_into(&mut self.punt_scratch);
        self.punt_scratch.clear();
    }

    fn handle_control(&mut self, ctx: &mut Context<'_, FabricMsg>, msg: Lisp, now: SimTime) {
        match msg {
            Lisp::Publish {
                nonce,
                vn,
                prefix,
                rloc,
                withdraw,
            } => {
                let Some(eid) = prefix.as_host() else {
                    return;
                };
                ctx.metrics().bump(self.dir.counters.border_publishes);
                // Deltas carry the VN stream's next sequence number;
                // snapshot entries all repeat the stream watermark, and
                // the first publish on a reset slice sets it. Anything
                // else would break the slice's prefix: past last+1 is a
                // hole (lost deltas) — drop it and resubscribe from
                // `last`, once per hole; below `last` is stale (a
                // replay's head the slice already holds) — drop it.
                let synced = self.synced.entry(vn).or_default();
                let last = synced.seq;
                if last != 0 && nonce > last + 1 {
                    if !synced.gap {
                        synced.gap = true;
                        self.stats.publish_gaps += 1;
                        ctx.metrics().bump(self.dir.counters.border_publish_gaps);
                        self.request_resync(ctx, vn);
                    }
                    return;
                }
                if nonce < last {
                    ctx.metrics()
                        .bump(self.dir.counters.border_publish_regressions);
                    return;
                }
                let rows = if nonce == last + 1 {
                    self.dir.counters.border_delta_rows
                } else {
                    self.dir.counters.border_snapshot_rows
                };
                ctx.metrics().bump(rows);
                synced.seq = nonce;
                if let Some(old) = self.switch.map_cache().host_rloc(vn, eid) {
                    synced.digest = synced.digest.wrapping_sub(row_digest(&eid, old));
                }
                if withdraw {
                    self.switch.apply_negative(vn, EidPrefix::host(eid));
                } else {
                    synced.digest = synced.digest.wrapping_add(row_digest(&eid, rloc));
                    self.switch
                        .install_mapping(vn, EidPrefix::host(eid), rloc, SYNC_TTL, now);
                }
            }
            Lisp::SubscribeAck { vn, resumed, .. } => {
                if self.pending_subscribes.settle(&vn).is_none() {
                    // A duplicate ack (a retransmit's): nothing pending.
                    return;
                }
                if resumed {
                    // The server proved our slice the VN as of our
                    // watermark: keep it (the entry marks the VN
                    // subscribed, as a reset does); what followed the
                    // watermark comes next, as deltas.
                    self.synced.entry(vn).or_default().gap = false;
                    ctx.metrics().bump(self.dir.counters.border_stream_resumes);
                } else {
                    // The server reset our subscription: drop the VN's
                    // synced slice and restart the sequence space — the
                    // Publishes that follow the ack rebuild it.
                    self.switch.purge_vn(vn);
                    let first = self.synced.insert(vn, Synced::default()).is_none();
                    if !first {
                        self.stats.resyncs_completed += 1;
                        ctx.metrics()
                            .bump(self.dir.counters.border_resyncs_completed);
                    }
                }
            }
            Lisp::MapNotify { .. } => {}
            Lisp::ServerBusy {
                vn,
                class: BusyClass::Subscribe,
                retry_after_ms,
                ..
            } => {
                // Our Subscribe was shed at the admission gate: push the
                // retransmit out to the server's retry-after hint so the
                // resubscribe wave decays instead of hammering. The hint
                // is a floor; jitter on top decorrelates shed herds.
                if self
                    .pending_subscribes
                    .hold(&vn, now, retry_after_ms, &mut self.backoff)
                {
                    ctx.metrics().bump(self.dir.counters.server_busy_backoffs);
                }
                self.backoff.arm(ctx, TIMER_RETRY);
            }
            Lisp::ServerBusy { .. } => {}
            other => {
                debug_assert!(false, "border received unexpected control {other:?}");
            }
        }
    }
}

impl Node<FabricMsg> for BorderRouter {
    fn on_message(&mut self, ctx: &mut Context<'_, FabricMsg>, _from: NodeId, msg: FabricMsg) {
        match msg {
            FabricMsg::Data(bytes) => {
                ctx.busy(DATA_SERVICE);
                self.handle_data(ctx, &bytes);
            }
            FabricMsg::Control(m) => {
                let now = ctx.now();
                self.handle_control(ctx, m, now);
            }
            FabricMsg::Policy(PolicyMsg::RuleRefresh { rules }) => {
                self.switch.replace_rules(&rules);
            }
            // Borders do not run the link-state protocol in this model;
            // hellos from edges are absorbed (edges detect border
            // liveness through the fabric's always-on default route).
            FabricMsg::Underlay(_) => {}
            other => {
                debug_assert!(false, "border received unexpected {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FabricMsg>, token: u64) {
        if self.failed {
            // Keep periodic timers armed so a restarted border resumes;
            // retransmit state is volatile.
            match token {
                TIMER_SUBSCRIBE => {
                    if let Some(interval) = self.dir.params.subscribe_refresh_interval {
                        ctx.set_timer(interval, TIMER_SUBSCRIBE);
                    }
                }
                TIMER_FIB_SAMPLE => {
                    if let Some(interval) = self.dir.params.fib_sample_interval {
                        ctx.set_timer(interval, TIMER_FIB_SAMPLE);
                    }
                }
                TIMER_RETRY => self.backoff.disarm(),
                _ => {}
            }
            return;
        }
        match token {
            TIMER_SUBSCRIBE => {
                // §3.3: subscribe to every VN's mapping stream. The
                // first firing is the t=0 kick; later firings are the
                // periodic resubscribe per VN — a resume when the
                // border's watermark and digest match the server's, a
                // resync otherwise — which bounds divergence after
                // arbitrary loss.
                let first = self.synced.is_empty() && self.pending_subscribes.is_empty();
                let vns = self.dir.vns.clone();
                for vn in vns {
                    self.subscribe_vn(ctx, vn);
                }
                if first {
                    if let Some(interval) = self.dir.params.fib_sample_interval {
                        ctx.set_timer(interval, TIMER_FIB_SAMPLE);
                    }
                }
                if let Some(interval) = self.dir.params.subscribe_refresh_interval {
                    ctx.set_timer(interval, TIMER_SUBSCRIBE);
                }
            }
            TIMER_FIB_SAMPLE => sample_fib(ctx, &self.name, self.fib_len_v4(), &self.dir),
            TIMER_RETRY => {
                self.backoff.disarm();
                self.run_retries(ctx);
            }
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
                // The synced overlay slice is volatile; external routes,
                // ACL and sinks are config. Drop every VN's slice and
                // resubscribe from scratch.
                let vns: Vec<VnId> = self.dir.vns.clone();
                for vn in &vns {
                    self.switch.purge_vn(*vn);
                }
                self.synced.clear();
                self.pending_subscribes.clear();
                for vn in vns {
                    self.subscribe_vn(ctx, vn);
                }
            }
            // Shard-scoped faults target the routing server, not borders.
            _ => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
