//! The partitioned map-server.
//!
//! One logical routing server whose state is split across N shards by
//! [`crate::partition`]: each shard owns its own [`MappingDb`] covering
//! a prefix-aligned slice of EID space, so a register costs one shard's
//! work and total memory is the world — not `shards × world` like the
//! replicate-all `ShardedMapServer` of §4.1 (bench support,
//! `sda_bench::shard`).
//!
//! [`PartitionedMapServer::handle`] returns replies and notifies only —
//! byte-for-byte what the single reference map-server
//! (`tests/reference/map_server.rs`) would transmit. Pub/sub rides the
//! incremental [`DeltaFanout`] instead: changes enqueue deltas, and
//! [`PartitionedMapServer::flush_publishes`] drains them (plus any
//! pending snapshot resyncs). Callers embedding the server in a message
//! loop flush after each handled message; batch loaders flush once at
//! the end.
//!
//! ## Overload model
//!
//! Two protections sit in front of the shards, both off by default:
//!
//! * **Admission control** ([`PartitionedMapServer::set_admission`]):
//!   per-shard, per-class token buckets (requests / registers /
//!   subscribes — see [`crate::admission`]). A message whose bucket is
//!   empty is **shed**: [`PartitionedMapServer::handle_with_disposition`]
//!   returns [`Disposition::Shed`] together with a
//!   [`Message::ServerBusy`] reply carrying the class and a
//!   retry-after hint, so the sender reschedules at the hinted time
//!   instead of its (faster) loss-recovery backoff. Resubscribes of an
//!   already-known `(VN, subscriber)` stream bypass the subscribe
//!   bucket — snapshot resyncs are the self-healing path and must
//!   never lose to churn.
//! * **Shard faults** ([`PartitionedMapServer::crash_shard`] /
//!   [`PartitionedMapServer::partition_shard`]): a down shard answers
//!   nothing — owner-routed requests and registers are dropped with
//!   [`Disposition::ShardDown`] (counted, never replied), its state is
//!   excluded from snapshot walks and expiry sweeps, and the rest of
//!   the server keeps serving. Senders recover through their ordinary
//!   retransmit machinery once the shard restarts or heals.
//!
//! The retry-after contract: a `ServerBusy` reply means "this exact
//! message was dropped unprocessed; do not retransmit it for at least
//! `retry_after_ms`". It never acknowledges anything.

use sda_lisp::{MapServerStats, Outbox, NEGATIVE_TTL_SECS, REPLY_TTL_SECS};
use sda_lisp::{MappingDb, RegisterOutcome};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, MemStats, Rloc, VnId};
use sda_wire::lisp::{BusyClass, Message};

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::fanout::{DeltaFanout, DEFAULT_QUEUE_CAP};
use crate::partition;

/// How [`PartitionedMapServer::handle_with_disposition`] disposed of a
/// message — drives differentiated CPU accounting (shedding is cheap)
/// and overload observability in embedding nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// Processed normally (including messages a server ignores).
    Served,
    /// Admission bucket empty: dropped unprocessed, a
    /// [`Message::ServerBusy`] reply is in the outbox.
    Shed,
    /// The owner shard is crashed or partitioned: dropped silently
    /// (the shard cannot answer, busy or otherwise).
    ShardDown,
}

/// Overload counters: messages shed per class plus drops at down shards.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct OverloadStats {
    /// Map-Requests shed by admission control.
    pub shed_requests: u64,
    /// Map-Registers shed by admission control.
    pub shed_registers: u64,
    /// Subscribes shed by admission control.
    pub shed_subscribes: u64,
    /// Messages dropped because their owner shard was down.
    pub shard_drops: u64,
}

impl OverloadStats {
    /// Total messages shed with a `ServerBusy` reply.
    pub fn shed_total(&self) -> u64 {
        self.shed_requests + self.shed_registers + self.shed_subscribes
    }
}

/// Admission buckets of one shard (present only when admission is on).
#[derive(Clone, Copy, Debug)]
struct ShardGates {
    requests: TokenBucket,
    registers: TokenBucket,
}

/// One partition: its slice of the mapping database plus counters.
struct Shard {
    db: MappingDb,
    /// Crashed or partitioned away: serves nothing until restart/heal.
    down: bool,
    replies: u64,
    negative_replies: u64,
    registers: u64,
    moves: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            db: MappingDb::new(),
            down: false,
            replies: 0,
            negative_replies: 0,
            registers: 0,
            moves: 0,
        }
    }

    /// One expiry sweep over this shard: prunes expired host
    /// registrations in a single pass, returning what was removed (for
    /// the withdraw publishes) in ascending `(vn, eid)` order — the pass
    /// itself runs in slot order, and what is published must not depend
    /// on the tables' capacity history.
    fn sweep(&mut self, now: SimTime) -> Vec<(VnId, Eid, Rloc)> {
        // A down shard's state is frozen: nothing expires (and nothing
        // could publish the withdrawals anyway) until restart/heal.
        if self.down {
            return Vec::new();
        }
        let mut dead = Vec::new();
        self.db.retain(|vn, prefix, rec| {
            let live = !rec.expired(now);
            if !live {
                let eid = prefix
                    .as_host()
                    .expect("the registry holds host routes only");
                dead.push((vn, eid, rec.rloc));
            }
            live
        });
        dead.sort_unstable_by_key(|&(vn, eid, _)| (vn, eid));
        dead
    }
}

/// The EID-partitioned routing server.
pub struct PartitionedMapServer {
    rloc: Rloc,
    shards: Vec<Shard>,
    fanout: DeltaFanout,
    default_ttl: SimDuration,
    /// Admission policy; `None` = every message admitted (no gating
    /// work on the hot path at all).
    admission: Option<AdmissionConfig>,
    /// Per-shard request/register buckets (empty when admission off).
    gates: Vec<ShardGates>,
    /// Server-wide subscribe bucket (subscriptions are not sharded).
    subscribe_gate: Option<TokenBucket>,
    overload: OverloadStats,
}

impl PartitionedMapServer {
    /// A server reachable at `rloc` with `shards` partitions.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(rloc: Rloc, shards: usize) -> Self {
        Self::with_queue_capacity(rloc, shards, DEFAULT_QUEUE_CAP)
    }

    /// As [`PartitionedMapServer::new`] with an explicit per-subscriber
    /// delta queue bound (tests force tiny bounds to exercise the gap →
    /// snapshot resync path).
    pub fn with_queue_capacity(rloc: Rloc, shards: usize, queue_cap: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        PartitionedMapServer {
            rloc,
            shards: (0..shards).map(|_| Shard::new()).collect(),
            fanout: DeltaFanout::new(queue_cap),
            default_ttl: SimDuration::from_secs(u64::from(REPLY_TTL_SECS)),
            admission: None,
            gates: Vec::new(),
            subscribe_gate: None,
            overload: OverloadStats::default(),
        }
    }

    /// Installs (or removes, with `None`) admission control: fresh
    /// full buckets per shard and class. Overload counters are kept.
    pub fn set_admission(&mut self, config: Option<AdmissionConfig>) {
        self.admission = config;
        match config {
            Some(cfg) => {
                self.gates = self
                    .shards
                    .iter()
                    .map(|_| ShardGates {
                        requests: TokenBucket::new(cfg.requests),
                        registers: TokenBucket::new(cfg.registers),
                    })
                    .collect();
                self.subscribe_gate = Some(TokenBucket::new(cfg.subscribes));
            }
            None => {
                self.gates = Vec::new();
                self.subscribe_gate = None;
            }
        }
    }

    /// The installed admission policy, if any.
    pub fn admission(&self) -> Option<AdmissionConfig> {
        self.admission
    }

    /// Overload counters (shed per class, drops at down shards).
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload
    }

    /// Crashes shard `shard`: its volatile slice of the database is
    /// lost and it serves nothing until [`PartitionedMapServer::restart_shard`].
    pub fn crash_shard(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        s.db = MappingDb::new();
        s.down = true;
    }

    /// Brings a crashed shard back up, empty. Its slice of the world
    /// repopulates through the edges' periodic register refreshes.
    pub fn restart_shard(&mut self, shard: usize) {
        self.shards[shard].down = false;
    }

    /// Partitions shard `shard` away: state intact but serving nothing
    /// until [`PartitionedMapServer::heal_shard`].
    pub fn partition_shard(&mut self, shard: usize) {
        self.shards[shard].down = true;
    }

    /// Reconnects a partitioned shard, state intact.
    pub fn heal_shard(&mut self, shard: usize) {
        self.shards[shard].down = false;
    }

    /// This server's locator.
    pub fn rloc(&self) -> Rloc {
        self.rloc
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Handles one control message, returning the replies/notifies to
    /// transmit — exactly what the single reference server would produce.
    /// Mapping changes additionally enqueue pub/sub deltas; drain them
    /// with [`PartitionedMapServer::flush_publishes`]. Shorthand for
    /// [`PartitionedMapServer::handle_with_disposition`] when the
    /// caller does not differentiate served/shed CPU cost.
    pub fn handle(&mut self, msg: Message, now: SimTime) -> Outbox {
        self.handle_with_disposition(msg, now).1
    }

    /// As [`PartitionedMapServer::handle`], also reporting how the
    /// message was disposed of (served, shed with a `ServerBusy` reply
    /// in the outbox, or dropped at a down shard).
    pub fn handle_with_disposition(&mut self, msg: Message, now: SimTime) -> (Disposition, Outbox) {
        match msg {
            Message::MapRequest {
                nonce,
                smr,
                vn,
                eid,
                itr_rloc,
            } => {
                // An SMR addressed to the server is meaningless; ignore.
                if smr {
                    return (Disposition::Served, Outbox::new());
                }
                let owner = partition::owner_of(&eid, self.shards.len());
                if self.shards[owner].down {
                    self.overload.shard_drops += 1;
                    return (Disposition::ShardDown, Outbox::new());
                }
                if !self.admit_request(owner, now) {
                    self.overload.shed_requests += 1;
                    return (
                        Disposition::Shed,
                        vec![(
                            itr_rloc,
                            self.busy_reply(nonce, vn, eid, BusyClass::Request),
                        )],
                    );
                }
                (
                    Disposition::Served,
                    self.answer_request(owner, nonce, vn, eid, itr_rloc, now),
                )
            }
            Message::MapRegister {
                nonce,
                vn,
                eid,
                rloc,
                ttl_secs,
                want_notify,
            } => {
                let owner = partition::owner_of(&eid, self.shards.len());
                if self.shards[owner].down {
                    self.overload.shard_drops += 1;
                    return (Disposition::ShardDown, Outbox::new());
                }
                if !self.admit_register(owner, now) {
                    self.overload.shed_registers += 1;
                    return (
                        Disposition::Shed,
                        vec![(rloc, self.busy_reply(nonce, vn, eid, BusyClass::Register))],
                    );
                }
                (
                    Disposition::Served,
                    self.process_register(owner, nonce, vn, eid, rloc, ttl_secs, want_notify, now),
                )
            }
            Message::Subscribe {
                nonce,
                vn,
                subscriber,
            } => {
                // Resubscribes of a known stream are resyncs — the
                // self-healing path — and bypass the subscribe budget.
                if !self.fanout.is_subscribed(vn, subscriber) && !self.admit_subscribe(now) {
                    self.overload.shed_subscribes += 1;
                    let eid = Eid::V4(std::net::Ipv4Addr::UNSPECIFIED);
                    return (
                        Disposition::Shed,
                        vec![(
                            subscriber,
                            self.busy_reply(nonce, vn, eid, BusyClass::Subscribe),
                        )],
                    );
                }
                // Snapshot is assembled at the next flush, off the owner
                // shards' live state — not walked here. The ack mirrors
                // the single server's: byte-identical non-publish outbox.
                self.fanout.subscribe(vn, subscriber);
                (
                    Disposition::Served,
                    vec![(subscriber, Message::SubscribeAck { nonce, vn })],
                )
            }
            // Replies/notifies/publishes/acks/busy-signals are never
            // addressed to a server.
            Message::MapReply { .. }
            | Message::MapNotify { .. }
            | Message::Publish { .. }
            | Message::SubscribeAck { .. }
            | Message::ServerBusy { .. } => (Disposition::Served, Outbox::new()),
        }
    }

    fn busy_reply(&self, nonce: u64, vn: VnId, eid: Eid, class: BusyClass) -> Message {
        let retry_after_ms = self
            .admission
            .map(|cfg| cfg.retry_after_ms())
            .unwrap_or(1000);
        Message::ServerBusy {
            nonce,
            vn,
            eid,
            class,
            retry_after_ms,
        }
    }

    fn admit_request(&mut self, shard: usize, now: SimTime) -> bool {
        match self.gates.get_mut(shard) {
            Some(g) => g.requests.try_take(now),
            None => true,
        }
    }

    fn admit_register(&mut self, shard: usize, now: SimTime) -> bool {
        match self.gates.get_mut(shard) {
            Some(g) => g.registers.try_take(now),
            None => true,
        }
    }

    fn admit_subscribe(&mut self, now: SimTime) -> bool {
        match self.subscribe_gate.as_mut() {
            Some(g) => g.try_take(now),
            None => true,
        }
    }

    /// Answers a Map-Request from shard `owner` (the caller's
    /// `partition::owner_of(&eid, ..)`).
    fn answer_request(
        &mut self,
        owner: usize,
        nonce: u64,
        vn: VnId,
        eid: Eid,
        itr_rloc: Rloc,
        now: SimTime,
    ) -> Outbox {
        let shard = &mut self.shards[owner];
        match shard.db.lookup(vn, eid, now) {
            Some((prefix, rec)) => {
                shard.replies += 1;
                vec![(
                    itr_rloc,
                    Message::MapReply {
                        nonce,
                        vn,
                        prefix,
                        rloc: Some(rec.rloc),
                        negative: false,
                        ttl_secs: REPLY_TTL_SECS,
                    },
                )]
            }
            None => {
                shard.negative_replies += 1;
                vec![(
                    itr_rloc,
                    Message::MapReply {
                        nonce,
                        vn,
                        prefix: EidPrefix::host(eid),
                        rloc: None,
                        negative: true,
                        ttl_secs: NEGATIVE_TTL_SECS,
                    },
                )]
            }
        }
    }

    /// Applies a Map-Register on shard `owner` (the caller's
    /// `partition::owner_of(&eid, ..)`).
    #[allow(clippy::too_many_arguments)]
    fn process_register(
        &mut self,
        owner: usize,
        nonce: u64,
        vn: VnId,
        eid: Eid,
        rloc: Rloc,
        ttl_secs: u32,
        want_notify: bool,
        now: SimTime,
    ) -> Outbox {
        let ttl = if ttl_secs == 0 {
            self.default_ttl
        } else {
            SimDuration::from_secs(u64::from(ttl_secs))
        };
        let shard = &mut self.shards[owner];
        shard.registers += 1;
        let outcome = shard.db.register(vn, eid, rloc, ttl, now);
        let mut out = Outbox::new();

        if let RegisterOutcome::Moved { previous } = outcome {
            shard.moves += 1;
            // Fig. 5 step 2: tell the previous edge where the endpoint
            // went so it can forward in-flight traffic and refresh.
            out.push((
                previous,
                Message::MapNotify {
                    nonce: 0,
                    vn,
                    eid,
                    new_rloc: rloc,
                },
            ));
        }

        if want_notify {
            // Registration ack.
            out.push((
                rloc,
                Message::MapNotify {
                    nonce,
                    vn,
                    eid,
                    new_rloc: rloc,
                },
            ));
        }

        // Refreshes change nothing for the data plane: no delta.
        if !matches!(outcome, RegisterOutcome::Refreshed) {
            self.fanout.publish(vn, eid, rloc, false);
        }
        out
    }

    /// Explicit withdraw (endpoint offboarded); enqueues the removal
    /// delta toward subscribers.
    pub fn withdraw(&mut self, vn: VnId, eid: Eid) {
        let owner = partition::owner_of(&eid, self.shards.len());
        let shard = &mut self.shards[owner];
        if let Some(old) = shard.db.withdraw(vn, eid) {
            self.fanout.publish(vn, eid, old.rloc, true);
        }
    }

    /// Drains pending pub/sub work into `(destination, Publish)` pairs:
    /// snapshot resyncs first (walking exactly the affected VN across
    /// the owner shards, in shard order — deterministic), then queued
    /// deltas.
    pub fn flush_publishes(&mut self) -> Outbox {
        let shards = &self.shards;
        self.fanout.flush(|vn, emit| {
            for shard in shards {
                // A down shard's slice is unreachable: snapshots omit
                // it (subscribers pick the entries up through deltas as
                // edges re-register after the shard recovers).
                if shard.down {
                    continue;
                }
                for (prefix, rec) in shard.db.iter_vn(vn) {
                    emit(prefix, rec.rloc);
                }
            }
        })
    }

    /// Expires lapsed registrations, one sweep per shard on the calling
    /// thread. Withdraw deltas enqueue in shard order, then ascending
    /// `(vn, eid)`; a down shard contributes none. Returns how many
    /// expired; follow with [`PartitionedMapServer::flush_publishes`].
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut total = 0;
        for shard in &mut self.shards {
            let dead = shard.sweep(now);
            total += dead.len();
            for (vn, eid, old_rloc) in dead {
                self.fanout.publish(vn, eid, old_rloc, true);
            }
        }
        total
    }

    /// Alias of [`PartitionedMapServer::expire`] for the benchmark of
    /// record (`e2e/ctrl.rs`, frozen to perf PRs); the `benchmark` PR of
    /// ROADMAP item 1(a) re-points that call and deletes this.
    pub fn expire_sequential(&mut self, now: SimTime) -> usize {
        self.expire(now)
    }

    /// Total registrations across shards (live or expired).
    pub fn db_len(&self) -> usize {
        self.shards.iter().map(|s| s.db.len()).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.db_len() == 0
    }

    /// Exact-match lookup of `eid` in `vn` on its owner shard; an
    /// expired registration answers `None`.
    pub fn lookup(
        &self,
        vn: VnId,
        eid: Eid,
        now: SimTime,
    ) -> Option<(EidPrefix, sda_lisp::MappingRecord)> {
        self.shards[partition::owner_of(&eid, self.shards.len())]
            .db
            .lookup(vn, eid, now)
    }

    /// What is registered for `eid` in `vn` on its owner shard, **live
    /// or expired** — the [`PartitionedMapServer::iter_db`] row of that
    /// key, asked for rather than walked to (`check_convergence`'s view).
    /// A partitioned shard still answers; a crashed one has nothing.
    pub fn registration(&self, vn: VnId, eid: Eid) -> Option<sda_lisp::MappingRecord> {
        self.shards[partition::owner_of(&eid, self.shards.len())]
            .db
            .get(vn, eid)
    }

    /// Iterates every registered mapping across all shards, in
    /// unspecified order — what the differential tests and the reference
    /// convergence checker (`core/tests/reference/`) copy and compare.
    pub fn iter_db(&self) -> impl Iterator<Item = (VnId, EidPrefix, sda_lisp::MappingRecord)> + '_ {
        self.shards.iter().flat_map(|s| s.db.iter())
    }

    /// Per-shard entry counts (partition balance checks).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.db.len()).collect()
    }

    /// Per-shard answered-request counts (load balance checks).
    pub fn request_distribution(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.replies + s.negative_replies)
            .collect()
    }

    /// Aggregated counters across shards, publish count from the
    /// fan-out (publishes emitted by flushes).
    pub fn stats(&self) -> MapServerStats {
        let mut total = MapServerStats::default();
        for s in &self.shards {
            total.replies += s.replies;
            total.negative_replies += s.negative_replies;
            total.registers += s.registers;
            total.moves += s.moves;
        }
        total.publishes = self.fanout.delivered();
        total
    }

    /// Gap → snapshot resyncs forced by queue overflow so far.
    pub fn pubsub_gaps(&self) -> u64 {
        self.fanout.gaps()
    }

    /// High-water mark across per-subscriber delta queues (bounded-queue
    /// proofs: must never exceed the fan-out's queue cap).
    pub fn pubsub_peak_depth(&self) -> usize {
        self.fanout.peak_depth()
    }

    /// Current publish-sequence watermark of `vn`'s delta stream (0
    /// before any change). Snapshot resyncs are stamped with this value,
    /// so a subscriber that just resynced resumes its stream here.
    pub fn pubsub_seq(&self, vn: VnId) -> u64 {
        self.fanout.current_seq(vn)
    }

    /// Does nothing: the shards' databases are hash tables, which have
    /// no layout to settle after a registration storm. A shim kept only
    /// because the benchmark of record (`e2e/ctrl.rs`, frozen to perf
    /// PRs) calls it after its preload; ROADMAP item 1(b) removes it.
    pub fn compact(&mut self) {}

    /// Memory diagnostics summed across all shards — what the scale-tier
    /// acceptance compares against a single server's. `capacity_bytes`
    /// is exactly what the shards' tables hold allocated (16 bytes a
    /// slot for an IPv4 EID, 32 for any other; see
    /// `MappingDb::mem_stats`).
    pub fn mem_stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for s in &self.shards {
            total.merge(&s.db.mem_stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    /// EIDs spread across /16 blocks so 4 shards all get work.
    fn eid(n: u32) -> Eid {
        Eid::V4(Ipv4Addr::from(0x0A00_0000 | ((n % 256) << 16) | n))
    }

    fn rl(n: u16) -> Rloc {
        Rloc::for_router_index(n)
    }

    fn server(shards: usize) -> PartitionedMapServer {
        PartitionedMapServer::new(rl(1000), shards)
    }

    fn register(vn_: VnId, eid_: Eid, rloc: Rloc, ttl_secs: u32) -> Message {
        Message::MapRegister {
            nonce: 0,
            vn: vn_,
            eid: eid_,
            rloc,
            ttl_secs,
            want_notify: false,
        }
    }

    fn subscribe(vn_: VnId, subscriber: Rloc) -> Message {
        Message::Subscribe {
            nonce: 0,
            vn: vn_,
            subscriber,
        }
    }

    fn request(vn_: VnId, eid_: Eid, itr: Rloc) -> Message {
        Message::MapRequest {
            nonce: 1,
            smr: false,
            vn: vn_,
            eid: eid_,
            itr_rloc: itr,
        }
    }

    #[test]
    fn register_lands_on_exactly_one_shard() {
        let mut s = server(4);
        for i in 0..64 {
            s.handle(register(vn(1), eid(i), rl(1), 300), SimTime::ZERO);
        }
        assert_eq!(s.db_len(), 64, "total state is the world, not 4x");
        let lens = s.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 64);
        assert!(
            lens.iter().filter(|&&l| l > 0).count() >= 2,
            "spread across shards: {lens:?}"
        );
    }

    #[test]
    fn requests_route_to_owner_and_answer() {
        let mut s = server(4);
        for i in 0..64 {
            s.handle(
                register(vn(1), eid(i), rl((i % 8) as u16), 300),
                SimTime::ZERO,
            );
        }
        for i in 0..64 {
            let out = s.handle(request(vn(1), eid(i), rl(99)), SimTime::ZERO);
            assert_eq!(out.len(), 1);
            match &out[0].1 {
                Message::MapReply { negative, rloc, .. } => {
                    assert!(!negative);
                    assert_eq!(*rloc, Some(rl((i % 8) as u16)));
                }
                other => panic!("expected MapReply, got {other:?}"),
            }
        }
        let dist = s.request_distribution();
        assert_eq!(dist.iter().sum::<u64>(), 64);
    }

    #[test]
    fn unknown_eid_answers_negative() {
        let mut s = server(4);
        let out = s.handle(request(vn(1), eid(7), rl(99)), SimTime::ZERO);
        assert!(matches!(
            out[0].1,
            Message::MapReply {
                negative: true,
                ttl_secs: NEGATIVE_TTL_SECS,
                ..
            }
        ));
    }

    #[test]
    fn move_notifies_previous_edge_once() {
        let mut s = server(4);
        s.handle(register(vn(1), eid(3), rl(1), 300), SimTime::ZERO);
        let out = s.handle(register(vn(1), eid(3), rl(2), 300), SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, rl(1), "notify goes to the previous edge");
        assert!(matches!(out[0].1, Message::MapNotify { .. }));
        assert_eq!(s.stats().moves, 1);
    }

    #[test]
    fn subscriber_snapshot_then_incremental_stream() {
        let mut s = server(4);
        for i in 0..16 {
            s.handle(register(vn(1), eid(i), rl(1), 300), SimTime::ZERO);
        }
        s.handle(subscribe(vn(1), rl(9)), SimTime::ZERO);
        let out = s.flush_publishes();
        assert_eq!(out.len(), 16, "snapshot of the subscribed VN");
        // One change -> exactly one delta publish, not a re-walk.
        s.handle(register(vn(1), eid(3), rl(2), 300), SimTime::ZERO);
        let out = s.flush_publishes();
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].1,
            Message::Publish {
                withdraw: false,
                ..
            }
        ));
        // Refresh publishes nothing.
        s.handle(register(vn(1), eid(3), rl(2), 300), SimTime::ZERO);
        assert!(s.flush_publishes().is_empty());
    }

    /// What `expire`'s doc promises of one sweep's withdraw deltas: shard
    /// order, then ascending `(vn, eid)` within a shard (never the
    /// tables' slot order), and nothing from a down shard.
    #[test]
    fn sweep_withdraws_in_shard_then_key_order_and_skips_down_shards() {
        let now = SimTime::ZERO;
        let later = SimTime::ZERO + SimDuration::from_secs(301);
        let mut s = server(4);
        let mut lapsing = Vec::new();
        for i in 0..256 {
            // Half expire (ttl 300), half survive (ttl 3600).
            let (v, ttl) = (vn(1 + i % 3), if i % 2 == 0 { 300 } else { 3600 });
            s.handle(subscribe(v, rl(9)), now);
            s.handle(register(v, eid(i), rl(1), ttl), now);
            if ttl == 300 {
                lapsing.push((partition::owner_of(&eid(i), 4), v, eid(i)));
            }
        }
        s.flush_publishes();
        let down = 1;
        s.partition_shard(down);
        lapsing.sort_unstable();
        assert!(lapsing.iter().any(|t| t.0 < down) && lapsing.iter().any(|t| t.0 > down));
        let swept: Vec<_> = lapsing.iter().filter(|t| t.0 != down).collect();

        assert_eq!(s.expire(later), swept.len());
        let withdrawn = s.flush_publishes().into_iter().map(|(_, m)| match m {
            Message::Publish {
                vn,
                prefix,
                withdraw: true,
                ..
            } => (vn, prefix.as_host().unwrap()),
            other => panic!("expected a withdraw, got {other:?}"),
        });
        assert!(withdrawn.eq(swept.iter().map(|&&(_, v, e)| (v, e))));
        // The frozen slice lapses on the first sweep after the heal.
        s.heal_shard(down);
        assert_eq!(s.expire_sequential(later), lapsing.len() - swept.len());
    }

    /// `registration` is `iter_db` by key — routed by `owner_of`, live
    /// or expired — on every shard count and EID family; a partitioned
    /// shard keeps answering, a crashed one has nothing to answer with.
    #[test]
    fn registration_is_the_iter_db_row_of_its_key() {
        let key = |i: u32| match i % 3 {
            0 => eid(i),
            1 => Eid::V6(std::net::Ipv6Addr::from(u128::from(i) << 112 | 1)),
            _ => Eid::Mac(sda_types::MacAddr::from_seed(i)),
        };
        let long_after = SimTime::ZERO + SimDuration::from_secs(7200);
        for shards in [1, 2, 4, 7] {
            let mut s = server(shards);
            for i in 0..48 {
                let m = register(vn(1 + i % 2), key(i), rl(i as u16), 300 << (i % 2));
                s.handle(m, SimTime::ZERO);
            }
            let rows: Vec<_> = s.iter_db().collect();
            assert_eq!(rows.len(), 48);
            assert!(
                s.shard_lens().iter().all(|&n| n > 0),
                "every shard owns a key"
            );
            for (v, prefix, rec) in &rows {
                let e = prefix.as_host().unwrap();
                assert_eq!(s.registration(*v, e), Some(*rec), "{shards} shards, {e:?}");
                assert!(rec.expired(long_after) && s.lookup(*v, e, long_after).is_none());
                // Registered in one VN only, and `eid(1000)` nowhere.
                assert_eq!(s.registration(vn(3 - v.raw()), e), None);
            }
            assert_eq!(s.registration(vn(1), eid(1000)), None);

            let lost = shards - 1;
            s.partition_shard(0);
            if lost != 0 {
                s.crash_shard(lost);
            }
            for (v, prefix, rec) in &rows {
                let e = prefix.as_host().unwrap();
                let gone = lost != 0 && partition::owner_of(&e, shards) == lost;
                assert_eq!(
                    s.registration(*v, e),
                    (!gone).then_some(*rec),
                    "{shards} shards"
                );
            }
        }
    }

    #[test]
    fn memory_is_partitioned_not_replicated() {
        let world = 4096;
        let mut single = server(1);
        let mut four = server(4);
        for i in 0..world {
            single.handle(register(vn(1), eid(i), rl(1), 3600), SimTime::ZERO);
            four.handle(register(vn(1), eid(i), rl(1), 3600), SimTime::ZERO);
        }
        let s1 = single.mem_stats().capacity_bytes as f64;
        let s4 = four.mem_stats().capacity_bytes as f64;
        assert!(
            s4 <= s1 * 1.25,
            "4-shard memory {s4} exceeds 1.25x single-shard {s1}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        PartitionedMapServer::new(rl(1), 0);
    }

    #[test]
    fn admission_sheds_with_server_busy_and_retry_after() {
        use crate::admission::{AdmissionConfig, ClassBudget};
        let mut s = server(1);
        s.set_admission(Some(AdmissionConfig {
            requests: ClassBudget::new(1.0, 2.0),
            registers: ClassBudget::new(1.0, 1.0),
            subscribes: ClassBudget::new(1.0, 1.0),
            retry_after: SimDuration::from_millis(750),
        }));
        let now = SimTime::ZERO;
        // Register budget: first admitted, second shed with a busy reply
        // back to the registering edge.
        let (d, _) = s.handle_with_disposition(register(vn(1), eid(1), rl(1), 300), now);
        assert_eq!(d, Disposition::Served);
        let (d, out) = s.handle_with_disposition(register(vn(1), eid(2), rl(1), 300), now);
        assert_eq!(d, Disposition::Shed);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, rl(1));
        assert!(matches!(
            out[0].1,
            Message::ServerBusy {
                class: BusyClass::Register,
                retry_after_ms: 750,
                ..
            }
        ));
        // Request budget is independent: registers being exhausted must
        // not starve resolution.
        let (d, out) = s.handle_with_disposition(request(vn(1), eid(1), rl(9)), now);
        assert_eq!(d, Disposition::Served);
        assert!(matches!(out[0].1, Message::MapReply { .. }));
        assert_eq!(s.overload_stats().shed_registers, 1);
        assert_eq!(s.overload_stats().shed_requests, 0);
        // Refilled after a second, the shed register is admitted.
        let later = now + SimDuration::from_secs(1);
        let (d, _) = s.handle_with_disposition(register(vn(1), eid(2), rl(1), 300), later);
        assert_eq!(d, Disposition::Served);
    }

    #[test]
    fn resubscribe_bypasses_the_subscribe_budget() {
        use crate::admission::{AdmissionConfig, ClassBudget};
        let mut s = server(1);
        s.set_admission(Some(AdmissionConfig {
            requests: ClassBudget::new(1000.0, 1000.0),
            registers: ClassBudget::new(1000.0, 1000.0),
            subscribes: ClassBudget::new(0.001, 1.0),
            retry_after: SimDuration::from_millis(500),
        }));
        let now = SimTime::ZERO;
        let sub = |n: u64, v: u32, r: u16| Message::Subscribe {
            nonce: n,
            vn: vn(v),
            subscriber: rl(r),
        };
        // First subscribe takes the only token.
        let (d, _) = s.handle_with_disposition(sub(1, 1, 9), now);
        assert_eq!(d, Disposition::Served);
        // A different subscriber is shed (budget empty)...
        let (d, out) = s.handle_with_disposition(sub(2, 1, 8), now);
        assert_eq!(d, Disposition::Shed);
        assert!(matches!(
            out[0].1,
            Message::ServerBusy {
                class: BusyClass::Subscribe,
                ..
            }
        ));
        // ...but the known stream's resync goes straight through.
        let (d, out) = s.handle_with_disposition(sub(3, 1, 9), now);
        assert_eq!(d, Disposition::Served);
        assert!(matches!(out[0].1, Message::SubscribeAck { .. }));
    }

    #[test]
    fn down_shard_drops_its_traffic_and_recovers() {
        let mut s = server(4);
        for i in 0..64 {
            s.handle(register(vn(1), eid(i), rl(1), 300), SimTime::ZERO);
        }
        let victim = crate::partition::owner_of(&eid(0), 4);
        let before = s.db_len();
        s.crash_shard(victim);
        assert!(s.shards[victim].down);
        assert!(s.db_len() < before, "crashed shard lost its slice");
        // Owner-routed traffic is dropped without reply...
        let (d, out) = s.handle_with_disposition(request(vn(1), eid(0), rl(9)), SimTime::ZERO);
        assert_eq!(d, Disposition::ShardDown);
        assert!(out.is_empty());
        let (d, _) = s.handle_with_disposition(register(vn(1), eid(0), rl(2), 300), SimTime::ZERO);
        assert_eq!(d, Disposition::ShardDown);
        assert_eq!(s.overload_stats().shard_drops, 2);
        // ...while other shards keep serving.
        let other = (0..64)
            .map(eid)
            .find(|e| crate::partition::owner_of(e, 4) != victim)
            .unwrap();
        let (d, out) = s.handle_with_disposition(request(vn(1), other, rl(9)), SimTime::ZERO);
        assert_eq!(d, Disposition::Served);
        assert!(matches!(
            out[0].1,
            Message::MapReply {
                negative: false,
                ..
            }
        ));
        // After restart, the shard serves again (empty until refreshes).
        s.restart_shard(victim);
        let (d, out) = s.handle_with_disposition(request(vn(1), eid(0), rl(9)), SimTime::ZERO);
        assert_eq!(d, Disposition::Served);
        assert!(matches!(out[0].1, Message::MapReply { negative: true, .. }));
        let (d, _) = s.handle_with_disposition(register(vn(1), eid(0), rl(2), 300), SimTime::ZERO);
        assert_eq!(d, Disposition::Served);
        assert_eq!(
            s.lookup(vn(1), eid(0), SimTime::ZERO).unwrap().1.rloc,
            rl(2)
        );
    }

    #[test]
    fn partitioned_shard_keeps_state_and_is_left_out_of_snapshots() {
        let mut s = server(4);
        for i in 0..32 {
            s.handle(register(vn(1), eid(i), rl(1), 300), SimTime::ZERO);
        }
        let victim = crate::partition::owner_of(&eid(0), 4);
        let full = s.db_len();
        s.partition_shard(victim);
        assert_eq!(s.db_len(), full, "partition keeps state");
        // A snapshot taken mid-partition omits the victim's slice.
        s.handle(subscribe(vn(1), rl(9)), SimTime::ZERO);
        let snap = s.flush_publishes();
        assert!(snap.len() < full, "down shard excluded from snapshot");
        s.heal_shard(victim);
        let (d, out) = s.handle_with_disposition(request(vn(1), eid(0), rl(9)), SimTime::ZERO);
        assert_eq!(d, Disposition::Served);
        assert!(matches!(
            out[0].1,
            Message::MapReply {
                negative: false,
                ..
            }
        ));
    }
}
