//! Horizontal map-server scaling (§4.1):
//!
//! > "the architecture scales horizontally and can deploy more routing
//! > servers. Then, we load balance across edge routers by grouping them
//! > and pointing each group to a different routing server for the route
//! > requests, and perform route updates on all servers."
//!
//! [`ShardedMapServer`] implements exactly that: requests route to one
//! shard by requester group; registers replicate to every shard.
//!
//! This is the *paper-faithful* deployment — and therefore the one whose
//! costs grow linearly with shard count (every register is applied N
//! times, every shard holds the whole world). No node runs it: the
//! fabric's routing server is `sda-ctrl`'s `PartitionedMapServer`, which
//! partitions EID space so each register lands on exactly one shard.
//! It lives here, in bench support, as the comparison point of
//! [`crate::figures::ablation_sharding`], built on the reference
//! [`MapServer`] alone.
//!
//! Invariant: register side effects (notifies, publishes) are
//! transmitted from the **transmit shard** only (the other replicas
//! apply the update silently, or every subscriber would see N copies),
//! so subscriptions MUST live on that same shard — a subscription pinned
//! anywhere else would silently receive nothing.

use sda_lisp::{MapServerStats, Outbox};
use sda_simnet::SimTime;
use sda_types::Rloc;
use sda_wire::lisp::Message;

use crate::map_server::MapServer;

/// A group of map-servers acting as one logical routing server.
pub struct ShardedMapServer {
    shards: Vec<MapServer>,
}

impl ShardedMapServer {
    /// Creates `n` shards with locators from `rlocs` (one per shard).
    ///
    /// # Panics
    /// Panics if `rlocs` is empty.
    pub fn new(rlocs: Vec<Rloc>) -> Self {
        assert!(!rlocs.is_empty(), "need at least one shard");
        ShardedMapServer {
            shards: rlocs.into_iter().map(MapServer::new).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard serves requests from `requester` (stable hash of the
    /// edge's RLOC — the "grouping edge routers" rule).
    pub fn shard_for(&self, requester: Rloc) -> usize {
        let ip = u32::from(requester.addr());
        (ip.wrapping_mul(2_654_435_761) >> 16) as usize % self.shards.len()
    }

    /// The shard whose register side effects (notifies, publishes) are
    /// transmitted — the module-level invariant: subscriptions must be
    /// routed here and nowhere else, or subscribers would silently
    /// receive nothing (the other replicas apply updates mutely).
    fn transmit_shard(&self) -> usize {
        self.shards.len() - 1
    }

    /// Handles a message, applying the request/update routing rule.
    pub fn handle(&mut self, msg: Message, now: SimTime) -> Outbox {
        match &msg {
            // Updates fan to ALL shards so any shard can answer any EID.
            Message::MapRegister { .. } => {
                let (last, rest) = self
                    .shards
                    .split_last_mut()
                    .expect("constructor guarantees at least one shard");
                for shard in rest {
                    shard.handle(msg.clone(), now);
                }
                // The message moves into the transmit shard (no clone),
                // and only that shard's side effects (notify/publish)
                // are transmitted, or every subscriber would see N
                // copies.
                last.handle(msg, now)
            }
            Message::MapRequest { itr_rloc, .. } => {
                let idx = self.shard_for(*itr_rloc);
                self.shards[idx].handle(msg, now)
            }
            Message::Subscribe { .. } => {
                // Explicitly routed to the transmit shard (see the
                // invariant on `transmit_shard`): that is the only shard
                // that emits publishes for replicated registers.
                let idx = self.transmit_shard();
                self.shards[idx].handle(msg, now)
            }
            _ => Outbox::new(),
        }
    }

    /// Aggregated statistics across shards.
    pub fn stats(&self) -> MapServerStats {
        let mut total = MapServerStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.replies += st.replies;
            total.negative_replies += st.negative_replies;
            total.registers += st.registers;
            total.moves += st.moves;
            total.publishes += st.publishes;
        }
        total
    }

    /// Per-shard request counts (for balance checks).
    pub fn request_distribution(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.stats().replies + s.stats().negative_replies)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_types::{Eid, VnId};
    use std::net::Ipv4Addr;

    fn vn() -> VnId {
        VnId::new(1).unwrap()
    }

    fn eid(n: u8) -> Eid {
        Eid::V4(Ipv4Addr::new(10, 0, 0, n))
    }

    fn sharded(n: u16) -> ShardedMapServer {
        ShardedMapServer::new((0..n).map(|i| Rloc::for_router_index(1000 + i)).collect())
    }

    fn register(e: Eid, edge: Rloc) -> Message {
        Message::MapRegister {
            nonce: 0,
            vn: vn(),
            eid: e,
            rloc: edge,
            ttl_secs: 300,
            want_notify: false,
        }
    }

    fn request(e: Eid, requester: Rloc) -> Message {
        Message::MapRequest {
            nonce: 1,
            smr: false,
            vn: vn(),
            eid: e,
            itr_rloc: requester,
        }
    }

    #[test]
    fn any_shard_answers_any_eid() {
        let mut s = sharded(4);
        let edge = Rloc::for_router_index(1);
        s.handle(register(eid(1), edge), SimTime::ZERO);
        // Ask from many different requesters (hitting different shards):
        // all must answer positively.
        for i in 0..16 {
            let requester = Rloc::for_router_index(i);
            let out = s.handle(request(eid(1), requester), SimTime::ZERO);
            assert_eq!(out.len(), 1);
            assert!(
                matches!(
                    out[0].1,
                    Message::MapReply {
                        negative: false,
                        ..
                    }
                ),
                "shard must know the EID"
            );
        }
    }

    #[test]
    fn requests_spread_across_shards() {
        let mut s = sharded(4);
        s.handle(register(eid(1), Rloc::for_router_index(1)), SimTime::ZERO);
        for i in 0..200 {
            let requester = Rloc::for_router_index(i);
            s.handle(request(eid(1), requester), SimTime::ZERO);
        }
        let dist = s.request_distribution();
        assert_eq!(dist.iter().sum::<u64>(), 200);
        for (i, count) in dist.iter().enumerate() {
            assert!(*count > 20, "shard {i} got only {count}/200 requests");
        }
    }

    #[test]
    fn same_requester_always_same_shard() {
        let s = sharded(3);
        let r = Rloc::for_router_index(42);
        let first = s.shard_for(r);
        for _ in 0..10 {
            assert_eq!(s.shard_for(r), first);
        }
    }

    #[test]
    fn move_notify_emitted_once_not_per_shard() {
        let mut s = sharded(4);
        let old_edge = Rloc::for_router_index(1);
        let new_edge = Rloc::for_router_index(2);
        s.handle(register(eid(1), old_edge), SimTime::ZERO);
        let out = s.handle(register(eid(1), new_edge), SimTime::ZERO);
        let notifies = out
            .iter()
            .filter(|(_, m)| matches!(m, Message::MapNotify { .. }))
            .count();
        assert_eq!(notifies, 1, "exactly one notify despite 4 shards");
    }

    /// The transmit-shard invariant: a subscriber must see every change
    /// exactly once, even though registers are applied on all 4 shards.
    /// (Subscriptions pinned to any non-transmit shard would receive
    /// nothing at all, since only the transmit shard's side effects are
    /// sent.)
    #[test]
    fn subscriber_sees_each_change_exactly_once() {
        let mut s = sharded(4);
        let border = Rloc::for_router_index(9);
        let out = s.handle(
            Message::Subscribe {
                nonce: 0,
                vn: vn(),
                subscriber: border,
                have_seq: 0,
                digest: 0,
            },
            SimTime::ZERO,
        );
        assert_eq!(out.len(), 1, "just the ack before any register");
        assert!(
            matches!(out[0], (to, Message::SubscribeAck { .. }) if to == border),
            "subscription acked to the border, not 4 times"
        );
        for i in 1..=5u8 {
            let out = s.handle(register(eid(i), Rloc::for_router_index(1)), SimTime::ZERO);
            let publishes: Vec<_> = out
                .iter()
                .filter(|(to, m)| *to == border && matches!(m, Message::Publish { .. }))
                .collect();
            assert_eq!(publishes.len(), 1, "one publish per change, not 4");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardedMapServer::new(vec![]);
    }
}
