//! The centralized route reflector.
//!
//! Collects advertisements and, every advertisement interval, walks the
//! peer list sending each peer the pending batch. The per-peer walk plus
//! per-route replication cost is what staggers update arrival across the
//! 200 edges — and the walk order has nothing to do with which edge is
//! actively sending to the moved host.

use std::rc::Rc;

use sda_simnet::{Context, Node, NodeId, SimDuration};
use sda_types::Rloc;

use crate::msg::{BgpDirectory, BgpMsg, RouteUpdate};

const TIMER_FLUSH: u64 = 1;

/// The route-reflector node.
pub struct RouteReflector {
    dir: Rc<BgpDirectory>,
    /// iBGP peers (every edge).
    peers: Vec<Rloc>,
    /// Updates accumulated since the last flush.
    pending: Vec<RouteUpdate>,
    seq: u64,
}

impl RouteReflector {
    /// Creates a reflector with its peer list.
    pub fn new(dir: Rc<BgpDirectory>, peers: Vec<Rloc>) -> Self {
        RouteReflector {
            dir,
            peers,
            pending: Vec::new(),
            seq: 0,
        }
    }
}

impl Node<BgpMsg> for RouteReflector {
    fn on_message(&mut self, ctx: &mut Context<'_, BgpMsg>, _from: NodeId, msg: BgpMsg) {
        match msg {
            BgpMsg::Advertise { eid, rloc } => {
                self.seq += 1;
                self.pending.push(RouteUpdate {
                    eid,
                    rloc,
                    seq: self.seq,
                });
                let _ = ctx;
            }
            other => {
                debug_assert!(false, "reflector received unexpected {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BgpMsg>, token: u64) {
        if token != TIMER_FLUSH && token != 0 {
            return;
        }
        if !self.pending.is_empty() {
            let batch = std::mem::take(&mut self.pending);
            let cost_per_peer = self
                .dir
                .config
                .replicate_cost
                .saturating_mul(batch.len() as u64);
            // Walk the peer list: peer i's batch leaves after i
            // replication slots — the arrival stagger.
            let mut offset = SimDuration::ZERO;
            for peer in &self.peers {
                offset = offset + cost_per_peer;
                ctx.send_after(
                    offset,
                    self.dir.node_of(*peer),
                    BgpMsg::Batch(batch.clone()),
                );
            }
            // The reflector CPU was busy for the whole walk.
            ctx.busy(offset);
            ctx.metrics().add(
                "bgp.updates_replicated",
                (batch.len() * self.peers.len()) as u64,
            );
        }
        ctx.set_timer(self.dir.config.flush_interval, TIMER_FLUSH);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
