//! Scriptable fault injection: deterministic chaos schedules.
//!
//! A [`FaultPlan`] is a list of `(time, Fault)` pairs handed to
//! [`Simulator::schedule_faults`](crate::Simulator::schedule_faults)
//! before the run starts. Faults become ordinary events in the one
//! event queue, so a chaos run is exactly as deterministic as a clean
//! one: same scenario + same seed ⇒ same trace, drop for drop.

use crate::sim::NodeId;
use crate::time::{SimDuration, SimTime};

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Node goes down: volatile state is lost, in-flight and future
    /// deliveries to it are dropped until a matching [`Fault::Restart`].
    Crash(NodeId),
    /// Node comes back up and is told so via
    /// [`Node::on_fault`](crate::Node::on_fault) (recover from
    /// non-volatile state there).
    Restart(NodeId),
    /// Cuts the bidirectional link `a ↔ b`: every send between the pair
    /// is dropped until a matching [`Fault::Heal`].
    Partition(NodeId, NodeId),
    /// Restores a previously partitioned pair.
    Heal(NodeId, NodeId),
    /// Sets the loss probability on the pair `a ↔ b` (both directions),
    /// keeping the configured latency. Use `loss: 0.0` to end a spike.
    Loss { a: NodeId, b: NodeId, loss: f64 },
    /// Sets the latency on the pair `a ↔ b` (both directions), keeping
    /// the configured loss.
    Latency {
        a: NodeId,
        b: NodeId,
        latency: SimDuration,
    },
    /// Sets the loss probability applied to every link that has no
    /// explicit override — a fabric-wide degradation dial.
    DefaultLoss(f64),
    /// Crashes one internal shard of `node` (a partitioned control
    /// server): the node stays up and keeps serving other shards, but
    /// the shard's volatile state is lost until a matching
    /// [`Fault::ShardRestart`]. Delivery filtering is the node's job —
    /// the simulator only tells it via
    /// [`Node::on_fault`](crate::Node::on_fault).
    ShardCrash(NodeId, usize),
    /// Brings shard `.1` of `node` back up (state was lost).
    ShardRestart(NodeId, usize),
    /// Partitions shard `.1` of `node` away from the fabric: the shard
    /// keeps its state but serves nothing until [`Fault::ShardHeal`].
    ShardPartition(NodeId, usize),
    /// Reconnects a previously partitioned shard, state intact.
    ShardHeal(NodeId, usize),
}

/// What a node is told when a scheduled fault hits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The node just went down; it keeps receiving timer callbacks (so
    /// periodic re-arm discipline survives) but no deliveries.
    Crash,
    /// The node just came back up with volatile state lost; rebuild from
    /// whatever the node models as non-volatile.
    Restart,
    /// Internal shard `.0` crashed (volatile shard state lost); the
    /// node itself stays up.
    ShardCrash(usize),
    /// Internal shard `.0` restarted empty.
    ShardRestart(usize),
    /// Internal shard `.0` is partitioned away (state intact, serving
    /// nothing).
    ShardPartition(usize),
    /// Internal shard `.0` reconnected with its state intact.
    ShardHeal(usize),
}

/// A deterministic, replayable chaos schedule.
///
/// Built with the fluent helpers and installed once via
/// [`Simulator::schedule_faults`](crate::Simulator::schedule_faults).
/// Entries need not be sorted; the event queue orders them.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary fault at `at`.
    pub fn at(mut self, at: SimTime, fault: Fault) -> Self {
        self.events.push((at, fault));
        self
    }

    /// Crash at `down_at`, restart at `up_at` — one reboot.
    pub fn reboot(self, node: NodeId, down_at: SimTime, up_at: SimTime) -> Self {
        assert!(up_at >= down_at, "restart must not precede crash");
        self.at(down_at, Fault::Crash(node))
            .at(up_at, Fault::Restart(node))
    }

    /// Cuts `a ↔ b` at `from` and heals it at `to`.
    pub fn partition_window(self, a: NodeId, b: NodeId, from: SimTime, to: SimTime) -> Self {
        assert!(to >= from, "heal must not precede partition");
        self.at(from, Fault::Partition(a, b))
            .at(to, Fault::Heal(a, b))
    }

    /// Crashes shard `shard` of `node` at `down_at`, restarts it empty
    /// at `up_at` — one shard reboot while the node stays up.
    pub fn shard_outage(
        self,
        node: NodeId,
        shard: usize,
        down_at: SimTime,
        up_at: SimTime,
    ) -> Self {
        assert!(up_at >= down_at, "shard restart must not precede crash");
        self.at(down_at, Fault::ShardCrash(node, shard))
            .at(up_at, Fault::ShardRestart(node, shard))
    }

    /// Partitions shard `shard` of `node` away at `from`, heals at `to`
    /// (state survives the window).
    pub fn shard_partition_window(
        self,
        node: NodeId,
        shard: usize,
        from: SimTime,
        to: SimTime,
    ) -> Self {
        assert!(to >= from, "shard heal must not precede partition");
        self.at(from, Fault::ShardPartition(node, shard))
            .at(to, Fault::ShardHeal(node, shard))
    }

    /// Raises loss on `a ↔ b` to `loss` at `from`, back to zero at `to`.
    pub fn loss_window(self, a: NodeId, b: NodeId, loss: f64, from: SimTime, to: SimTime) -> Self {
        assert!(to >= from, "loss window must not end before it starts");
        self.at(from, Fault::Loss { a, b, loss })
            .at(to, Fault::Loss { a, b, loss: 0.0 })
    }

    /// Raises the fabric-wide default loss to `loss` at `from`, back to
    /// zero at `to`. Links with explicit parameters are unaffected.
    pub fn default_loss_window(self, loss: f64, from: SimTime, to: SimTime) -> Self {
        assert!(to >= from, "loss window must not end before it starts");
        self.at(from, Fault::DefaultLoss(loss))
            .at(to, Fault::DefaultLoss(0.0))
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw schedule.
    pub fn events(&self) -> &[(SimTime, Fault)] {
        &self.events
    }
}
