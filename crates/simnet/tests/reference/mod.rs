//! The simulator's event loop as it stood before the per-node ingress
//! FIFO: a busy node **re-parks** every queued delivery as a fresh heap
//! event at `busy_until`, each time one of them pops — O(depth) heap
//! operations per service. Frozen here, outside the production crate,
//! as the reference `differential_scheduler.rs` replays schedules
//! against; it shares the crate's value types ([`NodeId`], [`Fault`],
//! [`Metrics`], the clock) and duplicates only the loop, [`Context`]
//! and [`Node`]. Do not "fix" anything in this file — its behaviour is
//! the specification.

use std::collections::{BinaryHeap, HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_simnet::{Fault, FaultEvent, FaultPlan, Metrics, NodeId, SimDuration, SimTime};

/// A simulated device: reacts to messages and timers.
///
/// Handlers receive a [`Context`] for sending, timing and metrics; they
/// must not block or sleep — time only advances through the event queue.
pub trait Node<M> {
    /// A message from `from` has been delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// A timer set earlier with [`Context::set_timer`] has fired.
    /// `token` is the caller-chosen discriminator.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, token: u64) {
        let _ = (ctx, token);
    }

    /// A scheduled fault hit this node: [`FaultEvent::Crash`] (about to
    /// lose deliveries; volatile state is gone) or [`FaultEvent::Restart`]
    /// (back up — rebuild from non-volatile state). Default: no-op, for
    /// nodes that never appear in a [`FaultPlan`].
    fn on_fault(&mut self, ctx: &mut Context<'_, M>, fault: FaultEvent) {
        let _ = (ctx, fault);
    }
}

enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        /// True once the delivery has been parked in the destination's
        /// bounded ingress queue (it holds a slot and is never dropped
        /// by the cap again).
        queued: bool,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Fault(Fault),
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Directed-link parameters.
#[derive(Clone, Copy, Debug)]
struct LinkParams {
    latency: SimDuration,
    loss: f64,
}

/// The environment handed to node callbacks.
pub struct Context<'a, M> {
    now: SimTime,
    /// Outgoing messages: (delay-before-link, to, msg).
    outbox: Vec<(SimDuration, NodeId, M)>,
    /// Timers to arm: (delay, token).
    timers: Vec<(SimDuration, u64)>,
    /// Processing time to account on this node's control CPU.
    busy_for: SimDuration,
    rng: &'a mut SmallRng,
    metrics: &'a mut Metrics,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` over the (simulated) wire now.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((SimDuration::ZERO, to, msg));
    }

    /// Arms a timer that fires on this node after `delay` with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }

    /// Accounts `d` of processing time on this node's single-server
    /// control CPU: messages arriving while the CPU is busy queue up.
    pub fn busy(&mut self, d: SimDuration) {
        self.busy_for = self.busy_for + d;
    }

    /// Deterministic per-scenario RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Scenario-wide metric sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }
}

/// The discrete-event simulator.
///
/// Generic over the protocol message type `M`. Nodes are added once and
/// addressed by their [`NodeId`] (dense, starting at 0).
pub struct Simulator<M> {
    nodes: Vec<Box<dyn Node<M>>>,
    queue: BinaryHeap<Event<M>>,
    seq: u64,
    now: SimTime,
    default_latency: SimDuration,
    default_loss: f64,
    links: HashMap<(NodeId, NodeId), LinkParams>,
    /// Nodes currently crashed by a [`Fault::Crash`].
    node_down: Vec<bool>,
    /// Unordered pairs currently cut by a [`Fault::Partition`].
    partitioned: HashSet<(NodeId, NodeId)>,
    /// Per-node control CPU availability.
    busy_until: Vec<SimTime>,
    /// Per-node ingress queue bound (`usize::MAX` = unbounded).
    ingress_cap: Vec<usize>,
    /// Deliveries currently parked behind each node's busy CPU.
    ingress_depth: Vec<u32>,
    /// High-water mark of `ingress_depth` since the last reset.
    ingress_peak: Vec<u32>,
    /// Deliveries tail-dropped at each node's full ingress queue.
    ingress_drops: Vec<u64>,
    rng: SmallRng,
    metrics: Metrics,
    events_processed: u64,
}

impl<M> Simulator<M> {
    /// Creates a simulator seeded with `seed`; link latency defaults to
    /// 50 µs (a campus-scale RTT/2).
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            default_latency: SimDuration::from_micros(50),
            default_loss: 0.0,
            links: HashMap::new(),
            node_down: Vec::new(),
            partitioned: HashSet::new(),
            busy_until: Vec::new(),
            ingress_cap: Vec::new(),
            ingress_depth: Vec::new(),
            ingress_peak: Vec::new(),
            ingress_drops: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            metrics: Metrics::default(),
            events_processed: 0,
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.node_down.push(false);
        self.busy_until.push(SimTime::ZERO);
        self.ingress_cap.push(usize::MAX);
        self.ingress_depth.push(0);
        self.ingress_peak.push(0);
        self.ingress_drops.push(0);
        id
    }

    /// Bounds `node`'s ingress queue: at most `cap` deliveries may wait
    /// behind its busy CPU; further arrivals while the queue is full are
    /// tail-dropped (counted in [`Simulator::ingress_drops`] and the
    /// `simnet.ingress_drops` metric). Nodes default to unbounded.
    pub fn set_ingress_cap(&mut self, node: NodeId, cap: usize) {
        self.ingress_cap[node.0 as usize] = cap;
    }

    /// Deliveries currently parked behind `node`'s busy CPU.
    pub fn ingress_depth(&self, node: NodeId) -> u32 {
        self.ingress_depth[node.0 as usize]
    }

    /// High-water mark of `node`'s ingress queue since the last
    /// [`Simulator::reset_ingress_peaks`] (or the start of the run).
    pub fn ingress_peak(&self, node: NodeId) -> u32 {
        self.ingress_peak[node.0 as usize]
    }

    /// Deliveries tail-dropped at `node`'s full ingress queue.
    pub fn ingress_drops(&self, node: NodeId) -> u64 {
        self.ingress_drops[node.0 as usize]
    }

    /// Resets every node's ingress high-water mark to its current depth
    /// (so a later phase of a scenario can be measured in isolation).
    pub fn reset_ingress_peaks(&mut self) {
        for (peak, depth) in self.ingress_peak.iter_mut().zip(&self.ingress_depth) {
            *peak = *depth;
        }
    }

    /// Configures the directed link `from → to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, latency: SimDuration, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.links.insert((from, to), LinkParams { latency, loss });
    }

    /// Injects an external message to `to` at absolute time `at`
    /// (workload drivers use this; `from` is [`NodeId::EXTERNAL`]).
    pub fn inject_at(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot inject into the past");
        self.push(
            at,
            EventKind::Deliver {
                from: NodeId::EXTERNAL,
                to,
                msg,
                queued: false,
            },
        );
    }

    /// Schedules every fault in `plan` as ordinary queue events.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        for &(at, fault) in plan.events() {
            self.inject_fault_at(at, fault);
        }
    }

    /// Schedules a single fault at absolute time `at`.
    pub fn inject_fault_at(&mut self, at: SimTime, fault: Fault) {
        assert!(at >= self.now, "cannot inject a fault into the past");
        self.push(at, EventKind::Fault(fault));
    }

    /// Immutable access to collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    fn link(&self, from: NodeId, to: NodeId) -> LinkParams {
        self.links.get(&(from, to)).copied().unwrap_or(LinkParams {
            latency: self.default_latency,
            loss: self.default_loss,
        })
    }

    /// Canonical key for an unordered node pair.
    fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn apply_fault(&mut self, fault: Fault) {
        self.metrics.incr("simnet.faults_injected");
        match fault {
            Fault::Crash(node) => {
                let idx = node.0 as usize;
                assert!(idx < self.nodes.len(), "crash of unknown node {node}");
                self.node_down[idx] = true;
                // Whatever the control CPU was chewing on is gone.
                self.busy_until[idx] = self.now;
                self.metrics.incr("simnet.node_crashes");
                self.dispatch(node, |n, ctx| n.on_fault(ctx, FaultEvent::Crash));
            }
            Fault::Restart(node) => {
                let idx = node.0 as usize;
                assert!(idx < self.nodes.len(), "restart of unknown node {node}");
                self.node_down[idx] = false;
                self.metrics.incr("simnet.node_restarts");
                self.dispatch(node, |n, ctx| n.on_fault(ctx, FaultEvent::Restart));
            }
            Fault::Partition(a, b) => {
                self.partitioned.insert(Self::pair_key(a, b));
                self.metrics.incr("simnet.links_cut");
            }
            Fault::Heal(a, b) => {
                self.partitioned.remove(&Self::pair_key(a, b));
                self.metrics.incr("simnet.links_healed");
            }
            Fault::Loss { a, b, loss } => {
                assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
                for (from, to) in [(a, b), (b, a)] {
                    let latency = self.link(from, to).latency;
                    self.links.insert((from, to), LinkParams { latency, loss });
                }
            }
            Fault::Latency { a, b, latency } => {
                for (from, to) in [(a, b), (b, a)] {
                    let loss = self.link(from, to).loss;
                    self.links.insert((from, to), LinkParams { latency, loss });
                }
            }
            Fault::DefaultLoss(loss) => {
                assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
                self.default_loss = loss;
            }
            // Shard faults leave the node up (its other shards keep
            // serving); filtering deliveries for the dead shard is the
            // node's job, driven by the FaultEvent.
            Fault::ShardCrash(node, shard) => {
                self.metrics.incr("simnet.shard_crashes");
                self.dispatch(node, |n, ctx| {
                    n.on_fault(ctx, FaultEvent::ShardCrash(shard))
                });
            }
            Fault::ShardRestart(node, shard) => {
                self.metrics.incr("simnet.shard_restarts");
                self.dispatch(node, |n, ctx| {
                    n.on_fault(ctx, FaultEvent::ShardRestart(shard))
                });
            }
            Fault::ShardPartition(node, shard) => {
                self.metrics.incr("simnet.shard_partitions");
                self.dispatch(node, |n, ctx| {
                    n.on_fault(ctx, FaultEvent::ShardPartition(shard))
                });
            }
            Fault::ShardHeal(node, shard) => {
                self.metrics.incr("simnet.shard_heals");
                self.dispatch(node, |n, ctx| n.on_fault(ctx, FaultEvent::ShardHeal(shard)));
            }
        }
    }

    /// Processes a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.events_processed += 1;

        match ev.kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                queued,
            } => {
                let idx = to.0 as usize;
                assert!(idx < self.nodes.len(), "delivery to unknown node {to}");
                // A crashed node receives nothing — in-flight included.
                if self.node_down[idx] {
                    if queued {
                        self.ingress_depth[idx] -= 1;
                    }
                    self.metrics.incr("simnet.fault_msg_drops");
                    return true;
                }
                // Single-server FIFO CPU: if the node is busy, requeue the
                // delivery at the moment it frees up (stable via seq order).
                // Fresh arrivals claim an ingress-queue slot first; a full
                // queue tail-drops them. Already-queued deliveries keep
                // their slot across re-parks.
                if self.busy_until[idx] > self.now {
                    if !queued {
                        if self.ingress_depth[idx] as usize >= self.ingress_cap[idx] {
                            self.ingress_drops[idx] += 1;
                            self.metrics.incr("simnet.ingress_drops");
                            return true;
                        }
                        self.ingress_depth[idx] += 1;
                        self.ingress_peak[idx] =
                            self.ingress_peak[idx].max(self.ingress_depth[idx]);
                    }
                    let at = self.busy_until[idx];
                    self.push(
                        at,
                        EventKind::Deliver {
                            from,
                            to,
                            msg,
                            queued: true,
                        },
                    );
                    return true;
                }
                if queued {
                    self.ingress_depth[idx] -= 1;
                }
                self.dispatch(to, |node, ctx| node.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, token } => {
                // Timers still fire on crashed nodes: periodic re-arm
                // discipline must survive an outage (the node's own
                // failed-state handling decides what the tick does).
                self.dispatch(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::Fault(fault) => {
                self.apply_fault(fault);
            }
        }
        true
    }

    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<M>, &mut Context<'_, M>),
    {
        let idx = id.0 as usize;
        let mut ctx = Context {
            now: self.now,
            outbox: Vec::new(),
            timers: Vec::new(),
            busy_for: SimDuration::ZERO,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
        };
        // Temporarily move the node out so we can pass &mut self pieces.
        let mut node =
            std::mem::replace(&mut self.nodes[idx], Box::new(NullNode) as Box<dyn Node<M>>);
        f(node.as_mut(), &mut ctx);
        self.nodes[idx] = node;

        let Context {
            outbox,
            timers,
            busy_for,
            ..
        } = ctx;
        if busy_for > SimDuration::ZERO {
            self.busy_until[idx] = self.now + busy_for;
        }
        for (delay, to, msg) in outbox {
            if self.partitioned.contains(&Self::pair_key(id, to)) {
                self.metrics.incr("simnet.partition_drops");
                continue;
            }
            let link = self.link(id, to);
            if link.loss > 0.0 && self.rng.gen::<f64>() < link.loss {
                self.metrics.incr("simnet.link_drops");
                continue;
            }
            let at = self.now + delay + link.latency;
            self.push(
                at,
                EventKind::Deliver {
                    from: id,
                    to,
                    msg,
                    queued: false,
                },
            );
        }
        for (delay, token) in timers {
            let at = self.now + delay;
            self.push(at, EventKind::Timer { node: id, token });
        }
    }

    /// Runs until the queue drains or `deadline` passes; returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(ev) = self.queue.peek() {
            if ev.time > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        // Advance the clock even if nothing fired at the deadline.
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }
}

/// Placeholder node used while a real node is borrowed for dispatch.
struct NullNode;
impl<M> Node<M> for NullNode {
    fn on_message(&mut self, _: &mut Context<'_, M>, _: NodeId, _: M) {
        unreachable!("NullNode must never receive messages");
    }
}
