//! The event loop, node trait and delivery machinery.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::{Fault, FaultEvent, FaultPlan};
use crate::metrics::{CounterId, Metrics};
use crate::time::{SimDuration, SimTime};

/// Identifies a node inside one [`Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Pseudo-sender for externally injected events (workload drivers).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if *self == NodeId::EXTERNAL {
            f.write_str("ext")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// A simulated device: reacts to messages, timers and faults.
///
/// Handlers receive a [`Context`] for sending, timing and metrics; they
/// must not block or sleep — time only advances through the event queue.
/// Faults arrive only from a [`FaultPlan`] scheduled on the simulator
/// ([`Simulator::schedule_faults`]); nothing outside the event loop
/// mutates a node, and [`Node::as_any`] gives read access for post-run
/// inspection.
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

    /// Downcast hook: concrete node types that want post-run inspection
    /// return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// `node`'s control CPU frees up with deliveries parked in its
    /// ingress queue. Exactly one is pending per non-empty queue.
    Wake {
        node: NodeId,
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

/// Handles of the counters the event loop itself bumps (the rarer
/// fault counters of `apply_fault` go by name).
struct SimCounters {
    fault_msg_drops: CounterId,
    ingress_drops: CounterId,
    partition_drops: CounterId,
    link_drops: CounterId,
    /// Events that took the main heap; the two FIFOs and the wake lane
    /// count nothing.
    heap_events: CounterId,
}

/// Hashes a `(NodeId, NodeId)` key: the two ids shifted into one word,
/// then one widening multiply with the high half folded onto the low
/// half (hashbrown indexes with the low bits and tags with the top
/// seven, so both ends must see both ids). Deterministic and unkeyed:
/// the pairs are the scenario's own wiring, never input from a packet,
/// and the tables it hashes are probed and updated but never iterated.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0 << 8 | u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = self.0 << 32 | u64::from(n);
    }

    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15;
        wide as u64 ^ (wide >> 64) as u64
    }
}

type PairBuild = BuildHasherDefault<PairHasher>;

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

    /// Sends `msg` to `to` after an extra local delay (e.g. retry backoff).
    pub fn send_after(&mut self, delay: SimDuration, to: NodeId, msg: M) {
        self.outbox.push((delay, to, msg));
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
    /// What nodes create at run time and neither `in_flight` nor
    /// `wakes` takes (timers, `send_after`, sends over a link of another
    /// latency), and external events injected out of time order.
    queue: BinaryHeap<Event<M>>,
    /// Pending wakes as `(time, seq, node)`: at most one per node with a
    /// non-empty ingress queue, so a few dozen entries where the main
    /// heap holds hundreds, and no payload to move.
    wakes: BinaryHeap<Reverse<(SimTime, u64, NodeId)>>,
    /// External events injected in nondecreasing time order — a
    /// driver's schedule — in `(time, seq)` order by construction. Kept
    /// out of the heap so that a delivery due in 50 µs does not sift
    /// past hours of scheduled future on its way in and out.
    schedule: VecDeque<Event<M>>,
    /// Deliveries sent at run time with no extra delay over a link of
    /// `default_latency`: each is due at `now + default_latency`, and
    /// `now` never falls while `seq` only rises, so they arrive in
    /// `(time, seq)` order. One that would land before the tail (the
    /// default was lowered) takes the heap instead.
    in_flight: VecDeque<Event<M>>,
    seq: u64,
    now: SimTime,
    default_latency: SimDuration,
    default_loss: f64,
    links: HashMap<(NodeId, NodeId), LinkParams, PairBuild>,
    /// Nodes currently crashed by a [`Fault::Crash`].
    node_down: Vec<bool>,
    /// Unordered pairs currently cut by a [`Fault::Partition`].
    partitioned: HashSet<(NodeId, NodeId), PairBuild>,
    /// Per-node control CPU availability.
    busy_until: Vec<SimTime>,
    /// Per-node ingress queue bound (`usize::MAX` = unbounded).
    ingress_cap: Vec<usize>,
    /// Deliveries parked behind each node's busy CPU, in arrival order.
    ingress: Vec<VecDeque<(NodeId, M)>>,
    /// High-water mark of each ingress queue's length since the last reset.
    ingress_peak: Vec<u32>,
    /// Deliveries tail-dropped at each node's full ingress queue.
    ingress_drops: Vec<u64>,
    /// `dispatch`'s outbox and timer buffers, kept between events so a
    /// handler's sends reuse one allocation.
    outbox: Vec<(SimDuration, NodeId, M)>,
    timers: Vec<(SimDuration, u64)>,
    rng: SmallRng,
    metrics: Metrics,
    counters: SimCounters,
    events_processed: u64,
    /// Running fold of every fired event's `(time, seq, node, kind)`
    /// (see [`Simulator::event_digest`]).
    event_digest: u64,
}

impl<M> Simulator<M> {
    /// Creates a simulator seeded with `seed`; link latency defaults to
    /// 50 µs (a campus-scale RTT/2).
    pub fn new(seed: u64) -> Self {
        let mut metrics = Metrics::default();
        let counters = SimCounters {
            fault_msg_drops: metrics.counter_id("simnet.fault_msg_drops"),
            ingress_drops: metrics.counter_id("simnet.ingress_drops"),
            partition_drops: metrics.counter_id("simnet.partition_drops"),
            link_drops: metrics.counter_id("simnet.link_drops"),
            heap_events: metrics.counter_id("simnet.heap_events"),
        };
        Simulator {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            wakes: BinaryHeap::new(),
            schedule: VecDeque::new(),
            in_flight: VecDeque::new(),
            seq: 0,
            now: SimTime::ZERO,
            default_latency: SimDuration::from_micros(50),
            default_loss: 0.0,
            links: HashMap::default(),
            node_down: Vec::new(),
            partitioned: HashSet::default(),
            busy_until: Vec::new(),
            ingress_cap: Vec::new(),
            ingress: Vec::new(),
            ingress_peak: Vec::new(),
            ingress_drops: Vec::new(),
            outbox: Vec::new(),
            timers: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            metrics,
            counters,
            events_processed: 0,
            event_digest: 0,
        }
    }

    /// Changes the default link latency.
    pub fn set_default_latency(&mut self, d: SimDuration) {
        self.default_latency = d;
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.node_down.push(false);
        self.busy_until.push(SimTime::ZERO);
        self.ingress_cap.push(usize::MAX);
        self.ingress.push(VecDeque::new());
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
        self.ingress[node.0 as usize].len() as u32
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
        for (peak, queue) in self.ingress_peak.iter_mut().zip(&self.ingress) {
            *peak = queue.len() as u32;
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
        self.schedule_external(
            at,
            EventKind::Deliver {
                from: NodeId::EXTERNAL,
                to,
                msg,
            },
        );
    }

    /// Arms a timer on `node` externally (scenario setup: nodes can only
    /// set timers from inside a callback, so builders use this to
    /// deliver an initial "kick" token).
    pub fn arm_timer_at(&mut self, at: SimTime, node: NodeId, token: u64) {
        assert!(at >= self.now, "cannot arm a timer in the past");
        self.schedule_external(at, EventKind::Timer { node, token });
    }

    /// Schedules every fault in `plan` as ordinary queue events.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        for &(at, fault) in plan.events() {
            self.inject_fault_at(at, fault);
        }
    }

    /// Schedules a single fault at absolute time `at`.
    pub(crate) fn inject_fault_at(&mut self, at: SimTime, fault: Fault) {
        assert!(at >= self.now, "cannot inject a fault into the past");
        self.schedule_external(at, EventKind::Fault(fault));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to metrics (for scenario-level recording).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// A 64-bit fold of every event fired so far — its time, sequence
    /// number, node and kind, in firing order. Two runs that fire the same
    /// events in the same total order agree on it; a run that reorders
    /// two events, or stamps one with another sequence number, almost
    /// surely does not, even when every end-of-run counter agrees.
    /// Faults fold with node `u32::MAX`.
    pub fn event_digest(&self) -> u64 {
        self.event_digest
    }

    /// Borrow a node back (for post-run inspection). The caller supplies
    /// the concrete type.
    pub fn node(&self, id: NodeId) -> &dyn Node<M> {
        self.nodes[id.0 as usize].as_ref()
    }

    fn stamp(&mut self, time: SimTime, kind: EventKind<M>) -> Event<M> {
        let seq = self.seq;
        self.seq += 1;
        Event { time, seq, kind }
    }

    /// Queues an event a node created at run time in the heap.
    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let ev = self.stamp(time, kind);
        self.push_heap(ev);
    }

    fn push_heap(&mut self, ev: Event<M>) {
        self.metrics.bump(self.counters.heap_events);
        self.queue.push(ev);
    }

    /// Queues `node`'s wake at `at` in the wake lane.
    fn push_wake(&mut self, at: SimTime, node: NodeId) {
        let seq = self.seq;
        self.seq += 1;
        self.wakes.push(Reverse((at, seq, node)));
    }

    /// The one door for events from outside (`inject_at`,
    /// `arm_timer_at`, `inject_fault_at`): an arrival no earlier than
    /// the schedule's tail extends the schedule, anything else takes
    /// the heap. `seq` comes from the shared counter either way, so the
    /// container never changes an event's place in the total order.
    /// Run-time events never come here: one 30-minute refresh timer at
    /// the tail would send every later injection to the heap.
    fn schedule_external(&mut self, at: SimTime, kind: EventKind<M>) {
        let ev = self.stamp(at, kind);
        if self.schedule.back().is_none_or(|tail| at >= tail.time) {
            self.schedule.push_back(ev);
        } else {
            self.push_heap(ev);
        }
    }

    /// Removes and returns the next event in `(time, seq)` order — the
    /// earliest of the schedule's front, the in-flight lane's front, the
    /// heap's top and the wake lane's top — unless it is due after
    /// `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<Event<M>> {
        let key = |ev: &Event<M>| (ev.time, ev.seq);
        let fronts = [
            self.schedule.front().map(key),
            self.in_flight.front().map(key),
            self.queue.peek().map(key),
            self.wakes
                .peek()
                .map(|&Reverse((time, seq, _))| (time, seq)),
        ];
        // `seq` is unique, so no two fronts ever tie.
        let (container, (time, _)) = fronts
            .into_iter()
            .enumerate()
            .filter_map(|(container, front)| Some((container, front?)))
            .min_by_key(|&(_, front)| front)?;
        if time > deadline {
            return None;
        }
        match container {
            0 => self.schedule.pop_front(),
            1 => self.in_flight.pop_front(),
            2 => self.queue.pop(),
            _ => {
                let Reverse((time, seq, node)) = self.wakes.pop()?;
                let kind = EventKind::Wake { node };
                Some(Event { time, seq, kind })
            }
        }
    }

    fn link(&self, from: NodeId, to: NodeId) -> LinkParams {
        let default = LinkParams {
            latency: self.default_latency,
            loss: self.default_loss,
        };
        // Most scenarios configure no per-pair link: skip the hash.
        if self.links.is_empty() {
            return default;
        }
        self.links.get(&(from, to)).copied().unwrap_or(default)
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

    /// Processes a single event. Returns false when nothing is pending.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.pop_due(SimTime::from_nanos(u64::MAX)) else {
            return false;
        };
        self.fire(ev);
        true
    }

    fn fire(&mut self, ev: Event<M>) {
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.events_processed += 1;
        self.fold_event(&ev);

        match ev.kind {
            EventKind::Deliver { from, to, msg } => {
                let idx = to.0 as usize;
                assert!(idx < self.nodes.len(), "delivery to unknown node {to}");
                // A crashed node receives nothing — in-flight included.
                if self.node_down[idx] {
                    self.metrics.bump(self.counters.fault_msg_drops);
                    return;
                }
                // Single-server FIFO CPU: a delivery that finds the node
                // busy claims an ingress-queue slot (a full queue
                // tail-drops it) and waits for the node's wake, which
                // the first one in line schedules.
                if self.busy_until[idx] > self.now {
                    let queue = &mut self.ingress[idx];
                    if queue.len() >= self.ingress_cap[idx] {
                        self.ingress_drops[idx] += 1;
                        self.metrics.bump(self.counters.ingress_drops);
                        return;
                    }
                    queue.push_back((from, msg));
                    let depth = queue.len() as u32;
                    self.ingress_peak[idx] = self.ingress_peak[idx].max(depth);
                    if depth == 1 {
                        self.push_wake(self.busy_until[idx], to);
                    }
                    return;
                }
                self.dispatch(to, |node, ctx| node.on_message(ctx, from, msg));
            }
            EventKind::Wake { node } => self.serve_ingress(node),
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
    }

    /// Folds `ev` into [`Simulator::event_digest`]: one widening
    /// multiply per word, high half folded onto the low half, so every
    /// input bit reaches every digest bit within a few events.
    fn fold_event(&mut self, ev: &Event<M>) {
        let (node, kind) = match &ev.kind {
            EventKind::Deliver { to, .. } => (to.0, 0),
            EventKind::Wake { node } => (node.0, 1),
            EventKind::Timer { node, .. } => (node.0, 2),
            EventKind::Fault(_) => (u32::MAX, 3),
        };
        for word in [ev.time.as_nanos(), ev.seq, u64::from(node) << 2 | kind] {
            let wide = u128::from(self.event_digest ^ word) * 0x9E37_79B9_7F4A_7C15;
            self.event_digest = wide as u64 ^ (wide >> 64) as u64;
        }
    }

    /// Serves `node`'s ingress queue from the front for as long as its
    /// CPU is free, then re-arms the wake for whatever is still parked.
    fn serve_ingress(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        // Parked deliveries die with a node that is still down when
        // their turn comes.
        if self.node_down[idx] {
            let lost = self.ingress[idx].len() as u64;
            self.ingress[idx].clear();
            self.metrics.bump_by(self.counters.fault_msg_drops, lost);
            return;
        }
        // A handler that accounts no `busy()` leaves the CPU free, so
        // the whole queue drains at this instant; a fresh arrival that
        // won the same-timestamp tie has already taken the CPU and the
        // loop does not run at all.
        while self.busy_until[idx] <= self.now {
            let Some((from, msg)) = self.ingress[idx].pop_front() else {
                return;
            };
            self.dispatch(node, |n, ctx| n.on_message(ctx, from, msg));
        }
        if !self.ingress[idx].is_empty() {
            self.push_wake(self.busy_until[idx], node);
        }
    }

    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<M>, &mut Context<'_, M>),
    {
        let idx = id.0 as usize;
        let mut ctx = Context {
            now: self.now,
            outbox: std::mem::take(&mut self.outbox),
            timers: std::mem::take(&mut self.timers),
            busy_for: SimDuration::ZERO,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
        };
        // `ctx` borrows `rng` and `metrics` only: the node is a
        // disjoint field and is borrowed where it stands.
        f(self.nodes[idx].as_mut(), &mut ctx);

        let Context {
            mut outbox,
            mut timers,
            busy_for,
            ..
        } = ctx;
        if busy_for > SimDuration::ZERO {
            self.busy_until[idx] = self.now + busy_for;
        }
        for (delay, to, msg) in outbox.drain(..) {
            if !self.partitioned.is_empty() && self.partitioned.contains(&Self::pair_key(id, to)) {
                self.metrics.bump(self.counters.partition_drops);
                continue;
            }
            let link = self.link(id, to);
            if link.loss > 0.0 && self.rng.gen::<f64>() < link.loss {
                self.metrics.bump(self.counters.link_drops);
                continue;
            }
            let at = self.now + delay + link.latency;
            let ev = self.stamp(at, EventKind::Deliver { from: id, to, msg });
            if delay == SimDuration::ZERO
                && link.latency == self.default_latency
                && self.in_flight.back().is_none_or(|tail| at >= tail.time)
            {
                self.in_flight.push_back(ev);
            } else {
                self.push_heap(ev);
            }
        }
        for (delay, token) in timers.drain(..) {
            let at = self.now + delay;
            self.push(at, EventKind::Timer { node: id, token });
        }
        self.outbox = outbox;
        self.timers = timers;
    }

    /// Runs until nothing is pending or `deadline` passes; returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(ev) = self.pop_due(deadline) {
            self.fire(ev);
            n += 1;
        }
        // Advance the clock even if nothing fired at the deadline.
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Runs until nothing is pending; returns events processed.
    /// `max_events` guards against livelock in tests.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        assert!(
            self.queue.is_empty()
                && self.wakes.is_empty()
                && self.schedule.is_empty()
                && self.in_flight.is_empty(),
            "simulation exceeded {max_events} events"
        );
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Echoes every number back to the sender, incremented, until 10.
    struct Counter {
        me: NodeId,
        log: Rc<RefCell<Vec<(u64, u32)>>>,
    }

    impl Node<u32> for Counter {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.log.borrow_mut().push((ctx.now().as_nanos(), msg));
            if msg < 10 && from != NodeId::EXTERNAL {
                ctx.send(from, msg + 1);
            } else if msg < 10 {
                ctx.send(self.me, msg + 1); // self-ping for external kick
            }
        }
    }

    #[test]
    fn ping_pong_advances_time_by_latency() {
        let mut sim = Simulator::new(7);
        let log_a = Rc::new(RefCell::new(Vec::new()));
        let log_b = Rc::new(RefCell::new(Vec::new()));
        let a = sim.add_node(Box::new(Counter {
            me: NodeId(0),
            log: log_a.clone(),
        }));
        let b = sim.add_node(Box::new(Counter {
            me: NodeId(1),
            log: log_b.clone(),
        }));
        sim.set_link(a, b, SimDuration::from_millis(1), 0.0);
        sim.set_link(b, a, SimDuration::from_millis(1), 0.0);
        // Kick: external → a delivers 0, then a/b ping-pong to 10.
        sim.inject_at(SimTime::ZERO, b, 99); // b logs 99, no reply (>=10)
        sim.inject_at(SimTime::ZERO, a, 0); // a self-pings 1.. no wait

        // Instead drive a → b manually: a receives 0 (external), self-ping.
        let n = sim.run_to_completion(1000);
        assert!(n > 0);
        assert!(log_b.borrow().iter().any(|&(_, m)| m == 99));
    }

    /// Node that replies to any message; used to observe link latency.
    /// Tests add two nodes, so `peer` is the other one's id.
    struct Echo {
        peer: NodeId,
    }
    impl Node<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            if from != NodeId::EXTERNAL && msg > 0 {
                ctx.send(from, msg - 1);
            } else if from == NodeId::EXTERNAL {
                // Start the exchange with the other node.
                ctx.send(self.peer, msg);
            }
        }
    }

    #[test]
    fn latency_accumulates_per_hop() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo { peer: NodeId(1) }));
        let b = sim.add_node(Box::new(Echo { peer: NodeId(0) }));
        sim.set_link(a, b, SimDuration::from_millis(10), 0.0);
        sim.set_link(b, a, SimDuration::from_millis(10), 0.0);
        // Injection delivers at the given instant; a→b:4, b→a:3, … 5 hops.
        sim.inject_at(SimTime::ZERO, a, 4);
        sim.run_to_completion(100);
        assert_eq!(sim.now().as_nanos(), 5 * 10_000_000);
    }

    struct Busy {
        served_at: Rc<RefCell<Vec<u64>>>,
    }
    impl Node<u32> for Busy {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, _: u32) {
            self.served_at.borrow_mut().push(ctx.now().as_nanos());
            ctx.busy(SimDuration::from_millis(5));
        }
    }

    #[test]
    fn busy_cpu_serializes_deliveries() {
        let mut sim = Simulator::new(2);
        let served = Rc::new(RefCell::new(Vec::new()));
        let n = sim.add_node(Box::new(Busy {
            served_at: served.clone(),
        }));
        // Three messages injected at the same instant.
        for _ in 0..3 {
            sim.inject_at(SimTime::ZERO, n, 1);
        }
        sim.run_to_completion(100);
        let served = served.borrow();
        assert_eq!(served.len(), 3);
        // Simultaneous arrivals serialize behind the 5 ms service time.
        assert_eq!(served[0], 0);
        assert_eq!(served[1], 5_000_000);
        assert_eq!(served[2], 10_000_000);
    }

    #[test]
    fn bounded_ingress_queue_tail_drops_and_tracks_peak() {
        let mut sim = Simulator::new(2);
        let served = Rc::new(RefCell::new(Vec::new()));
        let n = sim.add_node(Box::new(Busy {
            served_at: served.clone(),
        }));
        sim.set_ingress_cap(n, 1);
        // Four simultaneous arrivals: one serves, one queues, two drop.
        for _ in 0..4 {
            sim.inject_at(SimTime::ZERO, n, 1);
        }
        sim.run_to_completion(100);
        assert_eq!(served.borrow().len(), 2);
        assert_eq!(sim.ingress_drops(n), 2);
        assert_eq!(sim.metrics().counter("simnet.ingress_drops"), 2);
        assert_eq!(sim.ingress_peak(n), 1, "never more than cap queued");
        assert_eq!(sim.ingress_depth(n), 0, "queue drained by end of run");
        // A fresh arrival after the backlog clears is served normally.
        let t = sim.now() + SimDuration::from_secs(1);
        sim.inject_at(t, n, 1);
        sim.run_to_completion(100);
        assert_eq!(served.borrow().len(), 3);
        assert_eq!(sim.ingress_drops(n), 2);
    }

    type ServedLog = Rc<RefCell<Vec<(u64, u32)>>>;

    /// Logs `(now_ms, msg)` and keeps the CPU busy for `msg` milliseconds.
    struct Server {
        served: ServedLog,
    }
    impl Node<u32> for Server {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, msg: u32) {
            let now_ms = ctx.now().as_nanos() / 1_000_000;
            self.served.borrow_mut().push((now_ms, msg));
            ctx.busy(SimDuration::from_millis(msg as u64));
        }
    }

    fn server_sim() -> (Simulator<u32>, NodeId, ServedLog) {
        let mut sim = Simulator::new(2);
        let served = Rc::new(RefCell::new(Vec::new()));
        let n = sim.add_node(Box::new(Server {
            served: served.clone(),
        }));
        (sim, n, served)
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn ingress_queue_is_fifo_and_late_arrivals_go_behind() {
        let (mut sim, n, served) = server_sim();
        for msg in [5, 6, 7] {
            sim.inject_at(SimTime::ZERO, n, msg);
        }
        // Arrives mid-backlog: behind the two already parked.
        sim.inject_at(at_ms(8), n, 1);
        sim.run_until(at_ms(9));
        assert_eq!(sim.ingress_depth(n), 2, "7 and the late arrival wait");
        sim.run_to_completion(100);
        assert_eq!(*served.borrow(), [(0, 5), (5, 6), (11, 7), (18, 1)]);
    }

    #[test]
    fn arrival_scheduled_for_the_instant_the_cpu_frees_wins_the_tie() {
        // 9 is due at exactly busy_until and was scheduled before 6 was
        // parked (older seq): it is served first and 6 waits once more.
        let (mut sim, n, served) = server_sim();
        sim.inject_at(SimTime::ZERO, n, 5);
        sim.inject_at(SimTime::ZERO, n, 6);
        sim.inject_at(at_ms(5), n, 9);
        sim.run_to_completion(100);
        assert_eq!(*served.borrow(), [(0, 5), (5, 9), (14, 6)]);
    }

    #[test]
    fn handler_without_busy_drains_the_queue_at_one_instant() {
        let (mut sim, n, served) = server_sim();
        sim.inject_at(SimTime::ZERO, n, 5);
        for _ in 0..3 {
            sim.inject_at(at_ms(1), n, 0);
        }
        sim.run_until(at_ms(4));
        assert_eq!(sim.ingress_depth(n), 3);
        sim.run_to_completion(100);
        assert_eq!(*served.borrow(), [(0, 5), (5, 0), (5, 0), (5, 0)]);
        assert_eq!(sim.events_processed(), 5, "4 deliveries and one wake");
    }

    #[test]
    fn crash_drops_parked_deliveries_unless_restarted_in_time() {
        // Down past the old busy_until: everything parked is lost.
        let (mut sim, n, served) = server_sim();
        sim.inject_at(SimTime::ZERO, n, 10);
        for _ in 0..3 {
            sim.inject_at(at_ms(1), n, 1);
        }
        sim.schedule_faults(&FaultPlan::new().reboot(n, at_ms(2), at_ms(20)));
        sim.inject_at(at_ms(30), n, 2);
        sim.run_until(at_ms(9));
        assert_eq!(sim.ingress_depth(n), 3, "parked until their turn comes");
        sim.run_to_completion(100);
        assert_eq!(sim.metrics().counter("simnet.fault_msg_drops"), 3);
        assert_eq!(sim.ingress_depth(n), 0);
        assert_eq!(*served.borrow(), [(0, 10), (30, 2)]);

        // Back up before the old busy_until: the parked three survive.
        let (mut sim, n, served) = server_sim();
        sim.inject_at(SimTime::ZERO, n, 10);
        for _ in 0..3 {
            sim.inject_at(at_ms(1), n, 1);
        }
        sim.schedule_faults(&FaultPlan::new().reboot(n, at_ms(2), at_ms(4)));
        sim.run_to_completion(100);
        assert_eq!(sim.metrics().counter("simnet.fault_msg_drops"), 0);
        assert_eq!(*served.borrow(), [(0, 10), (10, 1), (11, 1), (12, 1)]);
    }

    #[test]
    fn backlog_costs_a_constant_number_of_events_per_delivery() {
        // One delivery event each plus one wake per service; re-parking
        // the whole queue on every service took ~500,000 events here.
        let (mut sim, n, served) = server_sim();
        for _ in 0..1_000 {
            sim.inject_at(SimTime::ZERO, n, 1);
        }
        sim.run_to_completion(3_000);
        assert_eq!(served.borrow().len(), 1_000);
        assert_eq!(sim.ingress_peak(n), 999);
        assert!(sim.events_processed() <= 3_000);
    }

    #[test]
    fn shard_faults_reach_the_node_without_downing_it() {
        let mut sim = Simulator::new(12);
        let log = Rc::new(RefCell::new(Vec::new()));
        let n = sim.add_node(Box::new(FaultProbe { log: log.clone() }));
        let plan = FaultPlan::new()
            .shard_outage(n, 2, SimTime::from_nanos(1_000), SimTime::from_nanos(2_000))
            .shard_partition_window(n, 0, SimTime::from_nanos(3_000), SimTime::from_nanos(4_000));
        sim.schedule_faults(&plan);
        // Delivered mid-outage: shard faults never down the node.
        sim.inject_at(SimTime::from_nanos(1_500), n, 5);
        sim.run_to_completion(100);
        let log = log.borrow();
        assert!(log.iter().any(|e| e.starts_with("ShardCrash(2)@1000")));
        assert!(log.iter().any(|e| e.starts_with("ShardRestart(2)@2000")));
        assert!(log.iter().any(|e| e.starts_with("ShardPartition(0)@3000")));
        assert!(log.iter().any(|e| e.starts_with("ShardHeal(0)@4000")));
        assert!(log.iter().any(|e| e.starts_with("msg:5")));
        assert_eq!(sim.metrics().counter("simnet.shard_crashes"), 1);
        assert_eq!(sim.metrics().counter("simnet.shard_restarts"), 1);
        assert_eq!(sim.metrics().counter("simnet.node_crashes"), 0);
        assert!(!sim.node_down[n.0 as usize]);
    }

    struct TimerNode {
        fired: Rc<RefCell<Vec<(u64, u64)>>>,
    }
    impl Node<u32> for TimerNode {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, _: u32) {
            ctx.set_timer(SimDuration::from_secs(1), 42);
            ctx.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, token: u64) {
            self.fired.borrow_mut().push((ctx.now().as_nanos(), token));
        }
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        let mut sim = Simulator::new(3);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let n = sim.add_node(Box::new(TimerNode {
            fired: fired.clone(),
        }));
        sim.inject_at(SimTime::ZERO, n, 0);
        sim.run_to_completion(100);
        let fired = fired.borrow();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].1, 7);
        assert_eq!(fired[1].1, 42);
        assert!(fired[0].0 < fired[1].0);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        // With the same seed, two runs drop the same messages.
        let run = |seed: u64| -> u64 {
            let mut sim = Simulator::new(seed);
            let sink = sim.add_node(Box::new(Echo { peer: NodeId(1) }));
            let src = sim.add_node(Box::new(Echo { peer: NodeId(0) }));
            sim.set_link(src, sink, SimDuration::from_micros(10), 0.5);
            for _ in 0..100 {
                sim.inject_at(SimTime::ZERO, src, 1);
            }
            sim.run_to_completion(10_000);
            sim.metrics().counter("simnet.link_drops")
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same seed must reproduce exactly");
        assert!(a > 10 && a < 90, "drop count {a} should be near 50");
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    /// Absorbs messages without replying.
    struct Sink;
    impl Node<u32> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim: Simulator<u32> = Simulator::new(4);
        let n = sim.add_node(Box::new(Sink));
        sim.inject_at(SimTime::from_nanos(5_000_000_000), n, 0);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        assert_eq!(sim.now().as_nanos(), 1_000_000_000);
        // Event still pending; completes later.
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        assert!(sim.events_processed() >= 1);
    }

    /// `(schedule, in_flight, heap, wakes)` occupancy.
    fn pending(sim: &Simulator<u32>) -> (usize, usize, usize, usize) {
        let (queue, wakes) = (sim.queue.len(), sim.wakes.len());
        (sim.schedule.len(), sim.in_flight.len(), queue, wakes)
    }

    #[test]
    fn scheduled_and_queued_events_at_one_instant_fire_in_seq_order() {
        // Scheduled event older than the wake: the tie test above (9
        // rides the schedule, the wake for 6 is in the wake lane). Here
        // the wake is older: 1 parks behind 5 and its wake for t = 5 is
        // queued before 9 is scheduled for the same instant.
        let (mut sim, n, served) = server_sim();
        sim.inject_at(SimTime::ZERO, n, 5);
        sim.inject_at(at_ms(1), n, 1);
        sim.run_until(at_ms(2));
        assert_eq!(pending(&sim), (0, 0, 0, 1));
        sim.inject_at(at_ms(5), n, 9);
        assert_eq!(pending(&sim), (1, 0, 0, 1));
        sim.run_to_completion(100);
        assert_eq!(*served.borrow(), [(0, 5), (5, 1), (6, 9)]);
    }

    #[test]
    fn injection_earlier_than_the_schedules_tail_takes_the_heap_and_fires_first() {
        let (mut sim, n, served) = server_sim();
        assert!(!sim.step(), "nothing pending yet");
        sim.inject_at(at_ms(50), n, 1);
        sim.inject_at(at_ms(20), n, 2); // behind the tail
        sim.inject_at(at_ms(50), n, 3); // ties with the tail
        sim.inject_at(at_ms(20), n, 4);
        assert_eq!(pending(&sim), (2, 0, 2, 0));
        assert!(sim.step() && sim.step(), "both from the heap");
        assert_eq!(pending(&sim), (2, 0, 0, 1), "4 parked behind 2: one wake");
        sim.run_to_completion(100);
        assert_eq!(*served.borrow(), [(20, 2), (22, 4), (50, 1), (51, 3)]);
        assert!(!sim.step(), "schedule and heap both empty");
    }

    #[test]
    fn run_until_holds_the_deadline_on_the_schedule_too() {
        let (mut sim, n, served) = server_sim();
        sim.inject_at(at_ms(100), n, 0);
        sim.inject_at(at_ms(100) + SimDuration::from_nanos(1), n, 0);
        assert_eq!(sim.run_until(at_ms(100)), 1, "at the deadline fires");
        assert_eq!(pending(&sim), (1, 0, 0, 0), "one past it stays pending");
        assert_eq!(sim.now(), at_ms(100));
        assert_eq!(sim.run_until(at_ms(200)), 1);
        assert_eq!((served.borrow().len(), sim.now()), (2, at_ms(200)));
    }

    #[test]
    fn external_timers_and_faults_share_the_door_with_injections() {
        let mut sim = Simulator::new(6);
        let log = Rc::new(RefCell::new(Vec::new()));
        let n = sim.add_node(Box::new(FaultProbe { log: log.clone() }));
        sim.arm_timer_at(SimTime::from_nanos(30), n, 7);
        sim.inject_fault_at(SimTime::from_nanos(40), Fault::ShardCrash(n, 0));
        sim.inject_at(SimTime::from_nanos(40), n, 1);
        assert_eq!(pending(&sim), (3, 0, 0, 0));
        sim.arm_timer_at(SimTime::from_nanos(10), n, 8);
        sim.inject_fault_at(SimTime::from_nanos(35), Fault::ShardHeal(n, 0));
        assert_eq!(pending(&sim), (3, 0, 2, 0));
        sim.run_to_completion(10);
        let want = [
            "tick@10",
            "tick@30",
            "ShardHeal(0)@35",
            "ShardCrash(0)@40",
            "msg:1@40",
        ];
        assert_eq!(*log.borrow(), want);
    }

    /// Passes every external message on to node 0 after `delay`.
    struct Forward {
        delay: SimDuration,
    }
    impl Node<u32> for Forward {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            if from == NodeId::EXTERNAL {
                ctx.send_after(self.delay, NodeId(0), msg);
            }
        }
    }

    /// [`server_sim`] plus an undelayed [`Forward`]; default latency 1 ms.
    fn forwarding_sim() -> (Simulator<u32>, NodeId, NodeId, ServedLog) {
        let (mut sim, n, served) = server_sim();
        sim.set_default_latency(SimDuration::from_millis(1));
        let fwd = sim.add_node(Box::new(Forward {
            delay: SimDuration::ZERO,
        }));
        (sim, n, fwd, served)
    }

    #[test]
    fn lane_schedule_and_heap_events_at_one_instant_fire_in_seq_order() {
        // Due at t = 5, oldest first: the wake for 1 (wake lane), 2 sent
        // at t = 4 (lane), 9 injected once the run reached t = 4
        // (schedule) — the reverse of the order the chooser lists its
        // containers.
        let (mut sim, n, fwd, served) = forwarding_sim();
        sim.inject_at(SimTime::ZERO, n, 5);
        sim.inject_at(at_ms(1), n, 1);
        sim.inject_at(at_ms(4), fwd, 2);
        sim.run_until(at_ms(4));
        assert_eq!(pending(&sim), (0, 1, 0, 1));
        sim.inject_at(at_ms(5), n, 9);
        assert_eq!(pending(&sim), (1, 1, 0, 1));
        sim.run_to_completion(100);
        assert_eq!(*served.borrow(), [(0, 5), (5, 1), (6, 2), (8, 9)]);

        // Due at t = 1: 2, sent at t = 0 (lane), is older than the wake
        // for 3, parked at t = 0.5 (wake lane).
        let (mut sim, n, fwd, served) = forwarding_sim();
        sim.inject_at(SimTime::ZERO, fwd, 2);
        sim.inject_at(SimTime::ZERO, n, 1);
        sim.inject_at(SimTime::from_nanos(500_000), n, 3);
        sim.run_until(SimTime::from_nanos(500_000));
        assert_eq!(pending(&sim), (0, 1, 0, 1));
        sim.run_to_completion(100);
        assert_eq!(*served.borrow(), [(0, 1), (1, 2), (3, 3)]);
    }

    #[test]
    fn a_lowered_default_latency_sends_later_deliveries_to_the_heap() {
        let (mut sim, _, fwd, served) = forwarding_sim();
        sim.set_default_latency(SimDuration::from_millis(10));
        sim.inject_at(SimTime::ZERO, fwd, 0); // lands at 10
        sim.run_until(SimTime::ZERO);
        sim.set_default_latency(SimDuration::from_millis(2));
        sim.inject_at(at_ms(2), fwd, 0); // lands at 4, before the tail
        sim.inject_at(at_ms(3), fwd, 0); // lands at 5
        sim.run_until(at_ms(3));
        assert_eq!(pending(&sim), (0, 1, 2, 0));
        sim.inject_at(at_ms(12), fwd, 0); // the lane has drained: lands at 14
        sim.run_until(at_ms(12));
        assert_eq!(pending(&sim), (0, 1, 0, 0));
        sim.run_to_completion(100);
        let times: Vec<u64> = served.borrow().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, [4, 5, 10, 14]);
        assert_eq!(sim.metrics().counter("simnet.heap_events"), 2);
    }

    /// One log for every node of [`wake_heap_and_lane_events_at_one_instant_fire_in_seq_order`].
    type SharedLog = Rc<RefCell<Vec<String>>>;

    /// Serves each message for `msg` ms, logging `serve<msg>@<µs>`.
    struct Clerk {
        log: SharedLog,
    }
    impl Node<u32> for Clerk {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, msg: u32) {
            let us = ctx.now().as_nanos() / 1_000;
            self.log.borrow_mut().push(format!("serve{msg}@{us}"));
            ctx.busy(SimDuration::from_millis(msg as u64));
        }
    }

    /// Arms a timer `msg` µs out on every message, logging `tick@<µs>`.
    struct Ticker {
        log: SharedLog,
    }
    impl Node<u32> for Ticker {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, msg: u32) {
            ctx.set_timer(SimDuration::from_micros(msg as u64), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: u64) {
            let us = ctx.now().as_nanos() / 1_000;
            self.log.borrow_mut().push(format!("tick@{us}"));
        }
    }

    #[test]
    fn wake_heap_and_lane_events_at_one_instant_fire_in_seq_order() {
        // A wake (wake lane), a timer (heap) and a delivery (in-flight
        // lane) all due at t = 5 ms, stamped in three different orders
        // by when each was queued. 5 keeps the clerk busy until t = 5;
        // the forward of 2 leaves at t = 4 over the 1 ms default link.
        let run = |injections: [(u64, usize, u32); 3], want: [&str; 4]| {
            let mut sim = Simulator::new(13);
            sim.set_default_latency(SimDuration::from_millis(1));
            let log = SharedLog::default();
            let clerk = sim.add_node(Box::new(Clerk { log: log.clone() }));
            let fwd = sim.add_node(Box::new(Forward {
                delay: SimDuration::ZERO,
            }));
            let ticker = sim.add_node(Box::new(Ticker { log: log.clone() }));
            sim.inject_at(SimTime::ZERO, clerk, 5);
            for (at_us, to, msg) in injections {
                let to = [clerk, fwd, ticker][to];
                sim.inject_at(SimTime::from_nanos(at_us * 1_000), to, msg);
            }
            sim.run_until(SimTime::from_nanos(4_999_999));
            assert_eq!(pending(&sim), (0, 1, 1, 1), "one in each run-time lane");
            sim.run_to_completion(100);
            assert_eq!(*log.borrow(), want);
        };
        let (clerk, fwd, ticker) = (0, 1, 2);
        // Wake, then timer, then delivery: 1 is served at 5 and holds
        // the CPU, so 2 parks until 6.
        run(
            [(1_000, clerk, 1), (2_000, ticker, 3_000), (4_000, fwd, 2)],
            ["serve5@0", "serve1@5000", "tick@5000", "serve2@6000"],
        );
        // Delivery, then wake, then timer: 2 takes the CPU at 5 and the
        // wake finds it busy and re-arms for 7.
        run(
            [(4_000, fwd, 2), (4_500, clerk, 1), (4_600, ticker, 400)],
            ["serve5@0", "serve2@5000", "tick@5000", "serve1@7000"],
        );
        // Timer, then delivery, then wake.
        run(
            [(500, ticker, 4_500), (4_000, fwd, 2), (4_500, clerk, 1)],
            ["serve5@0", "tick@5000", "serve2@5000", "serve1@7000"],
        );
    }

    #[test]
    fn only_an_undelayed_send_over_a_default_latency_link_rides_the_lane() {
        let (mut sim, n, served) = server_sim();
        let forward = |delay| Box::new(Forward { delay });
        let configured = sim.add_node(forward(SimDuration::ZERO));
        let unconfigured = sim.add_node(forward(SimDuration::ZERO));
        let slower = sim.add_node(forward(SimDuration::ZERO));
        let delayed = sim.add_node(forward(SimDuration::from_nanos(1)));
        sim.set_link(configured, n, SimDuration::from_micros(50), 0.0);
        sim.set_link(slower, n, SimDuration::from_micros(60), 0.0);
        for node in [configured, unconfigured, slower, delayed] {
            sim.inject_at(SimTime::ZERO, node, 0);
        }
        sim.run_until(SimTime::ZERO);
        assert_eq!(pending(&sim), (0, 2, 2, 0));
        sim.run_to_completion(100);
        assert_eq!(served.borrow().len(), 4);
        assert_eq!(sim.metrics().counter("simnet.heap_events"), 2);
    }

    #[test]
    fn a_crash_drops_lane_and_heap_deliveries_alike() {
        let (mut sim, n, fwd, served) = forwarding_sim();
        let slow = sim.add_node(Box::new(Forward {
            delay: SimDuration::ZERO,
        }));
        sim.set_link(slow, n, SimDuration::from_millis(2), 0.0);
        sim.inject_at(SimTime::ZERO, fwd, 0);
        sim.inject_at(SimTime::ZERO, slow, 0);
        sim.schedule_faults(&FaultPlan::new().reboot(n, SimTime::from_nanos(1), at_ms(3)));
        sim.run_until(SimTime::ZERO);
        assert_eq!(pending(&sim), (2, 1, 1, 0), "crash and restart, lane, heap");
        sim.inject_at(at_ms(4), fwd, 7);
        sim.run_to_completion(100);
        assert_eq!(sim.metrics().counter("simnet.fault_msg_drops"), 2);
        assert_eq!(*served.borrow(), [(5, 7)]);
    }

    #[test]
    fn a_default_link_ping_pong_never_touches_the_heap() {
        // External kick, then a→b:4, b→a:3, … five sends.
        let run = |link: Option<SimDuration>| {
            let mut sim = Simulator::new(1);
            let a = sim.add_node(Box::new(Echo { peer: NodeId(1) }));
            let b = sim.add_node(Box::new(Echo { peer: NodeId(0) }));
            if let Some(latency) = link {
                sim.set_link(a, b, latency, 0.0);
                sim.set_link(b, a, latency, 0.0);
            }
            sim.inject_at(SimTime::ZERO, a, 4);
            sim.run_to_completion(100);
            let heap = sim.metrics().counter("simnet.heap_events");
            (sim.events_processed(), heap)
        };
        assert_eq!(run(None), (6, 0));
        assert_eq!(run(Some(SimDuration::from_millis(10))), (6, 5));
    }

    #[test]
    fn run_to_completion_accepts_an_exact_fit_budget() {
        let mut sim: Simulator<u32> = Simulator::new(4);
        let n = sim.add_node(Box::new(Sink));
        for _ in 0..3 {
            sim.inject_at(SimTime::ZERO, n, 0);
        }
        assert_eq!(sim.run_to_completion(3), 3);
    }

    #[test]
    #[should_panic(expected = "simulation exceeded 2 events")]
    fn run_to_completion_panics_when_events_remain() {
        let mut sim: Simulator<u32> = Simulator::new(4);
        let n = sim.add_node(Box::new(Sink));
        for _ in 0..3 {
            sim.inject_at(SimTime::ZERO, n, 0);
        }
        sim.run_to_completion(2);
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn injecting_into_past_panics() {
        let mut sim: Simulator<u32> = Simulator::new(5);
        let n = sim.add_node(Box::new(Sink));
        sim.inject_at(SimTime::from_nanos(100), n, 0);
        sim.run_to_completion(10);
        sim.inject_at(SimTime::from_nanos(50), n, 0);
    }

    /// Logs deliveries, timer ticks and fault events; re-arms a 1 s tick.
    struct FaultProbe {
        log: Rc<RefCell<Vec<String>>>,
    }
    impl Node<u32> for FaultProbe {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, msg: u32) {
            self.log
                .borrow_mut()
                .push(format!("msg:{msg}@{}", ctx.now().as_nanos()));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, token: u64) {
            self.log
                .borrow_mut()
                .push(format!("tick@{}", ctx.now().as_nanos()));
            if token == 1 && ctx.now() < SimTime::from_nanos(3_500_000_000) {
                ctx.set_timer(SimDuration::from_secs(1), 1);
            }
        }
        fn on_fault(&mut self, ctx: &mut Context<'_, u32>, fault: FaultEvent) {
            self.log
                .borrow_mut()
                .push(format!("{fault:?}@{}", ctx.now().as_nanos()));
        }
    }

    #[test]
    fn crash_drops_deliveries_but_timers_survive() {
        let mut sim = Simulator::new(9);
        let log = Rc::new(RefCell::new(Vec::new()));
        let n = sim.add_node(Box::new(FaultProbe { log: log.clone() }));
        sim.arm_timer_at(SimTime::ZERO, n, 1);
        let plan = FaultPlan::new().reboot(
            n,
            SimTime::from_nanos(500_000_000),
            SimTime::from_nanos(2_500_000_000),
        );
        sim.schedule_faults(&plan);
        // One message while down (dropped), one after restart (delivered).
        sim.inject_at(SimTime::from_nanos(1_000_000_000), n, 7);
        sim.inject_at(SimTime::from_nanos(3_000_000_000), n, 8);
        sim.run_to_completion(100);

        let log = log.borrow();
        assert!(log.iter().any(|e| e.starts_with("Crash@500000000")));
        assert!(log.iter().any(|e| e.starts_with("Restart@2500000000")));
        assert!(
            !log.iter().any(|e| e.starts_with("msg:7")),
            "down node got a message: {log:?}"
        );
        assert!(log.iter().any(|e| e.starts_with("msg:8")));
        // Ticks at 1 s and 2 s fired even though the node was down.
        assert!(log.iter().any(|e| e == "tick@1000000000"));
        assert!(log.iter().any(|e| e == "tick@2000000000"));
        assert_eq!(sim.metrics().counter("simnet.fault_msg_drops"), 1);
        assert_eq!(sim.metrics().counter("simnet.node_crashes"), 1);
        assert_eq!(sim.metrics().counter("simnet.node_restarts"), 1);
        assert!(!sim.node_down[n.0 as usize]);
    }

    #[test]
    fn partition_cuts_both_directions_until_heal() {
        let mut sim = Simulator::new(10);
        let a = sim.add_node(Box::new(Echo { peer: NodeId(1) }));
        let b = sim.add_node(Box::new(Echo { peer: NodeId(0) }));
        sim.set_link(a, b, SimDuration::from_micros(10), 0.0);
        sim.set_link(b, a, SimDuration::from_micros(10), 0.0);
        let plan = FaultPlan::new().partition_window(
            a,
            b,
            SimTime::from_nanos(0),
            SimTime::from_nanos(1_000_000),
        );
        sim.schedule_faults(&plan);
        sim.run_until(SimTime::from_nanos(10)); // apply the partition
                                                // External kick makes a send to b — dropped at the cut link.
        sim.inject_at(SimTime::from_nanos(100), a, 3);
        sim.run_until(SimTime::from_nanos(500_000));
        assert_eq!(sim.metrics().counter("simnet.partition_drops"), 1);
        // After the heal, the same exchange completes.
        sim.inject_at(SimTime::from_nanos(2_000_000), a, 3);
        sim.run_to_completion(100);
        assert_eq!(sim.metrics().counter("simnet.partition_drops"), 1);
        assert_eq!(sim.metrics().counter("simnet.links_cut"), 1);
        assert_eq!(sim.metrics().counter("simnet.links_healed"), 1);
    }

    #[test]
    fn loss_spike_and_default_loss_are_deterministic() {
        let run = |seed: u64| -> (u64, u64) {
            let mut sim = Simulator::new(seed);
            let sink = sim.add_node(Box::new(Sink));
            let src = sim.add_node(Box::new(Echo { peer: NodeId(0) }));
            // Fabric-wide 50% loss for the first half of the run.
            let plan = FaultPlan::new().default_loss_window(
                0.5,
                SimTime::ZERO,
                SimTime::from_nanos(1_000_000),
            );
            sim.schedule_faults(&plan);
            let _ = sink;
            for i in 0..200 {
                let at = SimTime::from_nanos(i * 10_000);
                sim.inject_at(at, src, 1);
            }
            sim.run_to_completion(10_000);
            (
                sim.metrics().counter("simnet.link_drops"),
                sim.metrics().counter("simnet.faults_injected"),
            )
        };
        let (drops_a, faults_a) = run(21);
        let (drops_b, _) = run(21);
        assert_eq!(drops_a, drops_b, "same seed must replay identically");
        assert_eq!(faults_a, 2);
        assert!(
            drops_a > 10 && drops_a < 90,
            "~50% of first-half sends drop, got {drops_a}"
        );
    }

    #[test]
    fn latency_fault_preserves_loss() {
        let mut sim = Simulator::new(11);
        let a = sim.add_node(Box::new(Echo { peer: NodeId(1) }));
        let b = sim.add_node(Box::new(Sink));
        sim.set_link(a, b, SimDuration::from_micros(10), 0.0);
        sim.inject_fault_at(
            SimTime::ZERO,
            Fault::Latency {
                a,
                b,
                latency: SimDuration::from_millis(5),
            },
        );
        sim.inject_at(SimTime::from_nanos(10), a, 1);
        sim.run_to_completion(100);
        // Echo's send a→b rides the spiked 5 ms latency.
        assert_eq!(sim.now().as_nanos(), 10 + 5_000_000);
    }
}
