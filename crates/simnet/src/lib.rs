//! # sda-simnet
//!
//! A deterministic discrete-event network simulator: the substrate every
//! experiment in this reproduction runs on (the paper ran on physical
//! testbeds and a commercial traffic generator).
//!
//! Design:
//!
//! * **Single-threaded, seeded, deterministic.** Events fire in one
//!   total order, `(time, sequence)`: ties break by insertion order, and
//!   all randomness flows from one [`rand::rngs::SmallRng`] seeded per
//!   scenario, so a run is a pure function of `(scenario, seed)`. The
//!   queue behind that order is four containers and one chooser that
//!   takes the smallest `(time, sequence)` of their fronts. What a
//!   driver schedules from outside ([`Simulator::inject_at`],
//!   [`Simulator::arm_timer_at`], `Simulator::inject_fault_at`) *in
//!   nondecreasing time order* sits in one FIFO, the schedule. What a
//!   node sends with no extra delay over a link of the default latency
//!   sits in a second, the in-flight lane: each such delivery is due at
//!   `now + default latency`, and `now` never falls, so they arrive in
//!   order. A node's wake (see *Overload model*) sits in a small heap of
//!   its own, the wake lane — at most one per node with deliveries
//!   parked, `(time, sequence, node)` and no payload. Everything else —
//!   timers, [`Context::send_after`], per-link latencies, an injection
//!   earlier than the schedule's tail, a delivery earlier than the
//!   lane's tail — sits in the main binary heap (counted in
//!   `simnet.heap_events`). All four draw `sequence` from one counter,
//!   so which container holds an event never changes when it fires; a
//!   run's order is pinned by [`Simulator::event_digest`], a fold of
//!   every fired event's `(time, sequence, node, kind)`. The FIFOs keep
//!   a schedule injected hours ahead out of the way of deliveries due in
//!   microseconds, and keep those deliveries, which are most of a run,
//!   out of the heap altogether: about two thirds of `fabric_storm`'s
//!   run-time events and 97 % of `fabric_traffic`'s are default-link
//!   deliveries and never sift; the wake lane keeps the storm's wakes,
//!   about half of what would otherwise be pushed, from sifting through
//!   the timers' few hundred entries. The containers split events by
//!   *kind*, never by due time: it is **not** a calendar queue — no
//!   buckets, no width to tune, no knob at all — and same-instant
//!   events are never reordered.
//! * **Poll-free node model.** Nodes implement [`Node`] and react to
//!   delivered messages and timers; they emit new messages through the
//!   [`Context`] handed to every callback (the smoltcp-style "state
//!   machine + explicit environment" shape, adapted from event-driven
//!   stack design).
//! * **Control-plane queueing.** Each node models a single-server FIFO
//!   control CPU: handlers call [`Context::busy`] to account processing
//!   time, and deliveries that arrive while the CPU is busy wait in line
//!   (see *Overload model* for the queue's contract).
//!   This is what makes *load* translate into *convergence delay
//!   variance*, the effect behind Fig. 11's BGP-vs-LISP gap.
//! * **Links.** Latency per directed pair with a default, plus optional
//!   deterministic-seeded loss.
//!
//! ## Fault model
//!
//! Chaos experiments are scripted through a [`FaultPlan`] — a list of
//! `(time, `[`Fault`]`)` pairs scheduled into the ordinary event queue
//! with [`Simulator::schedule_faults`], so fault timing is subject to the
//! same total order and the same seeded RNG as everything else: a chaos
//! run replays bit-identically from `(scenario, seed, plan)`.
//!
//! * **Crash / restart** ([`Fault::Crash`], [`Fault::Restart`]). While a
//!   node is down, every delivery addressed to it — including messages
//!   already in flight — is dropped (`simnet.fault_msg_drops`) and its
//!   control-CPU backlog is discarded (how exactly: *Crash and restart*
//!   under the overload model). Timers still fire, so periodic
//!   re-arm discipline survives the outage; the node is told about both
//!   transitions via [`Node::on_fault`] and models volatile-state loss
//!   there (a restarted node must rebuild from whatever it considers
//!   non-volatile, e.g. configuration and local endpoint inventory).
//! * **Partition / heal** ([`Fault::Partition`], [`Fault::Heal`]). Cuts
//!   an unordered node pair: sends in either direction are dropped at
//!   the sender's link (`simnet.partition_drops`) until healed.
//! * **Loss / latency spikes** ([`Fault::Loss`], [`Fault::Latency`],
//!   [`Fault::DefaultLoss`]). Rewrite link parameters on a schedule,
//!   per-pair or fabric-wide; loss draws come from the scenario RNG, so
//!   which packets die is deterministic per seed.
//! * **Shard faults** ([`Fault::ShardCrash`], [`Fault::ShardRestart`],
//!   [`Fault::ShardPartition`], [`Fault::ShardHeal`]). Scoped to one
//!   internal shard of a node that models a partitioned service: the
//!   node stays up and keeps receiving — the fault is dispatched to
//!   [`Node::on_fault`] and the node decides what a downed shard means
//!   (the partitioned map-server drops that shard's owner-routed
//!   traffic while the other shards keep serving).
//!
//! Fault activity is observable via the `simnet.faults_injected`,
//! `simnet.node_crashes`, `simnet.node_restarts`, `simnet.links_cut`,
//! `simnet.links_healed`, `simnet.fault_msg_drops`,
//! `simnet.partition_drops`, `simnet.shard_crashes`,
//! `simnet.shard_restarts`, `simnet.shard_partitions` and
//! `simnet.shard_heals` counters.
//!
//! ## Overload model
//!
//! The single-server control CPU gives every node an implicit queue —
//! and an unbounded one turns saturation into silent infinite backlog.
//! [`Simulator::set_ingress_cap`] bounds it: at most `cap` deliveries
//! may wait for a node's CPU at once, and a delivery that arrives at a
//! full queue is **tail-dropped** at the receiver (counted per node in
//! [`Simulator::ingress_drops`] and fabric-wide in
//! `simnet.ingress_drops`). Messages being *processed* and timer
//! callbacks never occupy queue slots. Per-node observability:
//! [`Simulator::ingress_depth`] (current),
//! [`Simulator::ingress_peak`] (high-water mark since the last
//! [`Simulator::reset_ingress_peaks`]) and
//! [`Simulator::ingress_drops`]. Depth and peak are tracked for
//! unbounded nodes too, so a scenario can *measure* a queue it chose
//! not to cap.
//!
//! ### What the ingress queue is
//!
//! * **One FIFO per node.** A delivery that finds the CPU busy
//!   (`busy_until > now`) is parked at the back — the cap is checked and
//!   the peak updated at that moment — and parked deliveries are served
//!   strictly in that order. A delivery that finds the CPU free is
//!   served on the spot, whatever is parked.
//! * **One wake per busy period.** The first delivery to be parked
//!   schedules a single wake event at `busy_until`. The wake serves from
//!   the front for as long as the CPU stays free — a handler that
//!   accounts no [`Context::busy`] time drains the whole queue at that
//!   instant — and re-arms itself at the new `busy_until` as soon as a
//!   handler takes the CPU.
//! * **O(1) events per delivery.** A backlog of *n* costs *n* deliveries
//!   plus at most *n* wakes, however deep the queue
//!   ([`Simulator::events_processed`] counts both).
//! * **Same-nanosecond tie.** Events order by `(time, seq)`, so a
//!   delivery due at exactly `busy_until` that was scheduled *before*
//!   the queue's first delivery was parked pops ahead of the wake,
//!   finds the CPU free and is served first; the wake then finds the
//!   CPU taken and re-arms. One scheduled after goes to the back.
//!
//! ### What it is not
//!
//! * No priority classes and no reordering: nothing parked is ever
//!   overtaken by something parked later.
//! * Timers never queue. They fire on time on a busy (or crashed) node,
//!   and a timer handler's `busy()` *replaces* `busy_until`: the wake
//!   already scheduled still fires at the old instant and re-arms if
//!   the CPU is taken then.
//! * Not a link model: the queue sits at the receiver, after link
//!   latency and loss.
//!
//! ### Crash and restart
//!
//! A crash frees the CPU (`busy_until = now`) but does not touch the
//! queue. Parked deliveries die when their wake fires on a node that is
//! still down — one `simnet.fault_msg_drops` each, depth back to 0 —
//! so an outage that ends *before* the interrupted service would have
//! still serves them, at that old instant. Deliveries that arrive while
//! the node is down are dropped on arrival and never queue.
//!
//! A tail-drop is indistinguishable from link loss to the sender — by
//! design: saturation recovery rides the same retransmit machinery as
//! loss recovery. Back-pressure with an explicit signal (shed-load
//! `ServerBusy` replies with a retry-after hint) is layered above, in
//! `sda-ctrl`'s admission control, where the receiver still has the
//! CPU to say no cheaply.
//!
//! The simulator is generic over the message type `M`, so `sda-core`,
//! `sda-bgp` and tests each bring their own protocol enums.
//!
//! ## Surface
//!
//! The crate **is** its root: [`Simulator`] with [`Node`], [`Context`]
//! and [`NodeId`]; [`SimTime`] and [`SimDuration`]; [`Fault`],
//! [`FaultEvent`] and [`FaultPlan`]; and [`Metrics`] with its
//! [`CounterId`] handles and [`Summary`]. Every module is private. It
//! **is not** a link-bandwidth or queueing-network model (a link is a
//! latency and a loss rate; the only queue is a node's control CPU),
//! and it never starts a thread.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod fault;
mod metrics;
mod sim;
mod time;

pub use fault::{Fault, FaultEvent, FaultPlan};
pub use metrics::{CounterId, Metrics, Summary};
pub use sim::{Context, Node, NodeId, Simulator};
pub use time::{SimDuration, SimTime};
