//! Differential test of the per-node ingress FIFO against the frozen
//! re-parking scheduler in `reference/`: the same schedule replayed on
//! both must produce the same service log (time, node, sender, message,
//! RNG draws included), the same per-node queue depths, peaks and
//! tail-drops at every checkpoint, and the same counters — with the
//! FIFO never needing more events than the reference.
//!
//! ## What the schedules cover, and the regime they stay out of
//!
//! Both schedulers order everything by `(time, seq)` and they agree
//! except *inside* a nanosecond in which a node's CPU frees with
//! deliveries parked: the reference re-keys each parked delivery
//! separately as it pops, so anything else due at that node in the same
//! nanosecond — a second fresh arrival, a delivery sent at run time —
//! is re-parked *between* them by `seq`, where the FIFO puts it behind
//! them (`known_divergence_*` below pins that the FIFO keeps arrival
//! order where the reference let a late arrival overtake). The
//! generator therefore controls who can share a nanosecond, through
//! residues modulo [`UNIT`] = 2²⁰ ns, written `a + 4096·b`:
//!
//! | node | arrivals | service time | CPU frees at |
//! |---|---|---|---|
//! | front 0 | ≡ 0, **at most one per instant** | whole units | ≡ 0: ties with an arrival are common — the documented "older seq is served first" tie |
//! | front *i* ∈ {1, 2} | ≡ *i*, any number per instant | 0, or units + 4 ns | ≡ *i* + 4·*k*, *k* ≥ 1: never an arrival instant |
//! | relay (3) | injected ≡ 3; forwarded over a link of latency ≡ 3 − *i*: `a` ≡ 3 (mod 4), `b` = 0 | 0, or units + 4096 ns | `b` ≥ 1: never an arrival instant |
//!
//! `a` mod 4 names the node, so two nodes never share an instant and
//! the global log order is defined. Front timers fire at `a` ≥ 2048,
//! checkpoints and the RNG probe sit at `a` = 4095. Injected arrivals
//! and faults are scheduled before the run, so their `seq` is older than
//! anything created at run time; simultaneous arrivals, arrivals at a
//! crash or restart instant (fault residues are 0–3) and, on front 0, at
//! the busy-until instant are all deliberate. An outage lasts at least
//! four units — longer than any single service — because a node that is
//! back up *before* the service it crashed in would have ended can, in
//! the reference, park new deliveries ahead of the survivors (it keyed
//! each delivery by the busy-until of the moment it was parked);
//! `sim.rs` pins what the FIFO does there.
//!
//! ## How the schedule is handed over
//!
//! The simulator keeps external events that arrive in nondecreasing
//! time order in a FIFO beside its heap, run-time sends with no extra
//! delay over a link of its default latency in a second FIFO (the
//! in-flight lane), and the rest in the heap; the reference has only a
//! heap. Which front's link to the relay carries the default latency is
//! the case's choice (link bits 12–13, or none): that front's forwards
//! ride the lane while the other fronts' take the heap, so deliveries
//! from both containers meet at the relay. Its latency keeps its
//! residue, so the table above holds either way; the reference's
//! default is never reached (every send goes over a configured link)
//! and has no setter. Two mode bits choose the hand-over of the
//! external schedule, on both simulators alike:
//!
//! * **as generated** (neither bit) — faults in plan order, then the
//!   arrivals in random order: some extend the FIFO, most fall back to
//!   the heap.
//! * **sorted** (bit 0) — faults and arrivals in one stable time-sorted
//!   sequence, so everything rides the FIFO. Same-instant events keep
//!   their relative order (faults still first), so the outcome must be
//!   *equal* to the unsorted one, not merely equal across simulators.
//! * **two rounds** (bit 1) — what the incremental drivers do: only
//!   what is due by the first checkpoint goes in before the run, and
//!   the later arrivals once the run has reached it — with a `seq`
//!   *newer* than the sends, timers and wakes nodes created meanwhile,
//!   and (when sorted) into a FIFO that has drained. That regime keeps
//!   away from two things, which this mode leaves out of its schedule:
//!   faults after the checkpoint, and front 0's arrivals after it —
//!   front 0's tie with its CPU-free instant is the "older seq first"
//!   one only while the arrival's `seq` is older than every parked
//!   delivery's, which a second round cannot promise.

mod reference;

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::Rng;
use sda_simnet::{Fault, FaultEvent, FaultPlan, NodeId, SimDuration, SimTime};

const UNIT: u64 = 1 << 20;
const FRONTS: u32 = 3;
const RELAY: NodeId = NodeId(3);
const PROBE: NodeId = NodeId(4);
const NODES: u32 = 5;

fn at(units: u64, residue: u64) -> SimTime {
    SimTime::from_nanos(units * UNIT + residue)
}

fn units(n: u64) -> SimDuration {
    SimDuration::from_nanos(n * UNIT)
}

/// What a handler may do, over either simulator's `Context`.
trait Env {
    fn now(&self) -> SimTime;
    fn send(&mut self, to: NodeId, msg: u64);
    fn set_timer(&mut self, delay: SimDuration, token: u64);
    fn busy(&mut self, d: SimDuration);
    fn draw(&mut self) -> u64;
    fn count(&mut self, name: &str);
}

macro_rules! impl_env {
    ($ctx:ty) => {
        impl Env for $ctx {
            fn now(&self) -> SimTime {
                self.now()
            }
            fn send(&mut self, to: NodeId, msg: u64) {
                self.send(to, msg)
            }
            fn set_timer(&mut self, delay: SimDuration, token: u64) {
                self.set_timer(delay, token)
            }
            fn busy(&mut self, d: SimDuration) {
                self.busy(d)
            }
            fn draw(&mut self) -> u64 {
                self.rng().gen()
            }
            fn count(&mut self, name: &str) {
                self.metrics().incr(name)
            }
        }
    };
}
impl_env!(sda_simnet::Context<'_, u64>);
impl_env!(reference::Context<'_, u64>);

/// `sda_simnet`'s inherent setter wins method resolution; the frozen
/// reference never sends over its default link, so it ignores the call.
trait DefaultLatency {
    fn set_default_latency(&mut self, d: SimDuration);
}
impl DefaultLatency for reference::Simulator<u64> {
    fn set_default_latency(&mut self, _: SimDuration) {}
}

/// One arrival, as the bits of the raw schedule word (which is also the
/// message delivered, so the relay reads its own fields from it).
#[derive(Clone, Copy)]
struct Word(u64);

impl Word {
    const BITS: u32 = 17;

    fn bits(self, from: u32, len: u32) -> u64 {
        (self.0 >> from) & ((1 << len) - 1)
    }
    /// Destination: a front node, or 3 for straight to the relay.
    fn node(self) -> NodeId {
        NodeId(self.bits(0, 2) as u32)
    }
    /// Arrival time in whole units; the residue is the node's.
    fn unit(self) -> u64 {
        self.bits(2, 6)
    }
    fn arrival(self) -> SimTime {
        at(self.unit(), self.bits(0, 2))
    }
    /// Whole units on front 0; zero, or units plus 4 ns, on the others.
    fn front_service(self, front: NodeId) -> SimDuration {
        match (self.bits(8, 2), front.0) {
            (0, _) => SimDuration::ZERO,
            (n, 0) => units(n),
            (n, _) => units(n) + SimDuration::from_nanos(4),
        }
    }
    fn forwards(self) -> bool {
        self.bits(10, 1) == 1
    }
    /// Zero, or whole units plus 4096 ns.
    fn relay_service(self) -> SimDuration {
        match self.bits(11, 2) {
            0 => SimDuration::ZERO,
            n => units(n) + SimDuration::from_nanos(4096),
        }
    }
    fn timer(self) -> Option<SimDuration> {
        (self.bits(13, 1) == 1).then(|| units(self.bits(14, 2)) + SimDuration::from_nanos(2048))
    }
    fn draws(self) -> bool {
        self.bits(16, 1) == 1
    }
}

#[derive(Clone, Debug, PartialEq)]
enum What {
    Served {
        from: NodeId,
        msg: u64,
        draw: Option<u64>,
    },
    Timer(u64),
    Fault(FaultEvent),
}

type Log = Rc<RefCell<Vec<(u64, u32, What)>>>;

/// The one node type of the test; its role follows from its id.
struct Station {
    id: NodeId,
    log: Log,
}

impl Station {
    fn note(&self, env: &impl Env, what: What) {
        self.log
            .borrow_mut()
            .push((env.now().as_nanos(), self.id.0, what));
    }

    fn message(&mut self, env: &mut impl Env, from: NodeId, msg: u64) {
        let word = Word(msg);
        let draw = (word.draws() || self.id == PROBE).then(|| env.draw());
        self.note(env, What::Served { from, msg, draw });
        if self.id == RELAY {
            env.busy(word.relay_service());
        } else if self.id.0 < FRONTS {
            env.busy(word.front_service(self.id));
            if word.forwards() {
                env.send(RELAY, msg);
            }
            if let Some(delay) = word.timer() {
                env.set_timer(delay, msg);
            }
        }
    }

    fn timer(&mut self, env: &mut impl Env, token: u64) {
        env.count("test.timers_fired");
        self.note(env, What::Timer(token));
    }

    fn fault(&mut self, env: &mut impl Env, fault: FaultEvent) {
        self.note(env, What::Fault(fault));
    }
}

macro_rules! impl_node {
    ($($sim:ident)::+) => {
        impl $($sim)::+::Node<u64> for Station {
            fn on_message(&mut self, ctx: &mut $($sim)::+::Context<'_, u64>, from: NodeId, msg: u64) {
                self.message(ctx, from, msg)
            }
            fn on_timer(&mut self, ctx: &mut $($sim)::+::Context<'_, u64>, token: u64) {
                self.timer(ctx, token)
            }
            fn on_fault(&mut self, ctx: &mut $($sim)::+::Context<'_, u64>, fault: FaultEvent) {
                self.fault(ctx, fault)
            }
        }
    };
}
impl_node!(sda_simnet);
impl_node!(reference);

/// A decoded schedule. `nodes[i]` configures node `i` (fronts, then the
/// relay): bits 0–1 pick the ingress cap, bit 2 enables an outage that
/// starts at unit bits 3–8 (+ residue bits 9–10, to tie with arrivals)
/// and lasts 4 + bits 11–13 units. `links`: bits 0–1 pick the loss on
/// every front → relay link, bit 2 enables a front 0 ↔ relay partition
/// from unit bits 3–8 for 1 + bits 9–11 units, bits 12–13 name the
/// front whose link has the default latency (3: none).
struct Case<'a> {
    seed: u64,
    arrivals: &'a [u64],
    nodes: &'a [u64],
    links: u64,
    /// Bit 0: hand the schedule over time-sorted. Bit 1: in two rounds.
    mode: u64,
}

/// One external event of a schedule.
#[derive(Clone, Copy)]
enum External {
    Fault(SimTime, Fault),
    Arrival(Word),
    /// The probe's draw pins the RNG position the run ended at.
    Probe,
}

impl External {
    fn time(self) -> SimTime {
        match self {
            External::Fault(at, _) => at,
            External::Arrival(w) => w.arrival(),
            External::Probe => at(4096, 4095),
        }
    }
}

/// The first checkpoint, in units; the second round goes in there.
const FIRST_CHECKPOINT: u64 = 16;

impl Case<'_> {
    const NODE_BITS: u32 = 14;
    const LINK_BITS: u32 = 14;

    /// The arrivals to inject: front 0 takes at most one per instant.
    fn injections(&self) -> impl Iterator<Item = Word> + '_ {
        let mut taken = [false; 64];
        self.arrivals.iter().map(|&w| Word(w)).filter(move |w| {
            w.node() != NodeId(0) || !std::mem::replace(&mut taken[w.unit() as usize], true)
        })
    }

    fn cap(&self, node: usize) -> usize {
        [usize::MAX, 1, 2, 4][(self.nodes[node] & 3) as usize]
    }

    fn loss(&self) -> f64 {
        [0.0, 0.1, 0.3, 0.6][(self.links & 3) as usize]
    }

    fn lane_front(&self) -> Option<u32> {
        Some((self.links >> 12 & 3) as u32).filter(|&front| front < FRONTS)
    }

    /// What to inject before the run and what after the first
    /// checkpoint (empty unless mode bit 1 is set), each in injection
    /// order. Faults first: at a shared instant a crash precedes the
    /// arrivals. The probe goes last of all: it is far in the future,
    /// and nothing injected after it could extend the FIFO.
    fn rounds(&self) -> [Vec<External>; 2] {
        let plan = self.faults();
        let faults = plan.events().iter().map(|&(at, f)| External::Fault(at, f));
        let mut all: Vec<External> = faults
            .chain(self.injections().map(External::Arrival))
            .collect();
        all.push(External::Probe);
        if self.mode & 1 == 1 {
            all.sort_by_key(|e| e.time()); // stable
        }
        if self.mode & 2 == 0 {
            return [all, Vec::new()];
        }
        let (first, mut second): (Vec<_>, Vec<_>) = all
            .into_iter()
            .partition(|e| e.time() <= at(FIRST_CHECKPOINT, 4095));
        second.retain(|e| match e {
            External::Arrival(w) => w.node() != NodeId(0),
            External::Probe => true,
            External::Fault(..) => false,
        });
        [first, second]
    }

    fn faults(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for (node, &w) in self.nodes.iter().enumerate() {
            if w >> 2 & 1 == 1 {
                let (down, residue) = (w >> 3 & 63, w >> 9 & 3);
                let up = down + 4 + (w >> 11 & 7);
                plan = plan.reboot(NodeId(node as u32), at(down, residue), at(up, residue));
            }
        }
        if self.links >> 2 & 1 == 1 {
            let from = self.links >> 3 & 63;
            let to = from + 1 + (self.links >> 9 & 7);
            plan = plan.partition_window(NodeId(0), RELAY, at(from, 0), at(to, 0));
        }
        plan
    }
}

const COUNTERS: [&str; 10] = [
    "simnet.faults_injected",
    "simnet.node_crashes",
    "simnet.node_restarts",
    "simnet.links_cut",
    "simnet.links_healed",
    "simnet.fault_msg_drops",
    "simnet.partition_drops",
    "simnet.link_drops",
    "simnet.ingress_drops",
    "test.timers_fired",
];

/// Everything observable about a run except how many events it took.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<(u64, u32, What)>,
    /// Per checkpoint, per node: `(depth, peak, drops)`.
    queues: Vec<Vec<(u32, u32, u64)>>,
    counters: Vec<u64>,
}

/// Replays `$case` on simulator type `$sim`; yields `(Outcome, events)`.
macro_rules! replay {
    ($($sim:ident)::+, $case:expr) => {{
        let case: &Case = $case;
        let log = Log::default();
        let mut sim = $($sim)::+::Simulator::<u64>::new(case.seed);
        for id in (0..NODES).map(NodeId) {
            sim.add_node(Box::new(Station { id, log: log.clone() }));
        }
        for front in 0..FRONTS {
            let latency = units(2) + SimDuration::from_nanos((RELAY.0 - front) as u64);
            sim.set_link(NodeId(front), RELAY, latency, case.loss());
            if case.lane_front() == Some(front) {
                sim.set_default_latency(latency);
            }
        }
        for node in 0..case.nodes.len() {
            sim.set_ingress_cap(NodeId(node as u32), case.cap(node));
        }
        let mut rounds = case.rounds().into_iter();
        let mut queues = Vec::new();
        for checkpoint in [at(FIRST_CHECKPOINT, 4095), at(32, 4095), at(64, 4095), at(5000, 4095)] {
            for external in rounds.next().into_iter().flatten() {
                match external {
                    // One-fault plans: `schedule_faults` is the fault door
                    // the frozen reference's own callers use.
                    External::Fault(at, fault) => sim.schedule_faults(&FaultPlan::new().at(at, fault)),
                    External::Arrival(w) => sim.inject_at(w.arrival(), w.node(), w.0),
                    External::Probe => sim.inject_at(external.time(), PROBE, 0),
                }
            }
            sim.run_until(checkpoint);
            queues.push(
                (0..NODES)
                    .map(NodeId)
                    .map(|n| (sim.ingress_depth(n), sim.ingress_peak(n), sim.ingress_drops(n)))
                    .collect(),
            );
            sim.reset_ingress_peaks();
        }
        let counters = COUNTERS.iter().map(|c| sim.metrics().counter(c)).collect();
        let outcome = Outcome { log: log.take(), queues, counters };
        (outcome, sim.events_processed())
    }};
}

/// Replays on both, asserts they agree, returns the shared outcome and
/// `(fifo, reference)` event counts.
fn agree(case: &Case) -> (Outcome, u64, u64) {
    let (fifo, fifo_events) = replay!(sda_simnet, case);
    let (reparking, reparking_events) = replay!(reference, case);
    assert_eq!(fifo, reparking);
    assert!(
        fifo_events <= reparking_events,
        "FIFO took {fifo_events} events, re-parking {reparking_events}"
    );
    (fifo, fifo_events, reparking_events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fifo_matches_the_reparking_scheduler(
        seed in 0u64..1_000,
        arrivals in proptest::collection::vec(0u64..1 << Word::BITS, 0..160),
        nodes in proptest::collection::vec(0u64..1 << Case::NODE_BITS, 4),
        links in 0u64..1 << Case::LINK_BITS,
        mode in 0u64..4,
    ) {
        let case = Case { seed, arrivals: &arrivals, nodes: &nodes, links, mode };
        let (outcome, ..) = agree(&case);
        // Sorting moves events between heap and FIFO and nothing else.
        let (resorted, ..) = replay!(sda_simnet, &Case { mode: mode ^ 1, ..case });
        prop_assert_eq!(outcome, resorted);
    }
}

/// The property above is only worth its name if its schedules reach the
/// mechanisms: one dense fixed schedule must build deep queues, tail-drop,
/// lose parked deliveries to a crash, lose sends to links and a
/// partition — and show the event saving.
#[test]
fn a_dense_schedule_exercises_every_mechanism() {
    let mut state = 0x5DA_ACCE55_u64;
    let mut next = |bits: u32| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) & ((1 << bits) - 1)
    };
    let arrivals: Vec<u64> = (0..400).map(|_| next(Word::BITS)).collect();
    // Caps 4 / unbounded / 2 / 4; outages on nodes 1 and 3 mid-backlog.
    let nodes = [
        3,
        4 | 20 << 3 | 1 << 9,
        2,
        3 | 4 | 40 << 3 | 3 << 9 | 5 << 11,
    ];
    let links = 2 | 4 | 10 << 3 | 7 << 9;
    let case = Case {
        seed: 7,
        arrivals: &arrivals,
        nodes: &nodes,
        links,
        mode: 0,
    };
    let (outcome, fifo_events, reparking_events) = agree(&case);
    for mode in 1..4 {
        let (handed_over, ..) = agree(&Case { mode, ..case });
        if mode == 1 {
            assert_eq!(handed_over, outcome, "sorting changed the outcome");
        }
        assert!(handed_over.log.len() > 300, "mode {mode} served too little");
    }
    let counter = |name: &str| outcome.counters[COUNTERS.iter().position(|c| *c == name).unwrap()];
    assert!(counter("simnet.ingress_drops") > 20);
    assert!(counter("simnet.fault_msg_drops") > 5);
    assert!(counter("simnet.link_drops") > 5);
    assert!(counter("simnet.partition_drops") > 0);
    assert!(counter("test.timers_fired") > 20);
    let deepest = outcome.queues.iter().flatten().map(|q| q.1).max().unwrap();
    assert!(deepest >= 30, "unbounded node queued only {deepest}");
    assert!(
        fifo_events * 2 < reparking_events,
        "{fifo_events} vs {reparking_events} events"
    );
}

/// Where the two schedulers knowingly part ways. Node 0 is busy until
/// t = 10 with A and B parked behind it; C, *sent at run time* after A
/// was parked but before B was, arrives at exactly t = 10. The reference
/// pops A, then C (its `seq` lies between A's and B's park seqs), then
/// B — so C overtakes B. The FIFO serves in arrival order.
#[test]
fn known_divergence_late_arrival_at_the_wake_instant_does_not_overtake() {
    /// Node 0 logs and stays busy `msg` units; node 1 forwards to node 0.
    struct Tiny(Rc<RefCell<Vec<u64>>>);
    impl Tiny {
        fn message(&mut self, env: &mut impl Env, from: NodeId, msg: u64) {
            if from == NodeId::EXTERNAL && msg == 99 {
                env.send(NodeId(0), 3); // C
            } else {
                self.0.borrow_mut().push(msg);
                env.busy(units(msg));
            }
        }
    }
    impl sda_simnet::Node<u64> for Tiny {
        fn on_message(&mut self, ctx: &mut sda_simnet::Context<'_, u64>, from: NodeId, msg: u64) {
            self.message(ctx, from, msg)
        }
    }
    impl reference::Node<u64> for Tiny {
        fn on_message(&mut self, ctx: &mut reference::Context<'_, u64>, from: NodeId, msg: u64) {
            self.message(ctx, from, msg)
        }
    }

    macro_rules! order {
        ($($sim:ident)::+) => {{
            let served = Rc::new(RefCell::new(Vec::new()));
            let mut sim = $($sim)::+::Simulator::<u64>::new(1);
            let sink = sim.add_node(Box::new(Tiny(served.clone())));
            let sender = sim.add_node(Box::new(Tiny(served.clone())));
            sim.set_link(sender, sink, units(8), 0.0);
            sim.inject_at(at(0, 0), sink, 10); // busy until 10
            sim.inject_at(at(1, 0), sink, 1); // A
            sim.inject_at(at(2, 0), sender, 99); // C leaves at 2, lands at 10
            sim.inject_at(at(3, 0), sink, 2); // B
            sim.run_until(at(100, 0));
            served.take()
        }};
    }
    assert_eq!(order!(sda_simnet), [10, 1, 2, 3], "arrival order");
    assert_eq!(order!(reference), [10, 1, 3, 2], "C overtook B");
}
