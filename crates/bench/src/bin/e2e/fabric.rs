//! The `fabric_*` workloads: host events into a whole `Fabric` on the
//! discrete-event simulator — the packet's (and the control message's)
//! whole life through `core` and `simnet`.
//!
//! * `fabric_traffic` — 6 edges, 2 borders, a 1-shard routing server and
//!   450 endpoints onboarded over simulated [0, 10 s); then host sends
//!   (64 B, Zipf-1.0 destinations, 20 % external) at 4,000 sends per
//!   simulated second, no faults — a fifth of them resolve at the
//!   routing server, which its modelled 250 µs service time carries at
//!   20 % utilisation (at 20,000 sends/s it saturates, its ingress queue
//!   grows into the thousands and the simulator's re-parking of queued
//!   deliveries dominates the run: 63 events per send instead of 3). A
//!   batch schedules [`SENDS_PER_BATCH`] sends into the next 125 ms of
//!   simulated time and runs the simulator through them; a round is
//!   [`BATCHES_PER_ROUND`] batches. The fabric keeps its default timers
//!   (30 min refresh, 10 min eviction and purge): at a 5 s refresh the
//!   synchronised re-registration wave of 450 endpoints queues ~1,350
//!   messages at the routing server and the same re-parking turns every
//!   wave into ~900k events — that regime is `fabric_storm`'s.
//! * `fabric_storm` — `ChaosScenario::build(ChaosParams::shard_storm())`
//!   campaigns (120 edges, 110 rebooted, 5 % loss, 4 shards, admission,
//!   512-deep ingress queues, a shard crash), stepped one simulated
//!   second per batch with a convergence check from t = 46 s, then the
//!   probe round. A round is the same [`CAMPAIGNS`] campaign seeds
//!   (derived from `--seed`), so rounds repeat identical work.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_core::controller::{BorderHandle, EdgeHandle, FabricBuilder};
use sda_core::{check_convergence, EndpointIdentity, ExpectedPlacement, Fabric};
use sda_simnet::{Context, Metrics, Node, NodeId, SimDuration, SimTime, Simulator};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId};
use sda_workloads::{ChaosParams, ChaosScenario, ZipfSampler};

use crate::harness::{
    median, ns_per_item, warm_up, Batch, Outcome, RunCfg, Span, Traced, Tracer, Values, Workload,
};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Simulator-side numbers both workloads report. `events`, `sim` and
/// `wall_ns` cover the traced batches.
fn simnet_layers(events: u64, sim: SimDuration, wall_ns: u64, ops: u64, out: &mut Values) {
    let wall_s = wall_ns as f64 / 1e9;
    out.insert("simnet.events_per_op", events as f64 / ops.max(1) as f64);
    out.insert("simnet.events_per_s", events as f64 / wall_s);
    out.insert("simnet.sim_s_per_wall_s", sim.as_secs_f64() / wall_s);

    // The simulator alone: the same number of deliveries, queued and then
    // dispatched to no-op nodes, so its own cost shows without any node
    // work.
    struct Sink;
    impl Node<u64> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, u64>, _: NodeId, msg: u64) {
            black_box(msg);
        }
    }
    let n = events.clamp(1, 1 << 20);
    let mut sim: Simulator<u64> = Simulator::new(1);
    let nodes: Vec<NodeId> = (0..8).map(|_| sim.add_node(Box::new(Sink))).collect();
    let mut from = 0;
    out.insert(
        "simnet.dispatch_probe_ns_per_event",
        ns_per_item(n as usize, || {
            for k in from..from + n {
                let at = SimTime::from_nanos(k * 1_000);
                sim.inject_at(at, nodes[(k % 8) as usize], k);
            }
            from += n;
            sim.run_until(SimTime::from_nanos(from * 1_000));
        }),
    );
    let mut metrics = Metrics::default();
    out.insert(
        "simnet.metrics_incr_probe_ns",
        ns_per_item(1 << 20, || {
            for _ in 0..1 << 20 {
                metrics.incr("fabric.delivered");
            }
        }),
    );
    black_box(metrics.counter("fabric.delivered"));
}

// ---------------------------------------------------------------------
// fabric_traffic
// ---------------------------------------------------------------------

const EDGES: usize = 6;
const ENDPOINTS: usize = 450;
const GROUPS: u16 = 4;
const SENDS_PER_BATCH: u64 = 500;
const BATCHES_PER_ROUND: u64 = 200;
const WARM_UP_BATCHES: usize = 40;
const ROUND_SIM: SimDuration = SimDuration::from_secs(25);
const EXTERNAL_SHARE: f64 = 0.2;
const PAYLOAD: u16 = 64;

/// One pre-generated host send.
#[derive(Clone, Copy)]
struct Send {
    src: u16,
    dst: Eid,
    /// The generator's own verdict for it.
    expect: Expect,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    Delivered,
    External,
    PolicyDrop,
}

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct TrafficTally {
    sends: u64,
    want_delivered: u64,
    want_external: u64,
    want_policy: u64,
    events: u64,
}

pub struct FabricTraffic {
    fabric: Fabric,
    edges: Vec<EdgeHandle>,
    borders: Vec<BorderHandle>,
    roster: Vec<(EndpointIdentity, usize)>,
    sends: Vec<Send>,
    sends_per_batch: u64,
    batches_per_round: u64,
    cursor: usize,
    batches: u64,
    sim_t: SimTime,
    tally: TrafficTally,
    warm: TrafficTally,
    window_sends: u64,
    window: Option<TrafficTally>,
    onboard_wall_s: f64,
    drain_wall_s: f64,
    gen_s: f64,
}

impl FabricTraffic {
    fn counter(&self, name: &str) -> u64 {
        self.fabric.metrics().counter(name)
    }

    /// Sum of one per-edge counter.
    fn edge_sum(&self, f: impl Fn(&sda_core::edge::EdgeStats) -> u64) -> u64 {
        self.edges
            .iter()
            .map(|&e| f(&self.fabric.edge(e).stats()))
            .sum()
    }
}

impl Workload for FabricTraffic {
    const SETUPS: usize = 16;

    fn build(cfg: &RunCfg) -> Self {
        let t = Instant::now();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut b = FabricBuilder::new(cfg.seed);
        let vn = b.add_vn(
            100,
            Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).expect("/16"),
        );
        // Everyone may talk to everyone, except the first and the last
        // group to each other: a few policy drops keep that path alive.
        let denied = |s: u16, d: u16| (s, d) == (1, GROUPS) || (s, d) == (GROUPS, 1);
        for s in 1..=GROUPS {
            for d in 1..=GROUPS {
                if !denied(s, d) {
                    b.allow(vn, GroupId(s), GroupId(d));
                }
            }
        }
        let edges: Vec<EdgeHandle> = (0..EDGES).map(|i| b.add_edge(format!("e{i}"))).collect();
        let internet = Ipv4Prefix::new(Ipv4Addr::UNSPECIFIED, 0).expect("/0");
        let borders = vec![
            b.add_border("b0", vec![internet]),
            b.add_border("b1", vec![]),
        ];
        let n = cfg.pop(ENDPOINTS, 24);
        let groups: Vec<u16> = (0..n).map(|_| 1 + rng.gen_range(0..GROUPS)).collect();
        let roster: Vec<(EndpointIdentity, usize)> = groups
            .iter()
            .enumerate()
            .map(|(i, g)| (b.mint_endpoint(vn, GroupId(*g)), i % EDGES))
            .collect();

        let sends_per_batch = cfg.ops(SENDS_PER_BATCH);
        let batches_per_round = cfg.pop(BATCHES_PER_ROUND as usize, 10) as u64;
        let zipf = ZipfSampler::new(n, 1.0);
        let mut rank_to_endpoint: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank_to_endpoint.swap(i, rng.gen_range(0..=i));
        }
        let sends: Vec<Send> = (0..sends_per_batch * batches_per_round)
            .map(|_| {
                let src = rng.gen_range(0..n);
                if rng.gen::<f64>() < EXTERNAL_SHARE {
                    return Send {
                        src: src as u16,
                        dst: Eid::V4(Ipv4Addr::new(93, 184, 216, rng.gen())),
                        expect: Expect::External,
                    };
                }
                let mut dst = rank_to_endpoint[zipf.sample(&mut rng)];
                if dst == src {
                    dst = (dst + 1) % n;
                }
                Send {
                    src: src as u16,
                    dst: Eid::V4(roster[dst].0.ipv4),
                    expect: if denied(groups[src], groups[dst]) {
                        Expect::PolicyDrop
                    } else {
                        Expect::Delivered
                    },
                }
            })
            .collect();
        let gen_s = t.elapsed().as_secs_f64();

        let mut fabric = b.build();
        for (i, (identity, home)) in roster.iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_secs_f64(rng.gen::<f64>() * 10.0);
            fabric.attach_at(at, edges[*home], *identity, PortId(i as u16));
        }
        let t = Instant::now();
        fabric.run_until(secs(20));
        let onboard_wall_s = t.elapsed().as_secs_f64();

        let mut w = FabricTraffic {
            fabric,
            edges,
            borders,
            roster,
            sends,
            sends_per_batch,
            batches_per_round,
            cursor: 0,
            batches: 0,
            sim_t: secs(20),
            tally: TrafficTally::default(),
            warm: TrafficTally::default(),
            window_sends: cfg.ops(4 * SENDS_PER_BATCH * BATCHES_PER_ROUND),
            window: None,
            onboard_wall_s,
            drain_wall_s: 0.0,
            gen_s,
        };
        // Warm-up: first packets resolve, caches fill. Rounds are counted
        // from here on.
        warm_up(&mut w, cfg.pop(WARM_UP_BATCHES, 10));
        w.warm = w.tally;
        w.window = None;
        w.batches = 0;
        w
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn batch(&mut self, tr: &mut Tracer) -> Batch {
        let slice = SimDuration::from_nanos(ROUND_SIM.as_nanos() / self.batches_per_round);
        let gap = SimDuration::from_nanos(slice.as_nanos() / self.sends_per_batch);
        tr.enter(Span::Schedule);
        let mut at = self.sim_t;
        for k in 0..self.sends_per_batch as usize {
            let s = self.sends[self.cursor + k];
            let (identity, home) = self.roster[usize::from(s.src)];
            let flow = (self.cursor + k) as u64;
            self.fabric.send_at(
                at,
                self.edges[home],
                identity.mac,
                s.dst,
                PAYLOAD,
                flow,
                false,
            );
            at += gap;
            match s.expect {
                Expect::Delivered => self.tally.want_delivered += 1,
                Expect::External => self.tally.want_external += 1,
                Expect::PolicyDrop => self.tally.want_policy += 1,
            }
        }
        tr.exit();
        self.cursor = (self.cursor + self.sends_per_batch as usize) % self.sends.len();
        self.sim_t += slice;
        let before = self.fabric.sim_mut().events_processed();
        tr.enter(Span::RunUntil);
        self.fabric.run_until(self.sim_t);
        tr.exit();
        self.tally.events += self.fabric.sim_mut().events_processed() - before;
        self.tally.sends += self.sends_per_batch;
        self.batches += 1;
        if self.window.is_none() && self.tally.sends - self.warm.sends >= self.window_sends {
            self.window = Some(self.tally);
        }
        Batch {
            ops: self.sends_per_batch,
            round_end: self.batches.is_multiple_of(self.batches_per_round),
        }
    }

    fn window_complete(&self) -> bool {
        self.window.is_some()
    }

    fn window_counts(&self) -> Vec<(&'static str, u64)> {
        let t = self.window.unwrap_or_default();
        vec![
            ("sends", t.sends),
            ("want_delivered", t.want_delivered),
            ("want_external", t.want_external),
            ("want_policy", t.want_policy),
            ("events", t.events),
        ]
    }

    fn finish(&mut self) -> Result<Outcome, String> {
        // Let the frames still on the wire land before counting.
        let t = Instant::now();
        self.fabric
            .run_until(self.sim_t + SimDuration::from_secs(1));
        self.drain_wall_s = t.elapsed().as_secs_f64();

        let t = self.tally;
        let delivered = self.counter("fabric.delivered");
        let external = self.counter("fabric.external_delivered");
        let policy = self.edge_sum(|s| s.policy_drops)
            + self
                .borders
                .iter()
                .map(|&b| self.fabric.border(b).stats().policy_drops)
                .sum::<u64>();
        let other = self.edge_sum(|s| s.first_packet_drops + s.unknown_source + s.hop_exhausted)
            + self.counter("fabric.unroutable")
            + self.counter("fabric.unencodable_sends");
        if delivered + external + policy + other != t.sends {
            return Err(format!(
                "{} sends, but {delivered} delivered + {external} external + {policy} policy \
                 drops + {other} other drops",
                t.sends
            ));
        }
        if external != t.want_external || policy != t.want_policy {
            return Err(format!(
                "generator expects {} external and {} policy drops, fabric counted {external} \
                 and {policy}",
                t.want_external, t.want_policy
            ));
        }
        Ok(Outcome {
            attempted: t.sends - self.warm.sends,
            failed: other,
        })
    }

    fn layers(&mut self, tr: &Tracer, traced: Traced, out: &mut Values) {
        let run = tr.total(Span::RunUntil);
        let wall_ns = run.total_ns + tr.total(Span::Schedule).total_ns;
        out.insert("core.onboard_wall_s", self.onboard_wall_s);
        out.insert("core.traffic_wall_s", wall_ns as f64 / 1e9);
        out.insert("core.drain_wall_s", self.drain_wall_s);
        out.insert(
            "core.us_per_send",
            (tr.ns_per(Span::Schedule, traced.round_ops)
                + tr.ns_per(Span::RunUntil, traced.round_ops))
                / 1e3,
        );
        out.insert("core.allocs_per_send", traced.allocs_per_op());

        let sends = self.tally.sends.max(1) as f64;
        let rx: u64 = self
            .edges
            .iter()
            .map(|&e| self.fabric.edge(e).switch().stats().rx)
            .chain(
                self.borders
                    .iter()
                    .map(|&b| self.fabric.border(b).switch().stats().rx),
            )
            .sum();
        out.insert("core.switch_pkts", rx as f64);
        out.insert(
            "core.delivered_share",
            self.counter("fabric.delivered") as f64 / sends,
        );
        out.insert(
            "core.default_routed_share",
            self.edge_sum(|s| s.default_routed) as f64 / sends,
        );
        out.insert(
            "core.first_packet_drops",
            self.edge_sum(|s| s.first_packet_drops) as f64,
        );
        out.insert("core.smrs_sent", self.edge_sum(|s| s.smrs_sent) as f64);
        out.insert(
            "core.retransmits",
            self.edge_sum(|s| s.map_request_retries + s.register_retries) as f64,
        );
        let routing = self.fabric.routing_node();
        out.insert(
            "simnet.ingress_peak_depth",
            f64::from(self.fabric.sim_mut().ingress_peak(routing)),
        );
        out.insert(
            "simnet.ingress_drops",
            self.counter("simnet.ingress_drops") as f64,
        );

        // Events and simulated time of the traced batches alone.
        let traced_batches = run.count;
        let per_batch = ROUND_SIM.as_nanos() / self.batches_per_round;
        let sim = SimDuration::from_nanos(per_batch * traced_batches);
        let w = self.window.unwrap_or_default();
        let events = self.tally.events - w.events;
        simnet_layers(events, sim, wall_ns, traced.ops, out);
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} endpoints on {EDGES} edges and {} borders; {} sends per batch, {} batches per round \
             of {} simulated seconds",
            self.roster.len(),
            self.borders.len(),
            self.sends_per_batch,
            self.batches_per_round,
            ROUND_SIM.as_secs_f64()
        )]
    }
}

// ---------------------------------------------------------------------
// fabric_storm
// ---------------------------------------------------------------------

/// Campaign seeds per round.
const CAMPAIGNS: u64 = 4;
/// Fabric-wide loss heals here; convergence is sampled every simulated
/// second from the next one on.
const LOSS_OFF: u64 = 45;
/// The campaign's own convergence check and probe round start here.
const CHECK: u64 = 89;

/// What one finished campaign produced.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct CampaignResult {
    ops: u64,
    events: u64,
    /// First whole second from which every later sample is converged,
    /// minus [`LOSS_OFF`]; `None` when the final sample is not.
    converge_sim_s: Option<u64>,
    probes_sent: u64,
    probes_delivered: u64,
    retransmits: u64,
    busy_backoffs: u64,
    jittered_retries: u64,
    smrs: u64,
    ingress_drops: u64,
    queue_peak: u64,
    shed: u64,
    served: u64,
}

/// The campaign being stepped.
struct Campaign {
    scenario: ChaosScenario,
    /// Where every endpoint must end up (fixed for the campaign).
    expected: ExpectedPlacement,
    /// The simulated second it has been run to.
    t: u64,
    /// First simulated second of the unbroken converged streak so far.
    converged_since: Option<u64>,
}

pub struct FabricStorm {
    params: ChaosParams,
    seed: u64,
    campaigns_per_round: u64,
    current: Option<Campaign>,
    started: u64,
    results: Vec<CampaignResult>,
    window: Option<usize>,
    build_s: Vec<f64>,
    traced_from: Option<usize>,
}

fn campaign_seed(seed: u64, k: u64) -> u64 {
    // SplitMix64 step: well-spread campaign seeds from consecutive k.
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FabricStorm {
    fn build_campaign(&mut self) {
        let t = Instant::now();
        let k = self.started % self.campaigns_per_round;
        let scenario = ChaosScenario::build(ChaosParams {
            seed: campaign_seed(self.seed, k),
            ..self.params.clone()
        });
        self.build_s.push(t.elapsed().as_secs_f64());
        self.started += 1;
        self.current = Some(Campaign {
            expected: scenario.expected(),
            scenario,
            t: 0,
            converged_since: None,
        });
    }

    /// Generator inputs of one campaign: attaches, roam detach/attach
    /// pairs, background sends, scheduled faults and probes.
    fn ops_of(s: &ChaosScenario, probes: u64) -> u64 {
        let p = &s.params;
        let roamers = s.roster.iter().filter(|m| m.fin != m.home).count();
        let faults = p.edges + 2 + 2 + 2 * p.reboot_edges + 2 * usize::from(p.shard_outage);
        (p.endpoints + 2 * roamers + 2 * p.endpoints + faults) as u64 + probes
    }
}

impl Workload for FabricStorm {
    const SETUPS: usize = 3;

    fn build(cfg: &RunCfg) -> Self {
        let params = if cfg.quick {
            ChaosParams::reduced().with_overload(4)
        } else {
            ChaosParams::shard_storm()
        };
        let mut w = FabricStorm {
            params,
            seed: cfg.seed,
            campaigns_per_round: cfg.ops(CAMPAIGNS),
            current: None,
            started: 0,
            results: Vec::new(),
            window: None,
            build_s: Vec::new(),
            traced_from: None,
        };
        // The driver times this build; later ones are timed in `prepare`.
        w.build_campaign();
        w.build_s.clear();
        w
    }

    fn gen_s(&self) -> f64 {
        // Generation and fabric build are one call in `ChaosScenario`.
        0.0
    }

    fn extra_setup_samples(&self) -> &[f64] {
        &self.build_s
    }

    fn prepare(&mut self) {
        if self.current.is_none() {
            self.build_campaign();
        }
    }

    fn batch(&mut self, tr: &mut Tracer) -> Batch {
        if tr.on && self.traced_from.is_none() {
            self.traced_from = Some(self.results.len());
        }
        let c = self.current.as_mut().expect("prepare built a campaign");
        let scenario = &mut c.scenario;
        c.t += 1;
        if c.t < CHECK {
            tr.enter(Span::RunUntil);
            scenario.fabric.run_until(secs(c.t));
            tr.exit();
            if c.t > LOSS_OFF {
                tr.enter(Span::Check);
                let converged = check_convergence(&scenario.fabric, &c.expected).converged();
                tr.exit();
                c.converged_since = match (converged, c.converged_since) {
                    (false, _) => None,
                    (true, None) => Some(c.t),
                    (true, since) => since,
                };
            }
            return Batch {
                ops: 0,
                round_end: false,
            };
        }
        // The campaign's own last leg: run to the check, the verdict,
        // the probe round, the run to the end.
        tr.enter(Span::RunUntil);
        let outcome = scenario.run();
        tr.exit();
        let counter = |name: &str| {
            outcome
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        let events = scenario.fabric.sim_mut().events_processed();
        let server = scenario.fabric.routing_server().server();
        let stats = server.stats();
        let result = CampaignResult {
            ops: Self::ops_of(scenario, outcome.probes_sent),
            events,
            converge_sim_s: outcome
                .report
                .converged()
                .then(|| c.converged_since.unwrap_or(CHECK) - LOSS_OFF),
            probes_sent: outcome.probes_sent,
            probes_delivered: outcome.probes_delivered,
            retransmits: counter("fabric.map_request_retries")
                + counter("fabric.register_retries")
                + counter("border.subscribe_retries"),
            busy_backoffs: counter("fabric.server_busy_backoffs"),
            jittered_retries: counter("fabric.jittered_retries"),
            smrs: scenario.fabric.metrics().counter("fabric.smrs"),
            ingress_drops: counter("simnet.ingress_drops"),
            queue_peak: u64::from(outcome.server_queue_peak),
            shed: server.overload_stats().shed_total(),
            served: stats.replies + stats.negative_replies + stats.registers,
        };
        self.results.push(result);
        self.current = None;
        let done = self.results.len() as u64;
        let round_end = done.is_multiple_of(self.campaigns_per_round);
        if self.window.is_none() && round_end {
            self.window = Some(self.results.len());
        }
        Batch {
            ops: result.ops,
            round_end,
        }
    }

    fn window_complete(&self) -> bool {
        self.window.is_some()
    }

    fn window_counts(&self) -> Vec<(&'static str, u64)> {
        let w = &self.results[..self.window.unwrap_or(0)];
        let sum = |f: fn(&CampaignResult) -> u64| w.iter().map(f).sum::<u64>();
        vec![
            ("campaigns", w.len() as u64),
            ("ops", sum(|r| r.ops)),
            ("events", sum(|r| r.events)),
            ("converged", sum(|r| u64::from(r.converge_sim_s.is_some()))),
            ("converge_sim_s", sum(|r| r.converge_sim_s.unwrap_or(0))),
            ("probes_sent", sum(|r| r.probes_sent)),
            ("probes_delivered", sum(|r| r.probes_delivered)),
            ("retransmits", sum(|r| r.retransmits)),
            ("busy_backoffs", sum(|r| r.busy_backoffs)),
            ("jittered_retries", sum(|r| r.jittered_retries)),
            ("smrs", sum(|r| r.smrs)),
            ("ingress_drops", sum(|r| r.ingress_drops)),
            ("shed", sum(|r| r.shed)),
        ]
    }

    fn finish(&mut self) -> Result<Outcome, String> {
        let mut out = Outcome {
            attempted: 0,
            failed: 0,
        };
        for (k, r) in self.results.iter().enumerate() {
            if r.probes_delivered > r.probes_sent {
                return Err(format!(
                    "campaign {k} delivered more probes than it sent: {r:?}"
                ));
            }
            // Repeats of a campaign seed must repeat its outcome.
            let first = &self.results[k % self.campaigns_per_round as usize];
            if r != first {
                return Err(format!(
                    "campaign {k} is not deterministic: {r:?} vs {first:?}"
                ));
            }
            out.attempted += r.ops;
            out.failed +=
                u64::from(r.converge_sim_s.is_none()) + r.probes_sent - r.probes_delivered;
        }
        Ok(out)
    }

    fn layers(&mut self, tr: &Tracer, traced: Traced, out: &mut Values) {
        let w = &self.results[..self.window.unwrap_or(0)];
        let sum = |f: fn(&CampaignResult) -> u64| w.iter().map(f).sum::<u64>() as f64;
        let mut converge: Vec<f64> = w
            .iter()
            .map(|r| {
                r.converge_sim_s
                    .map_or((CHECK - LOSS_OFF) as f64, |s| s as f64)
            })
            .collect();
        out.insert("core.converge_sim_s", median(&mut converge));
        out.insert("core.retransmits", sum(|r| r.retransmits));
        out.insert("core.busy_backoffs", sum(|r| r.busy_backoffs));
        out.insert("core.jittered_retries", sum(|r| r.jittered_retries));
        out.insert("core.smrs_sent", sum(|r| r.smrs));
        let probes = sum(|r| r.probes_sent).max(1.0);
        out.insert("core.delivered_share", sum(|r| r.probes_delivered) / probes);
        out.insert("core.allocs_per_send", traced.allocs_per_op());
        out.insert("simnet.ingress_drops", sum(|r| r.ingress_drops));
        out.insert(
            "simnet.ingress_peak_depth",
            w.iter().map(|r| r.queue_peak).max().unwrap_or(0) as f64,
        );
        let shed = sum(|r| r.shed);
        out.insert(
            "ctrl.shed_share",
            shed / (shed + sum(|r| r.served)).max(1.0),
        );

        let traced_runs = &self.results[self.traced_from.unwrap_or(self.results.len())..];
        let events = traced_runs.iter().map(|r| r.events).sum();
        let wall_ns = tr.total(Span::RunUntil).total_ns;
        out.insert("core.traffic_wall_s", wall_ns as f64 / 1e9);
        let sim = SimDuration::from_secs(99 * traced_runs.len() as u64);
        simnet_layers(events, sim, wall_ns, traced.ops, out);
    }

    fn notes(&self) -> Vec<String> {
        let p = &self.params;
        vec![format!(
            "{} campaign: {} edges ({} rebooted), {} endpoints, {} shards; {} campaign seeds per round",
            p.name, p.edges, p.reboot_edges, p.endpoints, p.ctrl_shards, self.campaigns_per_round
        )]
    }
}
