//! The chaos scenario pack: a full-fabric fault campaign with a
//! convergence verdict.
//!
//! Where [`campus`](crate::campus) and [`warehouse`](crate::warehouse)
//! reproduce the paper's *measured* workloads, this module stresses the
//! control plane the way an unlucky week of operations would:
//!
//! * a **reboot storm** — every access switch in a wing power-cycles on
//!   a stagger (≥100 edges at full scale), losing volatile state and
//!   recovering from its local endpoint inventory;
//! * a **routing-server restart mid-churn** — the mapping database,
//!   subscriber list and ARP table vanish; edges repopulate the database
//!   through registration refreshes, borders resync by snapshot;
//! * a **roam storm on a lossy fabric** — a slice of the population
//!   changes edges while every link drops a percentage of messages
//!   (Map-Requests, Registers, Publishes included).
//!
//! Edge↔policy-server links are pinned lossless for the campaign
//! (out-of-band management network): authentication has no retransmit
//! path, and the chaos under test is the *LISP* control plane's.
//!
//! ## Overload variant
//!
//! [`ChaosParams::with_overload`] (preset [`ChaosParams::shard_storm`])
//! layers the hardened control plane under the same storm: a multi-shard map-server with per-class admission
//! budgets scaled to the refresh-wave size, bounded ingress queues on
//! every node, and one control shard crashed mid-storm (its database
//! slice lost) and restarted while the others keep serving. The
//! campaign then asserts *graceful* degradation, not absence of pain:
//! sheds and tail-drops are expected and counted
//! (`ctrl.shed_replies`, `simnet.ingress_drops`,
//! `fabric.server_busy_backoffs`, `fabric.jittered_retries` in the
//! counter block), but every bounded structure's high-water mark stays
//! ≤ its cap and the fabric still reaches the fault-free fixed point —
//! retry-after floors plus decorrelated per-node jitter keep the shed
//! herds from re-synchronizing into lockstep waves.
//!
//! The campaign ends with a quiet tail longer than the map-cache idle
//! timeout (stale reactive entries must evict), a
//! [`check_convergence`] pass against the expected endpoint placement,
//! and a probe round that must deliver loss-free on the healed fabric.
//! Same seed ⇒ byte-identical run, faults and drops included.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_core::controller::{BorderHandle, EdgeHandle, FabricBuilder};
use sda_core::{
    check_convergence, AdmissionConfig, ClassBudget, ConvergenceReport, EndpointIdentity,
    ExpectedPlacement, Fabric,
};
use sda_simnet::{Fault, FaultPlan, SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId, VnId};

/// The one group everyone belongs to (policy is not under test here).
pub(crate) const USERS: GroupId = GroupId(10);

/// Campaign shape. Presets: [`ChaosParams::storm`] (full scale),
/// [`ChaosParams::reduced`] (CI scale), either with
/// [`ChaosParams::with_overload`] on top. The library reads no
/// environment; a caller picks the preset.
#[derive(Clone, Debug)]
pub struct ChaosParams {
    /// Label used in output.
    pub name: &'static str,
    /// Total endpoints.
    pub endpoints: usize,
    /// Edge routers.
    pub edges: usize,
    /// Border routers.
    pub borders: usize,
    /// How many edges the reboot storm power-cycles.
    pub reboot_edges: usize,
    /// Fraction of endpoints that change edges mid-campaign.
    pub roam_share: f64,
    /// Fabric-wide loss probability during the chaos window.
    pub fabric_loss: f64,
    /// RNG seed (schedule and fabric).
    pub seed: u64,
    /// Map-server shards on the routing server (1 = the paper's single
    /// server).
    pub ctrl_shards: usize,
    /// Crash one shard mid-campaign (requires `ctrl_shards > 1`): its
    /// slice of the mapping database is lost and rebuilt by the
    /// registration refreshes after the shard restarts.
    pub shard_outage: bool,
    /// Routing-server admission control: per-shard token buckets that
    /// shed over-budget messages with `ServerBusy` retry-after replies.
    pub admission: Option<AdmissionConfig>,
    /// Per-node bounded ingress queue (tail-drop beyond the cap).
    pub ingress_cap: Option<usize>,
}

impl ChaosParams {
    /// Full scale: a 120-edge fabric whose storm reboots 110 of them.
    pub fn storm() -> Self {
        ChaosParams {
            name: "storm",
            endpoints: 240,
            edges: 120,
            borders: 2,
            reboot_edges: 110,
            roam_share: 0.05,
            fabric_loss: 0.05,
            seed: 0xC4A05,
            ctrl_shards: 1,
            shard_outage: false,
            admission: None,
            ingress_cap: None,
        }
    }

    /// CI scale: same phases, ~5× smaller fabric.
    pub fn reduced() -> Self {
        ChaosParams {
            name: "reduced",
            endpoints: 48,
            edges: 24,
            borders: 1,
            reboot_edges: 20,
            roam_share: 0.1,
            fabric_loss: 0.05,
            seed: 0xC4A05,
            ctrl_shards: 1,
            shard_outage: false,
            admission: None,
            ingress_cap: None,
        }
    }

    /// The overload campaign: the same storm against a sharded,
    /// admission-guarded, bounded-queue control plane, with one shard
    /// crashed mid-storm. The budgets are sized so a synchronized
    /// refresh wave *must* shed (burst < wave) while the sustained rate
    /// comfortably drains the backlog before the next wave — the
    /// campaign proves degradation, not collapse.
    pub fn shard_storm() -> Self {
        ChaosParams {
            name: "shard-storm",
            ..Self::storm().with_overload(4)
        }
    }

    /// Applies the overload-hardening knobs on top of a base preset:
    /// `shards` map-server shards, per-shard admission budgets, a
    /// bounded per-node ingress queue and a mid-campaign shard outage.
    ///
    /// The campaign's single-/16 EID plan parks every IPv4 EID on one
    /// shard and every MAC EID on another (prefix-aligned partition), so
    /// each synchronized refresh wave hits one shard with the *whole*
    /// family's registers at once. Budgets scale with the population:
    /// burst well below the wave (every wave sheds) and a sustained rate
    /// that drains the backlog in under a second (every wave converges).
    pub fn with_overload(mut self, shards: usize) -> Self {
        assert!(shards > 1, "overload campaign needs a sharded server");
        let wave = self.endpoints as f64; // one family's refresh wave
        self.ctrl_shards = shards;
        self.shard_outage = true;
        self.admission = Some(AdmissionConfig {
            requests: ClassBudget::new((2.0 * wave).max(100.0), (wave / 4.0).max(16.0)),
            registers: ClassBudget::new((2.0 * wave).max(100.0), (wave / 8.0).max(8.0)),
            subscribes: ClassBudget::new(10.0, 4.0),
            retry_after: SimDuration::from_millis(300),
        });
        self.ingress_cap = Some(512);
        self
    }
}

/// Campaign phase boundaries (seconds). The roam window starts after
/// the last storm restart (16 + 110·0.12 + 2 ≈ 31.3 at full scale);
/// the convergence check sits off the 5-second control-plane timer
/// grid so it never samples a just-fired refresh mid-round-trip.
mod t {
    /// Attaches are staggered over `[0, ATTACH)`.
    pub(super) const ATTACH: u64 = 10;
    /// Fabric-wide loss switches on.
    pub(super) const LOSS_ON: u64 = 15;
    /// First storm crash.
    pub(super) const STORM: u64 = 16;
    /// Routing server crashes...
    pub(super) const SERVER_DOWN: u64 = 20;
    /// ...and restarts empty.
    pub(super) const SERVER_UP: u64 = 24;
    /// One map-server shard crashes (overload campaigns only)...
    pub(super) const SHARD_DOWN: u64 = 28;
    /// ...and restarts empty mid-roam-storm.
    pub(super) const SHARD_UP: u64 = 34;
    /// Roams are staggered over `[ROAM_FROM, ROAM_TO)`.
    pub(super) const ROAM_FROM: u64 = 33;
    /// End of the roam window.
    pub(super) const ROAM_TO: u64 = 39;
    /// Fabric-wide loss heals; the quiet tail begins.
    pub(super) const LOSS_OFF: u64 = 45;
    /// Convergence is checked here (quiet tail ≫ idle timeout). Off the
    /// 5-second refresh grid and the 2-second eviction grid, with 4 s of
    /// headroom after the t=85 refresh wave: an admission-throttled
    /// wave needs a few shed→retry rounds to drain before the check
    /// samples the pending maps.
    pub(super) const CHECK: u64 = 89;
    /// Probe round on the healed fabric.
    pub(super) const PROBE: u64 = 91;
    /// End of the run.
    pub(super) const END: u64 = 99;
}

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

/// One endpoint: identity, home edge, and where it ends up.
#[derive(Clone, Copy, Debug)]
pub struct Member {
    /// Identity (credentials + addresses).
    pub identity: EndpointIdentity,
    /// Edge it attaches to first.
    pub home: usize,
    /// Edge it is on when the campaign ends (≠ `home` for roamers).
    pub fin: usize,
}

/// The fault/retry counters every chaos run reports.
pub(crate) const CHAOS_COUNTERS: &[&str] = &[
    "simnet.faults_injected",
    "simnet.node_crashes",
    "simnet.node_restarts",
    "simnet.fault_msg_drops",
    "simnet.link_drops",
    "fabric.map_request_retries",
    "fabric.resolve_timeouts",
    "fabric.register_retries",
    "fabric.register_timeouts",
    "fabric.edge_restarts",
    "ctrl.server_restarts",
    "border.subscribe_retries",
    "border.publish_gaps",
    "border.publish_regressions",
    "border.resyncs_requested",
    "border.resyncs_completed",
    "border.stream_resumes",
    "border.snapshot_rows",
    "border.delta_rows",
    "ctrl.stream_replays",
    "simnet.ingress_drops",
    "simnet.shard_crashes",
    "simnet.shard_restarts",
    "ctrl.shed_replies",
    "ctrl.shard_drops",
    "fabric.server_busy_backoffs",
    "fabric.negative_cache_hits",
    "fabric.jittered_retries",
    "fabric.resolve_evictions",
];

/// What a campaign run produced.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The convergence verdict at the end of the quiet tail.
    pub report: ConvergenceReport,
    /// Probes sent on the healed fabric.
    pub probes_sent: u64,
    /// Probes delivered (must equal `probes_sent`: loss is healed).
    pub probes_delivered: u64,
    /// `(name, value)` for every counter in `CHAOS_COUNTERS`.
    pub counters: Vec<(&'static str, u64)>,
    /// High-water mark of the routing server's ingress queue.
    pub server_queue_peak: u32,
    /// The per-node ingress cap the campaign ran with, if bounded.
    pub queue_cap: Option<usize>,
}

impl ChaosOutcome {
    /// Prints the observability block scenario binaries and tests emit.
    pub fn print(&self, label: &str) {
        println!("chaos[{label}] convergence: {:?}", self.report);
        println!(
            "chaos[{label}] probes: {}/{} delivered",
            self.probes_delivered, self.probes_sent
        );
        match self.queue_cap {
            Some(cap) => println!(
                "chaos[{label}] server queue peak: {} (cap {cap})",
                self.server_queue_peak
            ),
            None => println!(
                "chaos[{label}] server queue peak: {} (unbounded)",
                self.server_queue_peak
            ),
        }
        for (name, value) in &self.counters {
            println!("chaos[{label}]   {name} = {value}");
        }
    }
}

/// A built campaign: fabric wired, faults, churn and traffic scheduled.
pub struct ChaosScenario {
    /// The fabric under test.
    pub fabric: Fabric,
    /// Edge handles, index-aligned with `Member::home`/`Member::fin`.
    pub edges: Vec<EdgeHandle>,
    /// Border handles.
    pub borders: Vec<BorderHandle>,
    /// Everyone, with final placement.
    pub roster: Vec<Member>,
    /// The one overlay VN.
    pub vn: VnId,
    /// Parameters used.
    pub params: ChaosParams,
}

impl ChaosScenario {
    /// Builds the fabric and pre-schedules the whole campaign.
    pub fn build(params: ChaosParams) -> ChaosScenario {
        assert!(params.reboot_edges <= params.edges);
        assert!(params.edges >= 2, "roams need somewhere to go");
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let mut b = FabricBuilder::new(params.seed);
        {
            let cfg = b.config_mut();
            // Fast control plane + short idle timeout: the quiet tail
            // (LOSS_OFF..CHECK, 46 s) covers several refresh rounds and
            // more than two idle-eviction horizons.
            cfg.refresh_interval = Some(SimDuration::from_secs(5));
            cfg.subscribe_refresh_interval = Some(SimDuration::from_secs(5));
            cfg.purge_interval = Some(SimDuration::from_secs(5));
            cfg.register_ttl_secs = 30;
            cfg.idle_timeout = SimDuration::from_secs(20);
            cfg.eviction_interval = SimDuration::from_secs(2);
            cfg.ctrl_shards = params.ctrl_shards;
            cfg.admission = params.admission;
            cfg.node_ingress_cap = params.ingress_cap;
        }
        let vn = b.add_vn(
            100,
            Ipv4Prefix::new(std::net::Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
        );
        b.allow(vn, USERS, USERS);
        let edges: Vec<EdgeHandle> = (0..params.edges)
            .map(|i| b.add_edge(format!("chaos-e{i}")))
            .collect();
        let borders: Vec<BorderHandle> = (0..params.borders)
            .map(|i| b.add_border(format!("chaos-b{i}"), vec![]))
            .collect();

        let mut roster: Vec<Member> = (0..params.endpoints)
            .map(|i| Member {
                identity: b.mint_endpoint(vn, USERS),
                home: i % params.edges,
                fin: i % params.edges,
            })
            .collect();

        let mut fabric = b.build();

        // Attach everyone, staggered over the first seconds.
        for (i, m) in roster.iter().enumerate() {
            let at =
                SimTime::ZERO + SimDuration::from_secs_f64(rng.gen::<f64>() * t::ATTACH as f64);
            fabric.attach_at(at, edges[m.home], m.identity, PortId(i as u16));
        }

        // The fault plan: lossless management links to the policy server
        // first (auth has no retransmit path — see module docs), then
        // the three chaos phases.
        let policy = fabric.policy_node();
        let mut plan = FaultPlan::new();
        for &e in &edges {
            plan = plan.at(
                SimTime::ZERO,
                Fault::Loss {
                    a: fabric.edge_node(e),
                    b: policy,
                    loss: 0.0,
                },
            );
        }
        plan = plan
            .default_loss_window(params.fabric_loss, secs(t::LOSS_ON), secs(t::LOSS_OFF))
            .reboot(
                fabric.routing_node(),
                secs(t::SERVER_DOWN),
                secs(t::SERVER_UP),
            );
        for (i, &e) in edges.iter().take(params.reboot_edges).enumerate() {
            let down = secs(t::STORM) + SimDuration::from_millis(120).saturating_mul(i as u64);
            plan = plan.reboot(fabric.edge_node(e), down, down + SimDuration::from_secs(2));
        }
        if params.shard_outage {
            assert!(
                params.ctrl_shards > 1,
                "a shard outage needs a sharded server"
            );
            // Crash a middle shard while the roam storm is still running:
            // its database slice is lost; refresh registrations rebuild
            // it after the restart.
            plan = plan.shard_outage(
                fabric.routing_node(),
                1,
                secs(t::SHARD_DOWN),
                secs(t::SHARD_UP),
            );
        }
        fabric.schedule_faults(&plan);

        // Roam storm: a slice of the population changes edges after the
        // reboot storm settles (a detach aimed at a crashed edge would
        // be lost with the power, leaving two edges claiming one
        // endpoint — a fabric with out-of-band port state; here roams
        // go switch-to-switch while both are up).
        let roam_count = (params.endpoints as f64 * params.roam_share).round() as usize;
        let roam_span = (t::ROAM_TO - t::ROAM_FROM) as f64;
        for k in 0..roam_count {
            let i = k * params.endpoints / roam_count.max(1);
            let m = roster[i];
            let mut dst = rng.gen_range(0..params.edges);
            if dst == m.home {
                dst = (dst + 1) % params.edges;
            }
            let at = secs(t::ROAM_FROM) + SimDuration::from_secs_f64(rng.gen::<f64>() * roam_span);
            fabric.detach_at(at, edges[m.home], m.identity.mac);
            fabric.attach_at(
                at + SimDuration::from_millis(500),
                edges[dst],
                m.identity,
                PortId(i as u16),
            );
            roster[i].fin = dst;
        }

        // Background traffic through the chaos window: drives reactive
        // resolutions (and their retransmits) under loss. Roamers stop
        // sending before their detach.
        for (i, m) in roster.iter().enumerate() {
            let send_until = if m.fin != m.home {
                t::ROAM_FROM
            } else {
                t::ROAM_TO
            };
            for f in 0..2u64 {
                let span = (send_until - t::ATTACH) as f64;
                let at = secs(t::ATTACH) + SimDuration::from_secs_f64(rng.gen::<f64>() * span);
                let peer =
                    &roster[(i + 1 + rng.gen_range(0..params.endpoints - 1)) % params.endpoints];
                fabric.send_at(
                    at,
                    edges[m.home],
                    m.identity.mac,
                    Eid::V4(peer.identity.ipv4),
                    256,
                    (i as u64) << 8 | f,
                    false,
                );
            }
        }

        ChaosScenario {
            fabric,
            edges,
            borders,
            roster,
            vn,
            params,
        }
    }

    /// Where every endpoint must be once the faults cease.
    pub fn expected(&self) -> ExpectedPlacement {
        let mut want = ExpectedPlacement::new();
        for m in &self.roster {
            let rloc = self.fabric.edge(self.edges[m.fin]).rloc();
            want.insert((self.vn, Eid::V4(m.identity.ipv4)), rloc);
            want.insert((self.vn, Eid::Mac(m.identity.mac)), rloc);
        }
        want
    }

    /// Runs the campaign: chaos, quiet tail, convergence check, probes.
    pub fn run(&mut self) -> ChaosOutcome {
        self.fabric.run_until(secs(t::CHECK));
        let report = check_convergence(&self.fabric, &self.expected());

        // Probe round on the healed fabric: every endpoint reaches a
        // peer on a different (final) edge, loss-free.
        let delivered_before = self.fabric.metrics().counter("fabric.delivered");
        let mut probes = 0u64;
        let roster = self.roster.clone();
        for (i, m) in roster.iter().enumerate() {
            let Some(peer) = (1..roster.len())
                .map(|d| &roster[(i + d) % roster.len()])
                .find(|p| p.fin != m.fin)
            else {
                continue;
            };
            self.fabric.send_at(
                secs(t::PROBE) + SimDuration::from_millis(10).saturating_mul(i as u64),
                self.edges[m.fin],
                m.identity.mac,
                Eid::V4(peer.identity.ipv4),
                128,
                0xF000 + i as u64,
                false,
            );
            probes += 1;
        }
        self.fabric.run_until(secs(t::END));

        let routing = self.fabric.routing_node();
        let server_queue_peak = self.fabric.sim_mut().ingress_peak(routing);
        let m = self.fabric.metrics();
        ChaosOutcome {
            report,
            probes_sent: probes,
            probes_delivered: m.counter("fabric.delivered") - delivered_before,
            counters: CHAOS_COUNTERS.iter().map(|n| (*n, m.counter(n))).collect(),
            server_queue_peak,
            queue_cap: self.params.ingress_cap,
        }
    }
}
