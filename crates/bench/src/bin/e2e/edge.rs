//! The `edge_*` workloads: real host frames through `Switch` /
//! `MtSwitch`, in process memory — no link, not even loopback.
//!
//! One ingress switch faces [`EGRESS`] egress switches (one per remote
//! RLOC). [`LOCAL`] endpoints send from the ingress toward [`REMOTE`]
//! endpoints spread over [`VNS`] virtual networks and [`GROUPS`] groups;
//! a deny-default matrix allows ~70 % of the group pairs and is enforced
//! at egress (the paper's default). Destinations are Zipf-1.0 within the
//! sender's VN, 20 % of the frames go to external addresses and ride the
//! border default route. Frames arrive in per-host bursts of [`BURST`]
//! (the pattern the engine's source memo and same-VN runs are built
//! for). Every frame is composed before the clock starts and its flow id
//! is its pool index, so a delivered frame names the input it came from.
//!
//! * `edge_steady` — 64 B payloads, no table writes.
//! * `edge_churn` — 1,400 B payloads; every [`HANDOVER_EVERY`] frames a
//!   remote endpoint hands over to the next egress switch (detach,
//!   attach, Map-Notify to the old edge; the data path then raises the
//!   SMR and refresh punts, which the benchmark answers), and every
//!   [`RULES_EVERY`] frames a [`DELTA_RULES`]-rule SXP delta lands on all
//!   five switches.
//! * `edge_mt` — the `edge_steady` ingress stream through `MtSwitch` in
//!   1,024-frame bursts with a periodic install + publish.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_core::pipeline::{compose_host_frame, parse_delivered_frame, FRAME_META_LEN};
use sda_dataplane::{
    encap, DropReason, LocalEndpoint, MtSwitch, PacketBuf, Punt, SharedTables, Switch,
    SwitchConfig, Verdict, BATCH_SIZE,
};
use sda_lisp::{CacheOutcome, MapCache};
use sda_policy::{Action, CompiledAcl, ConnectivityMatrix, GroupRule, RuleSubset};
use sda_simnet::{SimDuration, SimTime};
use sda_trie::EidTrie;
use sda_types::{Eid, EidPrefix, GroupId, MacAddr, PortId, Rloc, VnId};
use sda_wire::{ethernet, ipv4, EtherType};
use sda_workloads::ZipfSampler;

use crate::harness::{
    mib, ns_per_item, warm_up, Batch, Outcome, RunCfg, Span, Traced, Tracer, Values, Workload,
};

const VNS: [u32; 4] = [101, 102, 103, 104];
const GROUPS: u16 = 32;
const LOCAL: usize = 64;
const REMOTE: usize = 4096;
const EGRESS: usize = 4;
const BURST: usize = 8;
const EXTERNAL_SHARE: f64 = 0.2;
const ALLOW_SHARE: f64 = 0.7;
const EXTERNAL: u32 = u32::MAX;

/// Frames between two handovers, and between two rule deltas. Both
/// divide [`CHURN_POOL`], so every pass over the pool meets its events at
/// the same frames; a delta lands in one batch of 60, which puts the
/// delta batches inside `batch_p99_us`.
const HANDOVER_EVERY: u64 = 24;
const RULES_EVERY: u64 = 1920;
/// Frames in the `edge_churn` pool.
const CHURN_POOL: usize = 15_360;
const DELTA_RULES: usize = 64;
/// Distinct deltas; each is applied flipped, then restored, in turn.
const DELTAS: usize = 16;

const MT_BURST: usize = 1024;
const MT_PUBLISH_EVERY: u64 = 256;

const INGRESS_RLOC: Rloc = Rloc::for_router_index(1);
const BORDER_RLOC: Rloc = Rloc::for_router_index(999);
const MAPPING_TTL: SimDuration = SimDuration::from_secs(48 * 3600);
/// Simulated time one 32-frame batch stands for.
const BATCH_TICK: SimDuration = SimDuration::from_micros(10);

fn vn(idx: usize) -> VnId {
    VnId::new(VNS[idx]).expect("24-bit VN id")
}

fn egress_rloc(e: usize) -> Rloc {
    Rloc::for_router_index(2 + e as u16)
}

/// The egress switch behind `rloc`, if it is one of ours.
fn egress_index(rloc: Rloc) -> Option<usize> {
    let o = rloc.addr().octets();
    let idx = usize::from(u16::from_be_bytes([o[2], o[3]]));
    (2..2 + EGRESS).contains(&idx).then(|| idx - 2)
}

fn remote_ip(r: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 20, (r >> 8) as u8, r as u8)
}

/// The remote endpoint owning `eid`, if any.
fn remote_of(eid: Eid) -> Option<usize> {
    match eid {
        Eid::V4(ip) => {
            let o = ip.octets();
            (o[0] == 10 && o[1] == 20).then(|| usize::from(u16::from_be_bytes([o[2], o[3]])))
        }
        _ => None,
    }
}

fn cell(vn_idx: usize, src: GroupId, dst: GroupId) -> u16 {
    ((vn_idx as u16) << 10) | ((src.0 - 1) << 5) | (dst.0 - 1)
}

/// What the generator knows about one pool frame.
#[derive(Clone, Copy)]
struct FrameMeta {
    dst_ip: Ipv4Addr,
    /// Remote endpoint index, or [`EXTERNAL`].
    dst: u32,
    /// Matrix cell of (VN, source group, destination group).
    cell: u16,
    /// Sending local endpoint.
    src: u16,
}

/// One SXP delta in both polarities: `[flipped, restored]`.
struct Delta {
    cells: Vec<u16>,
    subsets: [RuleSubset; 2],
}

/// Everything generated from the seed before the clock starts.
struct Plan {
    locals: Vec<LocalEndpoint>,
    remotes: Vec<LocalEndpoint>,
    matrix: ConnectivityMatrix,
    /// Dense mirror of `matrix`, indexed by [`cell`].
    deny: Vec<bool>,
    deltas: Vec<Delta>,
    /// Remote endpoints in handover order, cycled.
    handovers: Vec<u16>,
    frames: Vec<u8>,
    frame_len: usize,
    meta: Vec<FrameMeta>,
    gen_s: f64,
}

impl Plan {
    fn generate(cfg: &RunCfg, payload: usize, pool: usize) -> Plan {
        let t = Instant::now();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let group = |rng: &mut SmallRng| GroupId(1 + rng.gen_range(0..GROUPS));
        let locals: Vec<LocalEndpoint> = (0..LOCAL)
            .map(|l| LocalEndpoint {
                port: PortId(l as u16),
                group: group(&mut rng),
                mac: MacAddr::from_seed(1 + l as u32),
                ipv4: Ipv4Addr::new(10, 10, 0, 1 + l as u8),
            })
            .collect();
        let remotes: Vec<LocalEndpoint> = (0..REMOTE)
            .map(|r| LocalEndpoint {
                port: PortId(r as u16),
                group: group(&mut rng),
                mac: MacAddr::from_seed(100_000 + r as u32),
                ipv4: remote_ip(r),
            })
            .collect();

        let mut matrix = ConnectivityMatrix::new();
        let mut deny = vec![true; VNS.len() << 10];
        for v in 0..VNS.len() {
            for s in 1..=GROUPS {
                for d in 1..=GROUPS {
                    if rng.gen::<f64>() < ALLOW_SHARE {
                        matrix.set_rule(vn(v), GroupId(s), GroupId(d), Action::Allow);
                        deny[usize::from(cell(v, GroupId(s), GroupId(d)))] = false;
                    }
                }
            }
        }

        // Deltas touch pairwise distinct cells, so polarity is the only
        // state a cell carries.
        let mut cells: Vec<u16> = (0..deny.len() as u16).collect();
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.gen_range(0..=i));
        }
        let deltas = cells
            .chunks(DELTA_RULES)
            .take(DELTAS)
            .map(|chunk| {
                // Ascending cell order is ascending (vn, src, dst), the
                // order SXP subsets are shipped in.
                let mut chunk = chunk.to_vec();
                chunk.sort_unstable();
                let subset = |flip: bool| RuleSubset {
                    version: matrix.version() + 1,
                    rules: chunk
                        .iter()
                        .map(|&c| {
                            let denied = deny[usize::from(c)] ^ flip;
                            let rule = GroupRule {
                                src: GroupId(1 + ((c >> 5) & 31)),
                                dst: GroupId(1 + (c & 31)),
                                action: if denied { Action::Deny } else { Action::Allow },
                            };
                            (vn(usize::from(c >> 10)), rule)
                        })
                        .collect(),
                };
                Delta {
                    subsets: [subset(true), subset(false)],
                    cells: chunk,
                }
            })
            .collect();
        let handovers = (0..1 << 16)
            .map(|_| rng.gen_range(0..REMOTE as u16))
            .collect();

        // Popularity rank → remote endpoint, decorrelated from the
        // egress assignment by a seeded permutation.
        let per_vn = REMOTE / VNS.len();
        let mut rank_to_slot: Vec<usize> = (0..per_vn).collect();
        for i in (1..per_vn).rev() {
            rank_to_slot.swap(i, rng.gen_range(0..=i));
        }
        let zipf = ZipfSampler::new(per_vn, 1.0);

        let mut frames = Vec::new();
        let mut meta = Vec::with_capacity(pool);
        let mut scratch = Vec::new();
        while meta.len() < pool {
            let src = rng.gen_range(0..LOCAL);
            let v = src % VNS.len();
            for _ in 0..BURST {
                let (dst, dst_ip) = if rng.gen::<f64>() < EXTERNAL_SHARE {
                    (EXTERNAL, Ipv4Addr::new(93, 184, 216, rng.gen()))
                } else {
                    let r = rank_to_slot[zipf.sample(&mut rng)] * VNS.len() + v;
                    (r as u32, remote_ip(r))
                };
                let composed = compose_host_frame(
                    &mut scratch,
                    locals[src].mac,
                    locals[src].ipv4,
                    Eid::V4(dst_ip),
                    (payload - FRAME_META_LEN) as u16,
                    meta.len() as u64,
                    false,
                );
                assert!(composed, "IPv4 destinations always have a byte form");
                frames.extend_from_slice(&scratch);
                let dst_group = remotes.get(dst as usize).map_or(GroupId(1), |ep| ep.group);
                meta.push(FrameMeta {
                    dst_ip,
                    dst,
                    cell: cell(v, locals[src].group, dst_group),
                    src: src as u16,
                });
            }
        }
        Plan {
            locals,
            remotes,
            matrix,
            deny,
            deltas,
            handovers,
            frame_len: frames.len() / pool,
            frames,
            meta,
            gen_s: t.elapsed().as_secs_f64(),
        }
    }

    fn frame(&self, i: usize) -> &[u8] {
        &self.frames[i * self.frame_len..(i + 1) * self.frame_len]
    }

    /// Home egress switch of remote endpoint `r`.
    fn home(r: usize) -> usize {
        (r / VNS.len()) % EGRESS
    }

    fn switch_config(rloc: Rloc) -> SwitchConfig {
        let mut cfg = SwitchConfig::new(rloc);
        cfg.border = Some(BORDER_RLOC);
        cfg
    }

    /// The ingress switch's local endpoints with their VNs.
    fn local_attachments(&self) -> impl Iterator<Item = (VnId, LocalEndpoint)> + '_ {
        self.locals
            .iter()
            .enumerate()
            .map(|(l, ep)| (vn(l % VNS.len()), *ep))
    }

    /// The ingress switch's initial map-cache: every remote endpoint at
    /// its home egress switch.
    fn home_mappings(&self) -> impl Iterator<Item = (VnId, EidPrefix, Rloc)> + '_ {
        self.remotes.iter().enumerate().map(|(r, ep)| {
            let prefix = EidPrefix::host(Eid::V4(ep.ipv4));
            (vn(r % VNS.len()), prefix, egress_rloc(Self::home(r)))
        })
    }

    /// A single-threaded ingress switch loaded with this plan.
    fn ingress_switch(&self) -> Switch {
        let mut sw = Switch::new(Self::switch_config(INGRESS_RLOC));
        for (v, ep) in self.local_attachments() {
            sw.attach(v, ep);
        }
        for (v, prefix, rloc) in self.home_mappings() {
            sw.install_mapping(v, prefix, rloc, MAPPING_TTL, SimTime::ZERO);
        }
        sw.install_matrix(&self.matrix);
        sw.compact_tables();
        sw
    }
}

/// The frame pool's size: a whole number of `edge_mt` bursts.
fn pool_frames(cfg: &RunCfg, full: usize) -> usize {
    let n = cfg.pop(full, 4 * MT_BURST);
    n - n % MT_BURST
}

// ---------------------------------------------------------------------
// edge_steady / edge_churn
// ---------------------------------------------------------------------

/// Verdict tallies of the ingress → egress path since `build`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct PathTally {
    frames: u64,
    delivered: u64,
    default_routed: u64,
    policy_drops: u64,
    other_drops: u64,
    reforwards: u64,
    punts_unanswered: u64,
    punts_answered: u64,
    punts_smr: u64,
    handovers: u64,
    rule_updates: u64,
    table_writes: u64,
    sampled: u64,
}

/// `edge_steady` (`CHURN = false`) and `edge_churn` (`CHURN = true`).
pub struct EdgePath<const CHURN: bool> {
    plan: Plan,
    /// Index 0 is the ingress switch, `1 + e` egress switch `e`.
    sw: Vec<Switch>,
    bufs: Vec<PacketBuf>,
    /// Frames staged per egress switch for the current hop…
    stage: Vec<Vec<PacketBuf>>,
    /// …and re-forwarded frames staged for the next one.
    spill: Vec<Vec<PacketBuf>>,
    punt_scratch: Vec<Punt>,
    now: SimTime,
    cursor: usize,
    /// Current egress switch of every remote endpoint.
    loc: Vec<u8>,
    next_handover: u64,
    next_rules: u64,
    tally: PathTally,
    warm_frames: u64,
    window_frames: u64,
    window: Option<PathTally>,
    violation: Option<String>,
}

pub type EdgeSteady = EdgePath<false>;
pub type EdgeChurn = EdgePath<true>;

impl<const CHURN: bool> EdgePath<CHURN> {
    fn violate(&mut self, what: String) {
        self.violation.get_or_insert(what);
    }

    /// Mobility and policy events due before the next batch.
    fn churn_events(&mut self, tr: &mut Tracer) {
        while self.next_handover <= self.tally.frames {
            let seq = &self.plan.handovers;
            let r = usize::from(seq[(self.tally.handovers % seq.len() as u64) as usize]);
            let ep = self.plan.remotes[r];
            let v = vn(r % VNS.len());
            let old = usize::from(self.loc[r]);
            let new = (old + 1) % EGRESS;
            tr.enter(Span::TableWrite);
            self.sw[1 + old].detach(ep.mac);
            tr.exit();
            tr.enter(Span::TableWrite);
            self.sw[1 + new].attach(v, ep);
            tr.exit();
            // Fig. 5 step 2: the Map-Notify tells the previous edge
            // where the endpoint went.
            let prefix = EidPrefix::host(Eid::V4(ep.ipv4));
            tr.enter(Span::TableWrite);
            self.sw[1 + old].install_mapping(v, prefix, egress_rloc(new), MAPPING_TTL, self.now);
            tr.exit();
            self.loc[r] = new as u8;
            self.tally.handovers += 1;
            self.tally.table_writes += 3;
            self.next_handover += HANDOVER_EVERY;
        }
        while self.next_rules <= self.tally.frames {
            let k = self.tally.rule_updates as usize;
            let delta = &self.plan.deltas[k % DELTAS].subsets[(k / DELTAS) % 2];
            for sw in &mut self.sw {
                tr.enter(Span::DeltaInstall);
                sw.install_rules(delta);
                tr.exit();
            }
            self.tally.rule_updates += 1;
            self.next_rules += RULES_EVERY;
        }
    }

    /// Drains switch `s`'s punts and plays the control plane for them.
    fn service_punts(&mut self, tr: &mut Tracer, s: usize) {
        tr.enter(Span::PuntService);
        let mut punts = std::mem::take(&mut self.punt_scratch);
        self.sw[s].drain_punts_into(&mut punts);
        for &punt in &punts {
            match punt {
                Punt::MapRequest { vn, eid, refresh } => match remote_of(eid) {
                    Some(r) => {
                        let rloc = egress_rloc(usize::from(self.loc[r]));
                        tr.enter(Span::TableWrite);
                        if refresh {
                            self.sw[s].update_mapping(vn, eid, rloc, MAPPING_TTL, self.now);
                        } else {
                            let prefix = EidPrefix::host(eid);
                            self.sw[s].install_mapping(vn, prefix, rloc, MAPPING_TTL, self.now);
                        }
                        tr.exit();
                        self.tally.punts_answered += 1;
                        self.tally.table_writes += 1;
                    }
                    // An unregistered (external) destination: the edge's
                    // negative-cache hold absorbs the repeats.
                    None => self.tally.punts_unanswered += 1,
                },
                Punt::Smr { to, vn, eid } => {
                    let target = if to == INGRESS_RLOC {
                        Some(0)
                    } else {
                        egress_index(to).map(|e| 1 + e)
                    };
                    if let Some(t) = target {
                        self.sw[t].receive_smr(vn, eid, self.now);
                    }
                    self.tally.punts_smr += 1;
                }
            }
        }
        self.punt_scratch = punts;
        tr.exit();
    }

    /// Checks one delivered buffer against the input frame it names.
    fn check_delivery(plan: &Plan, buf: &PacketBuf, port: PortId) -> Result<(), String> {
        let d = parse_delivered_frame(buf.bytes())
            .ok_or_else(|| "delivered buffer does not parse as a host frame".to_string())?;
        let m = plan
            .meta
            .get(d.flow as usize)
            .ok_or_else(|| format!("delivered flow id {} names no input frame", d.flow))?;
        let ep = plan
            .remotes
            .get(m.dst as usize)
            .ok_or_else(|| format!("frame {} was external but got delivered", d.flow))?;
        let eth = ethernet::Frame::new_checked(buf.bytes()).map_err(|e| e.to_string())?;
        if d.dst != Eid::V4(m.dst_ip) || port != ep.port || eth.dst_addr() != ep.mac {
            return Err(format!(
                "frame {} delivered to {:?} port {:?}, expected {} port {:?}",
                d.flow, d.dst, port, m.dst_ip, ep.port
            ));
        }
        Ok(())
    }

    /// The generator's own evaluation of everything submitted so far:
    /// `(default-routed, policy drops)`.
    fn expected(&self) -> (u64, u64) {
        let mut deny = self.plan.deny.clone();
        let (mut external, mut denied) = (0u64, 0u64);
        let pool = self.plan.meta.len() as u64;
        for f in 0..self.tally.frames {
            if CHURN && f > 0 && f % RULES_EVERY == 0 {
                let k = (f / RULES_EVERY - 1) as usize;
                for &c in &self.plan.deltas[k % DELTAS].cells {
                    deny[usize::from(c)] ^= true;
                }
            }
            let m = &self.plan.meta[(f % pool) as usize];
            if m.dst == EXTERNAL {
                external += 1;
            } else if deny[usize::from(m.cell)] {
                denied += 1;
            }
        }
        (external, denied)
    }
}

impl<const CHURN: bool> Workload for EdgePath<CHURN> {
    const SETUPS: usize = 16;

    fn build(cfg: &RunCfg) -> Self {
        let (payload, pool) = if CHURN {
            (1400, pool_frames(cfg, CHURN_POOL))
        } else {
            (64, pool_frames(cfg, 65_536))
        };
        let plan = Plan::generate(cfg, payload, pool);
        let now = SimTime::ZERO + SimDuration::from_secs(1);

        let mut sw = vec![plan.ingress_switch()];
        for e in 0..EGRESS {
            let mut egress = Switch::new(Plan::switch_config(egress_rloc(e)));
            for (r, ep) in plan.remotes.iter().enumerate() {
                if Plan::home(r) == e {
                    egress.attach(vn(r % VNS.len()), *ep);
                }
            }
            egress.install_matrix(&plan.matrix);
            egress.compact_tables();
            sw.push(egress);
        }

        let bufs = || {
            (0..BATCH_SIZE)
                .map(|_| PacketBuf::new())
                .collect::<Vec<_>>()
        };
        let mut path = EdgePath {
            loc: (0..REMOTE).map(|r| Plan::home(r) as u8).collect(),
            sw,
            bufs: bufs(),
            stage: (0..EGRESS).map(|_| bufs()).collect(),
            spill: (0..EGRESS).map(|_| bufs()).collect(),
            punt_scratch: Vec::new(),
            now,
            cursor: 0,
            next_handover: HANDOVER_EVERY,
            next_rules: RULES_EVERY,
            tally: PathTally::default(),
            warm_frames: 0,
            window_frames: cfg.ops(if CHURN { 1 << 20 } else { 1 << 21 }),
            window: None,
            violation: None,
            plan,
        };
        // Warm-up: one pass over the pool.
        warm_up(&mut path, pool / BATCH_SIZE);
        path.warm_frames = path.tally.frames;
        path.window = None;
        path
    }

    fn gen_s(&self) -> f64 {
        self.plan.gen_s
    }

    fn batch(&mut self, tr: &mut Tracer) -> Batch {
        if CHURN {
            self.churn_events(tr);
        }
        tr.enter(Span::Load);
        for (i, buf) in self.bufs.iter_mut().enumerate() {
            let loaded = buf.load(self.plan.frame(self.cursor + i));
            debug_assert!(loaded, "pool frames fit a buffer");
        }
        tr.exit();
        self.cursor = (self.cursor + BATCH_SIZE) % self.plan.meta.len();

        tr.enter(Span::Ingress);
        self.sw[0].process_ingress(&mut self.bufs, self.now);
        tr.exit();
        let mut staged = [0usize; EGRESS];
        for (i, v) in self.sw[0].verdicts().iter().enumerate() {
            match *v {
                Verdict::Forward { to } => match egress_index(to) {
                    Some(e) => {
                        std::mem::swap(&mut self.bufs[i], &mut self.stage[e][staged[e]]);
                        staged[e] += 1;
                    }
                    None => self.tally.default_routed += 1,
                },
                Verdict::Drop(DropReason::Policy) => self.tally.policy_drops += 1,
                _ => self.tally.other_drops += 1,
            }
        }
        self.service_punts(tr, 0);

        // Egress hops: one in steady state, more while a moved
        // endpoint's traffic chases it (Fig. 6).
        while staged.iter().any(|n| *n > 0) {
            let mut spilled = [0usize; EGRESS];
            for (e, &n) in staged.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                tr.enter(Span::Egress);
                self.sw[1 + e].process_egress(&mut self.stage[e][..n], self.now);
                tr.exit();
                for k in 0..n {
                    let verdict = self.sw[1 + e].verdicts()[k];
                    match verdict {
                        Verdict::Deliver { port } => {
                            self.tally.delivered += 1;
                            if self.tally.delivered.is_multiple_of(1024) {
                                self.tally.sampled += 1;
                                let checked =
                                    Self::check_delivery(&self.plan, &self.stage[e][k], port);
                                if let Err(what) = checked {
                                    self.violate(what);
                                }
                            }
                        }
                        Verdict::Drop(DropReason::Policy) => self.tally.policy_drops += 1,
                        Verdict::Forward { to } => match egress_index(to) {
                            Some(e2) => {
                                let slot = &mut self.spill[e2][spilled[e2]];
                                std::mem::swap(&mut self.stage[e][k], slot);
                                spilled[e2] += 1;
                                self.tally.reforwards += 1;
                            }
                            None => self.tally.default_routed += 1,
                        },
                        _ => self.tally.other_drops += 1,
                    }
                }
                self.service_punts(tr, 1 + e);
            }
            std::mem::swap(&mut self.stage, &mut self.spill);
            staged = spilled;
        }

        self.now += BATCH_TICK;
        self.tally.frames += BATCH_SIZE as u64;
        if self.window.is_none() && self.tally.frames - self.warm_frames >= self.window_frames {
            self.window = Some(self.tally);
        }
        Batch {
            ops: BATCH_SIZE as u64,
            // A round is one pass over the frame pool.
            round_end: self.cursor == 0,
        }
    }

    fn window_complete(&self) -> bool {
        self.window.is_some()
    }

    fn window_counts(&self) -> Vec<(&'static str, u64)> {
        let t = self.window.unwrap_or_default();
        vec![
            ("frames", t.frames),
            ("delivered", t.delivered),
            ("default_routed", t.default_routed),
            ("policy_drops", t.policy_drops),
            ("other_drops", t.other_drops),
            ("reforwards", t.reforwards),
            ("punts_unanswered", t.punts_unanswered),
            ("punts_answered", t.punts_answered),
            ("punts_smr", t.punts_smr),
            ("handovers", t.handovers),
            ("rule_updates", t.rule_updates),
            ("table_writes", t.table_writes),
            ("sampled", t.sampled),
        ]
    }

    fn finish(&mut self) -> Result<Outcome, String> {
        if let Some(what) = self.violation.take() {
            return Err(what);
        }
        let t = self.tally;
        let (external, denied) = self.expected();
        if t.delivered + t.default_routed + t.policy_drops + t.other_drops != t.frames {
            return Err(format!("conservation broken: {t:?}"));
        }
        if t.default_routed != external || t.policy_drops != denied {
            return Err(format!(
                "generator expects {external} default-routed and {denied} policy drops: {t:?}"
            ));
        }
        let rx: u64 = self.sw[0].stats().rx;
        if rx != t.frames {
            return Err(format!("ingress saw {rx} frames of {}", t.frames));
        }
        Ok(Outcome {
            attempted: t.frames - self.warm_frames,
            failed: t.other_drops,
        })
    }

    fn layers(&mut self, tr: &Tracer, traced: Traced, out: &mut Values) {
        let pkts = traced.round_ops;
        out.insert("dataplane.load_ns_per_pkt", tr.ns_per(Span::Load, pkts));
        let ingress = tr.ns_per(Span::Ingress, pkts);
        out.insert("dataplane.ingress_ns_per_pkt", ingress);
        out.insert("dataplane.egress_ns_per_pkt", tr.ns_per(Span::Egress, pkts));
        out.insert(
            "dataplane.punt_service_ns_per_pkt",
            tr.ns_per(Span::PuntService, pkts),
        );
        out.insert(
            "dataplane.table_write_ns_per_op",
            tr.mean_ns(Span::TableWrite),
        );
        out.insert(
            "policy.delta_install_us",
            tr.mean_ns(Span::DeltaInstall) / 1e3,
        );
        out.insert("dataplane.allocs_per_pkt", traced.allocs_per_op());

        // Shares over everything since `build`, warm-up pass included.
        let w = self.window.unwrap_or_default();
        let frames = w.frames.max(1) as f64;
        let punts = w.punts_unanswered + w.punts_answered + w.punts_smr;
        out.insert("dataplane.punts_per_kpkt", punts as f64 * 1e3 / frames);
        out.insert(
            "dataplane.default_routed_share",
            w.default_routed as f64 / frames,
        );
        out.insert(
            "dataplane.policy_drop_share",
            w.policy_drops as f64 / frames,
        );
        out.insert("dataplane.other_drop_share", w.other_drops as f64 / frames);
        let fib: usize = self.sw.iter().map(Switch::fib_len).sum();
        out.insert("dataplane.fib_entries", fib as f64);
        let table: usize = self
            .sw
            .iter()
            .map(|s| s.table_mem_stats().capacity_bytes)
            .sum();
        out.insert("dataplane.table_mib", mib(table));

        probes(&self.plan, self.sw[0].tables(), self.now, out);
        let attributed = out["wire.parse_probe_ns_per_pkt"]
            + out["lisp.cache_lookup_probe_ns_per_key"]
            + out["dataplane.encap_probe_ns_per_pkt"];
        out.insert("dataplane.unattributed_share", 1.0 - attributed / ingress);
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "traffic is in-process memory (no link, not even loopback); {} B frames, pool of {}",
            self.plan.frame_len,
            self.plan.meta.len()
        )]
    }
}

// ---------------------------------------------------------------------
// edge_mt
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct MtTally {
    frames: u64,
    forwarded: [u64; EGRESS],
    default_routed: u64,
    other: u64,
    punts: u64,
    publishes: u64,
}

/// `edge_mt`: the ingress half of `edge_steady` on `MtSwitch`.
pub struct EdgeMt {
    plan: Plan,
    mt: MtSwitch,
    bufs: Vec<PacketBuf>,
    now: SimTime,
    cursor: usize,
    bursts: u64,
    /// Bursts between two install + publish events.
    publish_every: u64,
    tally: MtTally,
    warm_frames: u64,
    window_frames: u64,
    window: Option<MtTally>,
}

/// `clamp(nproc − 1, 1, 2)`: the generator thread keeps one core.
fn mt_workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc - 1).clamp(1, 2)
}

impl Workload for EdgeMt {
    const SETUPS: usize = 8;

    fn build(cfg: &RunCfg) -> Self {
        let plan = Plan::generate(cfg, 64, pool_frames(cfg, 65_536));
        let mut mt = MtSwitch::spawn(Plan::switch_config(INGRESS_RLOC), mt_workers());
        for (v, ep) in plan.local_attachments() {
            mt.attach(v, ep);
        }
        for (v, prefix, rloc) in plan.home_mappings() {
            mt.install_mapping(v, prefix, rloc, MAPPING_TTL, SimTime::ZERO);
        }
        mt.install_matrix(&plan.matrix);
        mt.compact_tables();
        mt.publish();
        let mut w = EdgeMt {
            mt,
            bufs: (0..MT_BURST).map(|_| PacketBuf::new()).collect(),
            now: SimTime::ZERO + SimDuration::from_secs(1),
            cursor: 0,
            bursts: 0,
            publish_every: cfg.ops(MT_PUBLISH_EVERY),
            tally: MtTally::default(),
            warm_frames: 0,
            window_frames: cfg.ops(1 << 21),
            window: None,
            plan,
        };
        let bursts = w.plan.meta.len() / MT_BURST;
        warm_up(&mut w, bursts);
        w.warm_frames = w.tally.frames;
        w.window = None;
        w.bursts = 0;
        w
    }

    fn gen_s(&self) -> f64 {
        self.plan.gen_s
    }

    fn batch(&mut self, tr: &mut Tracer) -> Batch {
        tr.enter(Span::Load);
        for (i, buf) in self.bufs.iter_mut().enumerate() {
            let loaded = buf.load(self.plan.frame(self.cursor + i));
            debug_assert!(loaded, "pool frames fit a buffer");
        }
        tr.exit();
        self.cursor = (self.cursor + MT_BURST) % self.plan.meta.len();

        tr.enter(Span::Ingress);
        self.mt.process_ingress(&mut self.bufs, self.now);
        tr.exit();
        for v in self.mt.verdicts() {
            match *v {
                Verdict::Forward { to } => match egress_index(to) {
                    Some(e) => self.tally.forwarded[e] += 1,
                    None => self.tally.default_routed += 1,
                },
                _ => self.tally.other += 1,
            }
        }
        self.tally.punts += self.mt.punts().len() as u64;
        self.mt.clear_punts();

        self.now += BATCH_TICK.saturating_mul((MT_BURST / BATCH_SIZE) as u64);
        self.bursts += 1;
        // A round is one publish period, closed by the publish itself.
        let round_end = self.bursts.is_multiple_of(self.publish_every);
        if round_end {
            // A Map-Reply lands on the working copy and is published.
            let r = (self.bursts / self.publish_every) as usize % REMOTE;
            let prefix = EidPrefix::host(Eid::V4(remote_ip(r)));
            tr.enter(Span::TableWrite);
            self.mt.install_mapping(
                vn(r % VNS.len()),
                prefix,
                egress_rloc(Plan::home(r)),
                MAPPING_TTL,
                self.now,
            );
            tr.exit();
            tr.enter(Span::MtPublish);
            self.mt.publish();
            tr.exit();
            self.tally.publishes += 1;
        }
        self.tally.frames += MT_BURST as u64;
        if self.window.is_none() && self.tally.frames - self.warm_frames >= self.window_frames {
            self.window = Some(self.tally);
        }
        Batch {
            ops: MT_BURST as u64,
            round_end,
        }
    }

    fn window_complete(&self) -> bool {
        self.window.is_some()
    }

    fn window_counts(&self) -> Vec<(&'static str, u64)> {
        let t = self.window.unwrap_or_default();
        vec![
            ("frames", t.frames),
            ("forwarded_0", t.forwarded[0]),
            ("forwarded_1", t.forwarded[1]),
            ("forwarded_2", t.forwarded[2]),
            ("forwarded_3", t.forwarded[3]),
            ("default_routed", t.default_routed),
            ("other", t.other),
            ("punts", t.punts),
            ("publishes", t.publishes),
        ]
    }

    fn finish(&mut self) -> Result<Outcome, String> {
        let t = self.tally;
        let mut want = MtTally::default();
        let pool = self.plan.meta.len() as u64;
        for f in 0..t.frames {
            match self.plan.meta[(f % pool) as usize].dst {
                EXTERNAL => want.default_routed += 1,
                r => want.forwarded[Plan::home(r as usize)] += 1,
            }
        }
        if t.forwarded != want.forwarded || t.default_routed != want.default_routed {
            return Err(format!("generator expects {want:?}, switch gave {t:?}"));
        }
        let rx = self.mt.stats().rx;
        if rx != t.frames {
            return Err(format!("workers saw {rx} frames of {}", t.frames));
        }
        Ok(Outcome {
            attempted: t.frames - self.warm_frames,
            failed: t.other,
        })
    }

    fn layers(&mut self, tr: &Tracer, traced: Traced, out: &mut Values) {
        let pkts = traced.round_ops;
        out.insert("dataplane.load_ns_per_pkt", tr.ns_per(Span::Load, pkts));
        let mt_ingress = tr.ns_per(Span::Ingress, pkts);
        out.insert("dataplane.ingress_ns_per_pkt", mt_ingress);
        out.insert(
            "dataplane.table_write_ns_per_op",
            tr.mean_ns(Span::TableWrite),
        );
        out.insert("dataplane.mt_publish_us", tr.mean_ns(Span::MtPublish) / 1e3);
        out.insert("dataplane.allocs_per_pkt", traced.allocs_per_op());

        let w = self.window.unwrap_or_default();
        let frames = w.frames.max(1) as f64;
        out.insert("dataplane.punts_per_kpkt", w.punts as f64 * 1e3 / frames);
        out.insert(
            "dataplane.default_routed_share",
            w.default_routed as f64 / frames,
        );
        out.insert("dataplane.other_drop_share", w.other as f64 / frames);
        out.insert("dataplane.fib_entries", self.mt.fib_len() as f64);
        out.insert(
            "dataplane.table_mib",
            mib(self.mt.tables().mem_stats().capacity_bytes),
        );

        // The same stream through the single-threaded switch: what the
        // RSS front, the shuttle and the hand-back add on top.
        let mut st = self.plan.ingress_switch();
        let pool = self.plan.meta.len();
        let mut single_ns = 0u128;
        for pass in 0..3 {
            for burst in 0..pool / MT_BURST {
                for (i, buf) in self.bufs.iter_mut().enumerate() {
                    buf.load(self.plan.frame(burst * MT_BURST + i));
                }
                let t = Instant::now();
                for chunk in self.bufs.chunks_mut(BATCH_SIZE) {
                    black_box(st.process_ingress(chunk, self.now));
                    st.clear_punts();
                }
                if pass > 0 {
                    single_ns += t.elapsed().as_nanos();
                }
            }
        }
        let single = single_ns as f64 / (2 * pool) as f64;
        out.insert("dataplane.mt_dispatch_ns_per_pkt", mt_ingress - single);

        probes(&self.plan, self.mt.tables(), self.now, out);
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "traffic is in-process memory; {} worker thread(s) beside the generator, nproc {}",
            self.mt.workers(),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        )]
    }
}

// ---------------------------------------------------------------------
// Probes: the workload's own frame stream replayed into one layer
// ---------------------------------------------------------------------

/// Replays the pool's frames, keys and group pairs straight into each
/// layer's public functions ("stage-ablated rows rather than in-path
/// timers"), against `tables` or an identically loaded stand-alone copy.
fn probes(plan: &Plan, tables: &SharedTables, now: SimTime, out: &mut Values) {
    let n = plan.meta.len();
    // Enough passes that the fastest probe still measures milliseconds.
    let passes = (1 << 20) / n + 1;
    let items = n * passes;

    out.insert(
        "wire.parse_probe_ns_per_pkt",
        ns_per_item(items, || {
            for _ in 0..passes {
                for i in 0..n {
                    let eth = ethernet::Frame::new_checked(plan.frame(i)).expect("pool frame");
                    let ip = ipv4::Packet::new_checked(eth.payload()).expect("pool frame");
                    black_box((
                        eth.src_addr(),
                        eth.ethertype(),
                        ip.src_addr(),
                        ip.dst_addr(),
                    ));
                }
            }
        }),
    );

    let payload_len = plan.frame_len - ethernet::HEADER_LEN - ipv4::HEADER_LEN;
    let mut scratch = vec![0u8; encap::UNDERLAY_OVERHEAD + plan.frame_len];
    out.insert(
        "wire.emit_probe_ns_per_pkt",
        ns_per_item(items, || {
            for _ in 0..passes {
                for m in &plan.meta {
                    let src = &plan.locals[usize::from(m.src)];
                    ethernet::Repr {
                        dst: MacAddr::BROADCAST,
                        src: src.mac,
                        ethertype: EtherType::Ipv4,
                    }
                    .emit(&mut ethernet::Frame::new_unchecked(&mut scratch[..]));
                    ipv4::Repr {
                        src: src.ipv4,
                        dst: m.dst_ip,
                        protocol: ipv4::Protocol::Unknown(253),
                        payload_len,
                        ttl: 64,
                    }
                    .emit(&mut ipv4::Packet::new_unchecked(
                        &mut scratch[ethernet::HEADER_LEN..],
                    ));
                    black_box(&scratch);
                }
            }
        }),
    );

    let params_of = |m: &FrameMeta| {
        let src = &plan.locals[usize::from(m.src)];
        encap::EncapParams {
            outer_src: INGRESS_RLOC,
            outer_dst: match m.dst {
                EXTERNAL => BORDER_RLOC,
                r => egress_rloc(Plan::home(r as usize)),
            },
            vn: vn(usize::from(m.src) % VNS.len()),
            group: src.group,
            policy_applied: false,
            ttl: 8,
            src_port: encap::ecmp_src_port(encap::flow_hash(
                u32::from(src.ipv4),
                u32::from(m.dst_ip),
            )),
            udp_checksum: encap::OuterChecksum::Zero,
            inner_proto: encap::InnerProto::Ipv4,
        }
    };
    let underlay_len = encap::UNDERLAY_OVERHEAD + plan.frame_len - ethernet::HEADER_LEN;
    out.insert(
        "dataplane.encap_probe_ns_per_pkt",
        ns_per_item(items, || {
            for _ in 0..passes {
                for m in &plan.meta {
                    encap::write_underlay(&mut scratch[..underlay_len], &params_of(m))
                        .expect("scratch holds the underlay packet");
                    black_box(&scratch);
                }
            }
        }),
    );

    // Decap needs real underlay packets: encapsulate a slice of the pool.
    let sample = n.min(4096);
    let mut wires = vec![0u8; sample * underlay_len];
    for (i, wire) in wires.chunks_mut(underlay_len).enumerate() {
        wire[encap::UNDERLAY_OVERHEAD..].copy_from_slice(&plan.frame(i)[ethernet::HEADER_LEN..]);
        encap::write_underlay(wire, &params_of(&plan.meta[i])).expect("sized above");
    }
    let decap_passes = items / sample;
    out.insert(
        "dataplane.decap_probe_ns_per_pkt",
        ns_per_item(sample * decap_passes, || {
            for _ in 0..decap_passes {
                for wire in wires.chunks(underlay_len) {
                    let d = encap::parse_underlay(wire).expect("well-formed underlay");
                    black_box((d.outer_dst, d.vn, d.group, d.inner.len()));
                }
            }
        }),
    );

    // Map-cache lookups in the engine's own run shape: one batched
    // lookup per same-VN burst.
    let mut eids = Vec::with_capacity(BURST);
    let mut outcomes = Vec::with_capacity(BURST);
    let (mut hit, mut stale, mut miss) = (0u64, 0u64, 0u64);
    out.insert(
        "lisp.cache_lookup_probe_ns_per_key",
        ns_per_item(items, || {
            for _ in 0..passes {
                for burst in plan.meta.chunks(BURST) {
                    eids.clear();
                    eids.extend(burst.iter().map(|m| Eid::V4(m.dst_ip)));
                    let v = vn(usize::from(burst[0].src) % VNS.len());
                    tables
                        .map_cache()
                        .lookup_batch_shared(v, &eids, now, &mut outcomes);
                    for o in &outcomes {
                        match o {
                            CacheOutcome::Hit(_) => hit += 1,
                            CacheOutcome::Stale(_) => stale += 1,
                            CacheOutcome::Miss => miss += 1,
                        }
                    }
                }
            }
        }),
    );
    let lookups = (hit + stale + miss).max(1) as f64;
    out.insert("lisp.cache_hit_share", hit as f64 / lookups);
    out.insert("lisp.cache_stale_share", stale as f64 / lookups);
    out.insert("lisp.cache_miss_share", miss as f64 / lookups);
    out.insert("lisp.cache_entries", tables.fib_len() as f64);

    // Stand-alone copies for the write probes and the bare trie.
    let mut tries: Vec<EidTrie<Rloc>> = (0..VNS.len()).map(|_| EidTrie::new()).collect();
    let mut cache = MapCache::new();
    for (r, ep) in plan.remotes.iter().enumerate() {
        let prefix = EidPrefix::host(Eid::V4(ep.ipv4));
        let rloc = egress_rloc(Plan::home(r));
        tries[r % VNS.len()].insert(prefix, rloc);
        cache.install(vn(r % VNS.len()), prefix, rloc, MAPPING_TTL, SimTime::ZERO);
    }
    for t in &mut tries {
        t.compact();
    }
    cache.compact();
    out.insert(
        "trie.lpm_probe_ns_per_key",
        ns_per_item(items, || {
            for _ in 0..passes {
                for m in &plan.meta {
                    let t = &tries[usize::from(m.src) % VNS.len()];
                    black_box(t.lookup(&Eid::V4(m.dst_ip)));
                }
            }
        }),
    );
    let moves = &plan.handovers;
    out.insert(
        "trie.write_probe_ns_per_key",
        ns_per_item(2 * moves.len(), || {
            for &r in moves {
                let r = usize::from(r);
                let prefix = EidPrefix::host(Eid::V4(remote_ip(r)));
                let t = &mut tries[r % VNS.len()];
                let rloc = t.remove(&prefix).expect("every remote is loaded");
                t.insert(prefix, rloc);
            }
        }),
    );
    out.insert(
        "lisp.cache_write_probe_ns_per_op",
        ns_per_item(2 * moves.len(), || {
            for (k, &r) in moves.iter().enumerate() {
                let r = usize::from(r);
                let (v, eid) = (vn(r % VNS.len()), Eid::V4(remote_ip(r)));
                black_box(cache.mark_stale_shared(v, eid, now));
                cache.update_rloc(v, eid, egress_rloc(k % EGRESS), MAPPING_TTL, now);
            }
        }),
    );
    let mem = tables.mem_stats();
    out.insert("trie.arena_mib", mib(mem.capacity_bytes));
    out.insert(
        "trie.stride_fill_share",
        mem.stride_filled as f64 / mem.stride_slots.max(1) as f64,
    );

    let internal: Vec<&FrameMeta> = plan.meta.iter().filter(|m| m.dst != EXTERNAL).collect();
    out.insert(
        "policy.verdict_probe_ns_per_pkt",
        ns_per_item(internal.len() * passes, || {
            for _ in 0..passes {
                for m in &internal {
                    let view = tables.acl().vn_view(vn(usize::from(m.src) % VNS.len()));
                    let src = plan.locals[usize::from(m.src)].group;
                    let dst = plan.remotes[m.dst as usize].group;
                    black_box(view.check(src, dst, Action::Deny));
                }
            }
        }),
    );
    out.insert(
        "policy.compile_ms",
        ns_per_item(1, || drop(black_box(CompiledAcl::compile(&plan.matrix)))) / 1e6,
    );
    out.insert(
        "policy.compiled_kib",
        tables.acl().mem_stats().total_bytes as f64 / 1024.0,
    );
}
