//! The massive-mobility warehouse workload (Fig. 10/11).
//!
//! Topology per the paper: one border (with the traffic sink behind
//! it), two *physical* edges the robots flip between, and 198 emulated
//! edges hosting correspondents. 16,000 endpoints generate 800 moves/s
//! (≈5% of endpoints moving per second).
//!
//! Handover delay = "the time since the emulated host is detached until
//! traffic is restored after it attaches to the new edge router":
//! a correspondent streams packets at a fixed cadence toward each
//! *measured* mover; the sample is the gap between the detach instant
//! and the first post-detach delivery.
//!
//! The same generator drives the reactive fabric (`sda-core`, LISP) and
//! the proactive baseline (`sda-bgp`), with identical AAA delay, link
//! latency and traffic cadence, isolating the control-plane difference.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_core::controller::{EdgeHandle, FabricBuilder};
use sda_simnet::{Metrics, SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, MacAddr, PortId, Rloc};

/// Scenario parameters. Defaults mirror §4.3.
#[derive(Clone, Debug)]
pub struct WarehouseParams {
    /// Total mobile endpoints (16,000 in the paper).
    pub hosts: usize,
    /// Total edges (2 physical + emulated; 200 in the paper).
    pub edges: usize,
    /// Aggregate mobility event rate.
    pub moves_per_sec: f64,
    /// Initial onboarding is staggered over this long.
    pub warmup: SimDuration,
    /// Mobility runs for this long after warmup.
    pub duration: SimDuration,
    /// How many moves get correspondent measurement traffic.
    pub measured_moves: usize,
    /// Correspondent packet cadence.
    pub probe_interval: SimDuration,
    /// How long after the move the correspondent keeps probing.
    pub probe_window: SimDuration,
    /// Minimum gap between detach and re-attach (radio re-association);
    /// each move draws uniformly from [min, 4×min].
    pub detect_delay: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WarehouseParams {
    fn default() -> Self {
        WarehouseParams {
            hosts: 16_000,
            edges: 200,
            moves_per_sec: 800.0,
            warmup: SimDuration::from_secs(25),
            duration: SimDuration::from_secs(10),
            measured_moves: 400,
            probe_interval: SimDuration::from_millis(1),
            probe_window: SimDuration::from_millis(400),
            detect_delay: SimDuration::from_micros(500),
            seed: 0xF16,
        }
    }
}

impl WarehouseParams {
    /// A laptop-scale variant for tests (hundreds of hosts).
    pub fn small() -> Self {
        WarehouseParams {
            hosts: 400,
            edges: 20,
            moves_per_sec: 100.0,
            warmup: SimDuration::from_secs(5),
            duration: SimDuration::from_secs(4),
            measured_moves: 40,
            ..Default::default()
        }
    }
}

/// One measured handover.
#[derive(Clone, Copy, Debug)]
pub struct HandoverSample {
    /// When the endpoint detached.
    pub detached_at: SimTime,
    /// First post-detach delivery, if any arrived in the window.
    pub restored_at: Option<SimTime>,
}

impl HandoverSample {
    /// The handover delay in seconds, if traffic was restored.
    pub fn delay_secs(&self) -> Option<f64> {
        self.restored_at
            .map(|r| r.since(self.detached_at).as_secs_f64())
    }
}

/// A planned move used by both fabrics.
struct PlannedMove {
    at: SimTime,
    host: usize,
    measured: bool,
}

/// Plans the move schedule + which moves are measured.
fn plan_moves(p: &WarehouseParams, rng: &mut SmallRng) -> Vec<PlannedMove> {
    let total = (p.moves_per_sec * p.duration.as_secs_f64()) as usize;
    let start = SimTime::ZERO + p.warmup;
    // Measured moves spread evenly through the run, skipping the first
    // second so background load is established.
    let measure_from = (p.moves_per_sec as usize).min(total / 10);
    let measure_stride = ((total - measure_from) / p.measured_moves.max(1)).max(1);
    (0..total)
        .map(|i| {
            let at = start
                + SimDuration::from_secs_f64(i as f64 / p.moves_per_sec)
                + SimDuration::from_nanos(rng.gen_range(0..100_000));
            let host = rng.gen_range(0..p.hosts);
            let measured = i >= measure_from && (i - measure_from).is_multiple_of(measure_stride);
            PlannedMove { at, host, measured }
        })
        .collect()
}

/// Extracts handover samples from the shared metrics convention
/// (`deliver.{eid}` series, values = flow ids, times = delivery times).
fn extract_samples(
    metrics: &Metrics,
    measured: &[(String, SimTime)],
    window: SimDuration,
) -> Vec<HandoverSample> {
    measured
        .iter()
        .map(|(series, detached_at)| {
            let restored_at = metrics
                .series(series)
                .iter()
                .map(|(t, _)| *t)
                .find(|t| t > detached_at && *t <= *detached_at + window);
            HandoverSample {
                detached_at: *detached_at,
                restored_at,
            }
        })
        .collect()
}

/// Runs the warehouse against the **reactive** (LISP) fabric; returns
/// the measured handovers.
pub fn run_lisp(p: &WarehouseParams) -> Vec<HandoverSample> {
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut b = FabricBuilder::new(p.seed);
    {
        let cfg = b.config_mut();
        cfg.register_mac = false; // L3-only scenario (halves registers)
        cfg.refresh_interval = None; // run is shorter than any TTL
        cfg.purge_interval = None;
        cfg.fib_sample_interval = None;
        cfg.register_ttl_secs = 24 * 3600;
    }
    let vn = b.add_vn(
        200,
        Ipv4Prefix::new(std::net::Ipv4Addr::new(10, 0, 0, 0), 10).unwrap(),
    );
    let robots = GroupId(1);
    b.allow(vn, robots, robots);

    let physical: Vec<EdgeHandle> = (0..2).map(|i| b.add_edge(format!("phys{i}"))).collect();
    let emulated: Vec<EdgeHandle> = (0..p.edges.saturating_sub(2))
        .map(|i| b.add_edge(format!("emu{i}")))
        .collect();
    b.add_border("border", vec![]);

    // Mobile hosts + correspondents.
    let hosts: Vec<_> = (0..p.hosts).map(|_| b.mint_endpoint(vn, robots)).collect();
    let correspondents: Vec<_> = (0..p.measured_moves)
        .map(|_| b.mint_endpoint(vn, robots))
        .collect();

    let mut f = b.build();

    // Staggered initial onboarding: hosts alternate between the two
    // physical edges; correspondents live on emulated edges.
    let mut side: Vec<u8> = Vec::with_capacity(p.hosts);
    for (i, h) in hosts.iter().enumerate() {
        let s = (i % 2) as u8;
        side.push(s);
        let at = SimTime::ZERO
            + SimDuration::from_secs_f64(rng.gen::<f64>() * p.warmup.as_secs_f64() * 0.8);
        f.attach_at(at, physical[s as usize], *h, PortId((i % 4096) as u16));
    }
    for (i, c) in correspondents.iter().enumerate() {
        let edge = emulated[i % emulated.len().max(1)];
        let at = SimTime::ZERO
            + SimDuration::from_secs_f64(rng.gen::<f64>() * p.warmup.as_secs_f64() * 0.5);
        f.attach_at(at, edge, *c, PortId(1));
    }

    // Moves.
    let moves = plan_moves(p, &mut rng);
    let mut measured: Vec<(String, SimTime)> = Vec::new();
    let mut measure_idx = 0usize;
    for mv in &moves {
        let from = side[mv.host] as usize;
        let to = 1 - from;
        side[mv.host] = to as u8;
        let h = hosts[mv.host];
        let detect = SimDuration::from_secs_f64(
            p.detect_delay.as_secs_f64() * (1.0 + 3.0 * rng.gen::<f64>()),
        );
        f.detach_at(mv.at, physical[from], h.mac);
        f.attach_at(mv.at + detect, physical[to], h, PortId(9));

        if mv.measured && measure_idx < correspondents.len() {
            let c = correspondents[measure_idx];
            let c_edge = emulated[measure_idx % emulated.len().max(1)];
            measure_idx += 1;
            measured.push((format!("deliver.{}", Eid::V4(h.ipv4)), mv.at));
            // Probe stream: starts before the move (warming the sender's
            // cache), continues through the window; random phase so the
            // cadence does not align with the move instant.
            let phase =
                SimDuration::from_secs_f64(rng.gen::<f64>() * p.probe_interval.as_secs_f64());
            let mut t = mv.at + phase;
            let pre = 5;
            for k in 0..pre {
                let before = p.probe_interval.saturating_mul(pre - k);
                let send_at =
                    SimTime::from_nanos(mv.at.as_nanos().saturating_sub(before.as_nanos()));
                f.send_at(send_at, c_edge, c.mac, Eid::V4(h.ipv4), 1470, k, true);
            }
            let mut k = pre;
            while t <= mv.at + p.probe_window {
                f.send_at(t, c_edge, c.mac, Eid::V4(h.ipv4), 1470, k, true);
                t += p.probe_interval;
                k += 1;
            }
        }
    }

    let end = SimTime::ZERO + p.warmup + p.duration + p.probe_window + SimDuration::from_secs(1);
    f.run_until(end);
    extract_samples(f.metrics(), &measured, p.probe_window)
}

/// Runs the warehouse against the **proactive** (BGP route-reflector)
/// baseline; returns the measured handovers.
pub fn run_bgp(p: &WarehouseParams) -> Vec<HandoverSample> {
    use sda_bgp::BgpHostEvent;
    use sda_bgp::{BgpConfig, BgpDirectory, BgpEdge, BgpMsg, RouteReflector};
    use sda_simnet::{NodeId, Simulator};
    use std::collections::BTreeMap;
    use std::rc::Rc;

    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut node_of_rloc = BTreeMap::new();
    let reflector_id = NodeId(0);
    let n_edges = p.edges;
    for i in 0..n_edges {
        node_of_rloc.insert(Rloc::for_router_index(1 + i as u16), NodeId(1 + i as u32));
    }
    let dir = Rc::new(BgpDirectory {
        node_of_rloc,
        reflector: reflector_id,
        config: BgpConfig::default(),
    });
    let mut sim: Simulator<BgpMsg> = Simulator::new(p.seed);
    let peers: Vec<Rloc> = (0..n_edges)
        .map(|i| Rloc::for_router_index(1 + i as u16))
        .collect();
    assert_eq!(
        sim.add_node(Box::new(RouteReflector::new(dir.clone(), peers))),
        reflector_id
    );
    let edge_nodes: Vec<NodeId> = (0..n_edges)
        .map(|i| {
            sim.add_node(Box::new(BgpEdge::new(
                Rloc::for_router_index(1 + i as u16),
                dir.clone(),
            )))
        })
        .collect();
    sim.arm_timer_at(SimTime::ZERO, reflector_id, 0);

    // Identities: same address plan as the LISP run.
    let mk_host = |i: usize| {
        let seed = 1 + i as u32;
        (
            MacAddr::from_seed(seed),
            std::net::Ipv4Addr::from(u32::from(std::net::Ipv4Addr::new(10, 0, 0, 0)) + seed),
        )
    };
    let physical = [edge_nodes[0], edge_nodes[1]];
    let emulated: Vec<NodeId> = edge_nodes[2..].to_vec();

    let mut side: Vec<u8> = Vec::with_capacity(p.hosts);
    for i in 0..p.hosts {
        let (mac, ipv4) = mk_host(i);
        let s = (i % 2) as u8;
        side.push(s);
        let at = SimTime::ZERO
            + SimDuration::from_secs_f64(rng.gen::<f64>() * p.warmup.as_secs_f64() * 0.8);
        sim.inject_at(
            at,
            physical[s as usize],
            BgpMsg::Host(BgpHostEvent::Attach { mac, ipv4 }),
        );
    }
    // Correspondents only send; they need no attachment in this model.

    let moves = plan_moves(p, &mut rng);
    let mut measured: Vec<(String, SimTime)> = Vec::new();
    let mut measure_idx = 0usize;
    for mv in &moves {
        let from = side[mv.host] as usize;
        let to = 1 - from;
        side[mv.host] = to as u8;
        let (mac, ipv4) = mk_host(mv.host);
        let detect = SimDuration::from_secs_f64(
            p.detect_delay.as_secs_f64() * (1.0 + 3.0 * rng.gen::<f64>()),
        );
        sim.inject_at(
            mv.at,
            physical[from],
            BgpMsg::Host(BgpHostEvent::Detach { mac }),
        );
        sim.inject_at(
            mv.at + detect,
            physical[to],
            BgpMsg::Host(BgpHostEvent::Attach { mac, ipv4 }),
        );

        if mv.measured && measure_idx < p.measured_moves {
            let c_edge = emulated[measure_idx % emulated.len().max(1)];
            measure_idx += 1;
            let dst = Eid::V4(ipv4);
            measured.push((format!("deliver.{dst}"), mv.at));
            let phase =
                SimDuration::from_secs_f64(rng.gen::<f64>() * p.probe_interval.as_secs_f64());
            let pre = 5u64;
            for k in 0..pre {
                let before = p.probe_interval.saturating_mul(pre - k);
                let send_at =
                    SimTime::from_nanos(mv.at.as_nanos().saturating_sub(before.as_nanos()));
                sim.inject_at(
                    send_at,
                    c_edge,
                    BgpMsg::Host(BgpHostEvent::Send {
                        dst,
                        flow: k,
                        track: true,
                    }),
                );
            }
            let mut t = mv.at + phase;
            let mut k = pre;
            while t <= mv.at + p.probe_window {
                sim.inject_at(
                    t,
                    c_edge,
                    BgpMsg::Host(BgpHostEvent::Send {
                        dst,
                        flow: k,
                        track: true,
                    }),
                );
                t += p.probe_interval;
                k += 1;
            }
        }
    }

    let end = SimTime::ZERO + p.warmup + p.duration + p.probe_window + SimDuration::from_secs(1);
    sim.run_until(end);
    extract_samples(sim.metrics(), &measured, p.probe_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_warehouse_lisp_handover_fast_and_complete() {
        let p = WarehouseParams::small();
        let samples = run_lisp(&p);
        assert!(!samples.is_empty());
        let restored: Vec<f64> = samples.iter().filter_map(|s| s.delay_secs()).collect();
        assert!(
            restored.len() * 10 >= samples.len() * 9,
            "≥90% of LISP handovers must restore: {}/{}",
            restored.len(),
            samples.len()
        );
        let mean = restored.iter().sum::<f64>() / restored.len() as f64;
        assert!(mean < 0.020, "LISP mean handover {mean}s too slow");
    }

    #[test]
    fn small_warehouse_bgp_slower_than_lisp() {
        let p = WarehouseParams::small();
        let lisp: Vec<f64> = run_lisp(&p).iter().filter_map(|s| s.delay_secs()).collect();
        let bgp: Vec<f64> = run_bgp(&p).iter().filter_map(|s| s.delay_secs()).collect();
        assert!(!lisp.is_empty() && !bgp.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (ml, mb) = (mean(&lisp), mean(&bgp));
        assert!(
            mb > 3.0 * ml,
            "proactive must be several× slower: lisp={ml:.4}s bgp={mb:.4}s"
        );
    }

    #[test]
    fn plans_are_deterministic() {
        let p = WarehouseParams::small();
        let mut r1 = SmallRng::seed_from_u64(p.seed);
        let mut r2 = SmallRng::seed_from_u64(p.seed);
        let a = plan_moves(&p, &mut r1);
        let b = plan_moves(&p, &mut r2);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.host == y.host));
    }
}
