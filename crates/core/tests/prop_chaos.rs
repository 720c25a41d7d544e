//! Random fault schedules against the retry/self-healing control plane:
//!
//! 1. **Convergence** — after any generated mix of loss windows, server
//!    and border reboots and endpoint roams, the quiesced fabric reaches
//!    the fault-free fixed point: the expected placement is registered,
//!    borders mirror the database, nothing is stuck resolving.
//! 2. **Replay** — the same schedule under the same seed reproduces the
//!    exact counter trace, drop for drop.
//!
//! Schedules deliberately exclude edge↔policy loss (authentication has
//! no retransmit path; chaos scenarios model that pair as an
//! out-of-band management network) and edge reboots overlapping roams
//! (a detach aimed at a powered-off switch is lost with it — edge
//! reboot recovery has its own focused tests in `chaos_recovery.rs`).

use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_core::controller::{EdgeHandle, Fabric, FabricBuilder};
use sda_core::EndpointIdentity;
use sda_core::{check_convergence, ExpectedPlacement};
use sda_simnet::{FaultPlan, SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId, VnId};

const EDGES: usize = 3;
const ENDPOINTS: usize = 4;
/// Endpoints below this index may roam; the rest send traffic (a sender
/// never leaves its edge, so its scheduled sends stay valid).
const ROAMERS: usize = 2;

fn secs_f(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

/// One randomly generated fault.
#[derive(Clone, Copy, Debug)]
enum ChaosFault {
    /// Loss spike on edge↔routing-server.
    EdgeLoss {
        edge: usize,
        loss: f64,
        from: f64,
        dur: f64,
    },
    /// Loss spike on border↔routing-server.
    BorderLoss { loss: f64, from: f64, dur: f64 },
    /// Fabric-wide default loss window.
    FabricLoss { loss: f64, from: f64, dur: f64 },
    /// Routing-server reboot (database, subscribers, ARP all lost).
    ServerReboot { from: f64, dur: f64 },
    /// Border reboot (synced slice lost).
    BorderReboot { from: f64, dur: f64 },
}

fn arb_fault() -> impl Strategy<Value = ChaosFault> {
    prop_oneof![
        (0..EDGES, 0.3f64..=1.0, 5.0f64..25.0, 2.0f64..10.0).prop_map(|(edge, loss, from, dur)| {
            ChaosFault::EdgeLoss {
                edge,
                loss,
                from,
                dur,
            }
        }),
        (0.3f64..=1.0, 5.0f64..25.0, 2.0f64..10.0)
            .prop_map(|(loss, from, dur)| ChaosFault::BorderLoss { loss, from, dur }),
        (0.02f64..0.15, 5.0f64..25.0, 2.0f64..10.0)
            .prop_map(|(loss, from, dur)| ChaosFault::FabricLoss { loss, from, dur }),
        (5.0f64..25.0, 1.0f64..4.0).prop_map(|(from, dur)| ChaosFault::ServerReboot { from, dur }),
        (5.0f64..25.0, 1.0f64..4.0).prop_map(|(from, dur)| ChaosFault::BorderReboot { from, dur }),
    ]
}

/// One roam: endpoint `who` moves to `to_edge` at `at`.
#[derive(Clone, Copy, Debug)]
struct Roam {
    who: usize,
    to_edge: usize,
    at: f64,
}

fn arb_roam() -> impl Strategy<Value = Roam> {
    (0..ROAMERS, 0..EDGES, 6.0f64..30.0).prop_map(|(who, to_edge, at)| Roam { who, to_edge, at })
}

/// One background send from a static endpoint.
#[derive(Clone, Copy, Debug)]
struct Send {
    from: usize,
    to: usize,
    at: f64,
}

fn arb_send() -> impl Strategy<Value = Send> {
    (ROAMERS..ENDPOINTS, 0..ENDPOINTS, 6.0f64..30.0).prop_map(|(from, to, at)| Send {
        from,
        to,
        at,
    })
}

#[derive(Clone, Debug)]
struct Schedule {
    seed: u64,
    faults: Vec<ChaosFault>,
    roams: Vec<Roam>,
    sends: Vec<Send>,
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_fault(), 0..5),
        proptest::collection::vec(arb_roam(), 0..4),
        proptest::collection::vec(arb_send(), 0..5),
    )
        .prop_map(|(seed, faults, roams, sends)| Schedule {
            seed,
            faults,
            roams,
            sends,
        })
}

struct Built {
    fabric: Fabric,
    edges: Vec<EdgeHandle>,
    roster: Vec<EndpointIdentity>,
    vn: VnId,
    /// Final edge index per endpoint after the roams apply in order.
    placement: Vec<usize>,
}

/// Builds a small fabric and schedules everything in `sched`.
fn build(sched: &Schedule) -> Built {
    let mut b = FabricBuilder::new(sched.seed);
    {
        let cfg = b.config_mut();
        cfg.refresh_interval = Some(SimDuration::from_secs(5));
        cfg.subscribe_refresh_interval = Some(SimDuration::from_secs(5));
        cfg.purge_interval = Some(SimDuration::from_secs(5));
        cfg.register_ttl_secs = 30;
        cfg.idle_timeout = SimDuration::from_secs(10);
        cfg.eviction_interval = SimDuration::from_secs(2);
    }
    let vn = b.add_vn(
        100,
        Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
    );
    let users = GroupId(10);
    b.allow(vn, users, users);
    let edges: Vec<EdgeHandle> = (0..EDGES).map(|i| b.add_edge(format!("pe{i}"))).collect();
    let border = b.add_border("pb", vec![]);
    let _ = border;
    let roster: Vec<EndpointIdentity> =
        (0..ENDPOINTS).map(|_| b.mint_endpoint(vn, users)).collect();
    let mut fabric = b.build();

    // Everyone starts on edge (index % EDGES).
    let mut placement: Vec<usize> = (0..ENDPOINTS).map(|i| i % EDGES).collect();
    for (i, id) in roster.iter().enumerate() {
        fabric.attach_at(SimTime::ZERO, edges[placement[i]], *id, PortId(i as u16));
    }

    let rs = fabric.routing_node();
    let border_node = fabric.border_node(sda_core::controller::BorderHandle(0));
    // Pin edge↔policy lossless (the out-of-band management network —
    // see module docs): a fabric-wide loss window must not eat an
    // auth round-trip, which has no retransmit path.
    let policy = fabric.policy_node();
    let mut plan = FaultPlan::new();
    for &e in &edges {
        plan = plan.at(
            SimTime::ZERO,
            sda_simnet::Fault::Loss {
                a: fabric.edge_node(e),
                b: policy,
                loss: 0.0,
            },
        );
    }
    for f in &sched.faults {
        plan = match *f {
            ChaosFault::EdgeLoss {
                edge,
                loss,
                from,
                dur,
            } => plan.loss_window(
                fabric.edge_node(edges[edge]),
                rs,
                loss,
                secs_f(from),
                secs_f(from + dur),
            ),
            ChaosFault::BorderLoss { loss, from, dur } => {
                plan.loss_window(border_node, rs, loss, secs_f(from), secs_f(from + dur))
            }
            ChaosFault::FabricLoss { loss, from, dur } => {
                plan.default_loss_window(loss, secs_f(from), secs_f(from + dur))
            }
            ChaosFault::ServerReboot { from, dur } => {
                plan.reboot(rs, secs_f(from), secs_f(from + dur))
            }
            ChaosFault::BorderReboot { from, dur } => {
                plan.reboot(border_node, secs_f(from), secs_f(from + dur))
            }
        };
    }
    fabric.schedule_faults(&plan);

    // Roams in time order so detaches aim at the edge the endpoint is
    // actually on when each one fires.
    let mut roams = sched.roams.clone();
    roams.sort_by(|a, b| a.at.total_cmp(&b.at));
    for r in &roams {
        let from_edge = placement[r.who];
        if r.to_edge == from_edge {
            continue;
        }
        fabric.detach_at(secs_f(r.at), edges[from_edge], roster[r.who].mac);
        fabric.attach_at(
            secs_f(r.at + 0.5),
            edges[r.to_edge],
            roster[r.who],
            PortId(r.who as u16),
        );
        placement[r.who] = r.to_edge;
    }

    for s in &sched.sends {
        fabric.send_at(
            secs_f(s.at),
            edges[placement[s.from]],
            roster[s.from].mac,
            Eid::V4(roster[s.to].ipv4),
            128,
            (s.from * 16 + s.to) as u64,
            false,
        );
    }

    Built {
        fabric,
        edges,
        roster,
        vn,
        placement,
    }
}

fn expected(built: &Built) -> ExpectedPlacement {
    let mut want = ExpectedPlacement::new();
    for (i, id) in built.roster.iter().enumerate() {
        let rloc = built.fabric.edge(built.edges[built.placement[i]]).rloc();
        want.insert((built.vn, Eid::V4(id.ipv4)), rloc);
        want.insert((built.vn, Eid::Mac(id.mac)), rloc);
    }
    want
}

/// Quiesce off the 5-second control-plane timer grid: faults end by
/// 35 s; 23 s of calm covers the retry budget, several refresh rounds
/// and two idle-eviction horizons.
const QUIESCE: f64 = 58.0;

fn counter_trace(fabric: &Fabric) -> Vec<u64> {
    [
        "fabric.delivered",
        "fabric.map_requests",
        "fabric.map_request_retries",
        "fabric.register_retries",
        "fabric.register_timeouts",
        "fabric.resolve_timeouts",
        "ctrl.server_restarts",
        "border.publish_gaps",
        "border.publish_regressions",
        "border.resyncs_completed",
        "simnet.faults_injected",
        "simnet.fault_msg_drops",
        "simnet.link_drops",
    ]
    .iter()
    .map(|n| fabric.metrics().counter(n))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated schedule converges to the fault-free fixed point.
    #[test]
    fn random_chaos_converges(sched in arb_schedule()) {
        let mut built = build(&sched);
        built.fabric.run_until(secs_f(QUIESCE));
        let report = check_convergence(&built.fabric, &expected(&built));
        prop_assert!(report.converged(), "schedule {sched:?} left {report:?}");
    }

    /// Same schedule, same seed: the counter trace replays exactly.
    #[test]
    fn random_chaos_replays_identically(sched in arb_schedule()) {
        let run = |sched: &Schedule| {
            let mut built = build(sched);
            built.fabric.run_until(secs_f(QUIESCE));
            counter_trace(&built.fabric)
        };
        prop_assert_eq!(run(&sched), run(&sched));
    }
}
