//! Random fault schedules against the *overload-hardened* control
//! plane: every run gets a multi-shard map-server with tight admission
//! budgets, a bounded server ingress queue and tight per-edge retry-map
//! caps, plus a generated mix of loss windows, server/shard outages and
//! shard partitions. Two invariants must hold for every schedule:
//!
//! 1. **Bounded** — no capped structure ever exceeds its cap: the
//!    server ingress queue, each edge's resolving and pending-register
//!    maps, and the pub/sub delta queues all stay within their limits
//!    for the whole run (high-water marks, not end-state samples).
//! 2. **Convergent** — sheds, tail-drops and oldest-evictions are all
//!    recoverable: after quiescence the fabric still reaches the
//!    fault-free fixed point with nothing left wedged.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_core::controller::{EdgeHandle, Fabric, FabricBuilder};
use sda_core::EndpointIdentity;
use sda_core::{check_convergence, AdmissionConfig, ClassBudget, ExpectedPlacement};
use sda_simnet::{FaultPlan, SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId, VnId};

const EDGES: usize = 3;
const ENDPOINTS: usize = 4;

fn secs_f(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

/// One randomly generated fault. Loss and reboot shapes mirror
/// `prop_chaos`; the shard variants are new here and only bite when
/// the generated index lands inside the generated shard count (the
/// server ignores out-of-range shard faults).
#[derive(Clone, Copy, Debug)]
enum OverloadFault {
    EdgeLoss {
        edge: usize,
        loss: f64,
        from: f64,
        dur: f64,
    },
    FabricLoss {
        loss: f64,
        from: f64,
        dur: f64,
    },
    ServerReboot {
        from: f64,
        dur: f64,
    },
    /// One control shard crashes (its database slice is lost) and
    /// restarts; the other shards keep serving.
    ShardOutage {
        shard: usize,
        from: f64,
        dur: f64,
    },
    /// One control shard is partitioned (state frozen, unreachable)
    /// and heals.
    ShardPartition {
        shard: usize,
        from: f64,
        dur: f64,
    },
}

fn arb_fault() -> impl Strategy<Value = OverloadFault> {
    prop_oneof![
        (0..EDGES, 0.3f64..=1.0, 5.0f64..25.0, 2.0f64..8.0).prop_map(|(edge, loss, from, dur)| {
            OverloadFault::EdgeLoss {
                edge,
                loss,
                from,
                dur,
            }
        }),
        (0.02f64..0.15, 5.0f64..25.0, 2.0f64..8.0)
            .prop_map(|(loss, from, dur)| OverloadFault::FabricLoss { loss, from, dur }),
        (5.0f64..25.0, 1.0f64..4.0)
            .prop_map(|(from, dur)| OverloadFault::ServerReboot { from, dur }),
        (0..4usize, 5.0f64..25.0, 1.0f64..6.0)
            .prop_map(|(shard, from, dur)| { OverloadFault::ShardOutage { shard, from, dur } }),
        (0..4usize, 5.0f64..25.0, 1.0f64..6.0)
            .prop_map(|(shard, from, dur)| { OverloadFault::ShardPartition { shard, from, dur } }),
    ]
}

/// The overload knobs under test, generated per run.
#[derive(Clone, Copy, Debug)]
struct Limits {
    ctrl_shards: usize,
    /// Server ingress queue bound.
    ingress_cap: usize,
    /// Per-edge retry-map caps (resolving and pending registers).
    retry_cap: usize,
    register_rate: f64,
    register_burst: f64,
    request_rate: f64,
}

fn arb_limits() -> impl Strategy<Value = Limits> {
    (
        2..=4usize,
        16..=48usize,
        4..=16usize,
        20.0f64..100.0,
        4.0f64..12.0,
        50.0f64..200.0,
    )
        .prop_map(
            |(ctrl_shards, ingress_cap, retry_cap, register_rate, register_burst, request_rate)| {
                Limits {
                    ctrl_shards,
                    ingress_cap,
                    retry_cap,
                    register_rate,
                    register_burst,
                    request_rate,
                }
            },
        )
}

#[derive(Clone, Debug)]
struct Schedule {
    seed: u64,
    limits: Limits,
    faults: Vec<OverloadFault>,
    /// Background sends (from, to, at) between static endpoints.
    sends: Vec<(usize, usize, f64)>,
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (
        any::<u64>(),
        arb_limits(),
        proptest::collection::vec(arb_fault(), 0..5),
        proptest::collection::vec((0..ENDPOINTS, 0..ENDPOINTS, 6.0f64..30.0), 0..5),
    )
        .prop_map(|(seed, limits, faults, sends)| Schedule {
            seed,
            limits,
            faults,
            sends,
        })
}

struct Built {
    fabric: Fabric,
    edges: Vec<EdgeHandle>,
    roster: Vec<EndpointIdentity>,
    vn: VnId,
}

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
        cfg.ctrl_shards = sched.limits.ctrl_shards;
        cfg.max_pending = sched.limits.retry_cap;
        cfg.admission = Some(AdmissionConfig {
            requests: ClassBudget::new(sched.limits.request_rate, 16.0),
            registers: ClassBudget::new(sched.limits.register_rate, sched.limits.register_burst),
            subscribes: ClassBudget::new(10.0, 4.0),
            retry_after: SimDuration::from_millis(300),
        });
    }
    let vn = b.add_vn(
        100,
        Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
    );
    let users = GroupId(10);
    b.allow(vn, users, users);
    let edges: Vec<EdgeHandle> = (0..EDGES).map(|i| b.add_edge(format!("oe{i}"))).collect();
    b.add_border("ob", vec![]);
    let roster: Vec<EndpointIdentity> =
        (0..ENDPOINTS).map(|_| b.mint_endpoint(vn, users)).collect();
    let mut fabric = b.build();

    // Bound only the routing server's ingress queue: it is the overload
    // target, and every message class aimed at it has a retransmit
    // path. (Edge↔policy auth has none, so edge queues stay unbounded
    // here — the chaos campaign covers fabric-wide caps.)
    let rs = fabric.routing_node();
    fabric
        .sim_mut()
        .set_ingress_cap(rs, sched.limits.ingress_cap);

    for (i, id) in roster.iter().enumerate() {
        fabric.attach_at(SimTime::ZERO, edges[i % EDGES], *id, PortId(i as u16));
    }

    let mut plan = FaultPlan::new();
    for f in &sched.faults {
        plan = match *f {
            OverloadFault::EdgeLoss {
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
            OverloadFault::FabricLoss { loss, from, dur } => {
                // Pinning edge↔policy lossless (see prop_chaos) is
                // replaced here by simply excluding fabric-wide loss
                // from the attach window: attaches happen at t=0 and
                // fabric loss starts at ≥5 s.
                plan.default_loss_window(loss, secs_f(from), secs_f(from + dur))
            }
            OverloadFault::ServerReboot { from, dur } => {
                plan.reboot(rs, secs_f(from), secs_f(from + dur))
            }
            OverloadFault::ShardOutage { shard, from, dur } => {
                plan.shard_outage(rs, shard, secs_f(from), secs_f(from + dur))
            }
            OverloadFault::ShardPartition { shard, from, dur } => {
                plan.shard_partition_window(rs, shard, secs_f(from), secs_f(from + dur))
            }
        };
    }
    fabric.schedule_faults(&plan);

    for &(from, to, at) in &sched.sends {
        fabric.send_at(
            secs_f(at),
            edges[from % EDGES],
            roster[from].mac,
            Eid::V4(roster[to].ipv4),
            128,
            (from * 16 + to) as u64,
            false,
        );
    }

    Built {
        fabric,
        edges,
        roster,
        vn,
    }
}

fn expected(built: &Built) -> ExpectedPlacement {
    let mut want = ExpectedPlacement::new();
    for (i, id) in built.roster.iter().enumerate() {
        let rloc = built.fabric.edge(built.edges[i % EDGES]).rloc();
        want.insert((built.vn, Eid::V4(id.ipv4)), rloc);
        want.insert((built.vn, Eid::Mac(id.mac)), rloc);
    }
    want
}

/// Faults end by 31 s; quiesce far off the 5-second timer grid, past
/// several refresh rounds (which re-register anything the caps evicted
/// or admission shed) and two idle-eviction horizons.
const QUIESCE: f64 = 58.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any schedule: caps hold for the whole run, and the fabric still
    /// converges — sheds, drops and evictions are never fatal.
    #[test]
    fn overload_caps_hold_and_fabric_converges(sched in arb_schedule()) {
        let mut built = build(&sched);
        built.fabric.run_until(secs_f(QUIESCE));

        // Bounded: high-water marks, so a mid-run excursion cannot hide.
        let rs = built.fabric.routing_node();
        let server_peak = built.fabric.sim_mut().ingress_peak(rs);
        prop_assert!(
            (server_peak as usize) <= sched.limits.ingress_cap,
            "server ingress peak {server_peak} > cap {}",
            sched.limits.ingress_cap
        );
        for &e in &built.edges {
            let edge = built.fabric.edge(e);
            prop_assert!(edge.resolving_peak() <= sched.limits.retry_cap);
            prop_assert!(edge.pending_registers_peak() <= sched.limits.retry_cap);
        }
        prop_assert!(
            built.fabric.routing_server().server().pubsub_peak_depth()
                <= sda_ctrl::DEFAULT_QUEUE_CAP
        );

        // Convergent: the guarded fixed point equals the unguarded one.
        let report = check_convergence(&built.fabric, &expected(&built));
        prop_assert!(report.converged(), "schedule {sched:?} left {report:?}");
        for &e in &built.edges {
            prop_assert_eq!(built.fabric.edge(e).pending_register_len(), 0);
        }
    }
}
