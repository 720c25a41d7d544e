//! Focused fault-recovery tests: each exercises one piece of the
//! control plane's retry/timeout/self-healing machinery against a
//! targeted fault, with exact assertions on the recovery path.

use std::net::Ipv4Addr;

use sda_core::controller::{BorderHandle, EdgeHandle, Fabric, FabricBuilder};
use sda_core::EndpointIdentity;
use sda_core::{check_convergence, ExpectedPlacement};
use sda_simnet::{FaultPlan, SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId, VnId};

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

struct Setup {
    fabric: Fabric,
    e1: EdgeHandle,
    e2: EdgeHandle,
    border: BorderHandle,
    vn: VnId,
    alice: EndpointIdentity,
    bob: EndpointIdentity,
}

/// Two edges, one border, two endpoints; fast control-plane intervals
/// so recovery fits a short horizon.
fn chaos_fabric(seed: u64) -> Setup {
    let mut b = FabricBuilder::new(seed);
    let vn = b.add_vn(
        100,
        Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
    );
    let users = GroupId(10);
    b.allow(vn, users, users);
    let e1 = b.add_edge("edge1");
    let e2 = b.add_edge("edge2");
    let border = b.add_border("border", vec![]);
    let alice = b.mint_endpoint(vn, users);
    let bob = b.mint_endpoint(vn, users);
    let cfg = b.config_mut();
    cfg.refresh_interval = Some(SimDuration::from_secs(5));
    cfg.subscribe_refresh_interval = Some(SimDuration::from_secs(5));
    cfg.purge_interval = Some(SimDuration::from_secs(5));
    Setup {
        fabric: b.build(),
        e1,
        e2,
        border,
        vn,
        alice,
        bob,
    }
}

fn expected_two_endpoints(s: &Setup) -> ExpectedPlacement {
    let mut want = ExpectedPlacement::new();
    let r1 = s.fabric.edge(s.e1).rloc();
    let r2 = s.fabric.edge(s.e2).rloc();
    want.insert((s.vn, Eid::V4(s.alice.ipv4)), r1);
    want.insert((s.vn, Eid::Mac(s.alice.mac)), r1);
    want.insert((s.vn, Eid::V4(s.bob.ipv4)), r2);
    want.insert((s.vn, Eid::Mac(s.bob.mac)), r2);
    want
}

/// Regression for the resolving-set leak: a Map-Request lost on a
/// fully lossy edge↔server link used to wedge `(vn, eid)` in the
/// resolving set forever — after the link healed, no packet could ever
/// trigger a new resolution. Now the attempt budget evicts the entry,
/// and a later packet resolves normally.
#[test]
fn resolution_recovers_after_total_loss_window() {
    let mut s = chaos_fabric(7);
    let e1_node = s.fabric.edge_node(s.e1);
    let rs_node = s.fabric.routing_node();

    s.fabric.attach_at(SimTime::ZERO, s.e1, s.alice, PortId(1));
    s.fabric.attach_at(SimTime::ZERO, s.e2, s.bob, PortId(1));

    // Both endpoints register cleanly, then the edge1↔server link goes
    // fully dark for 55 s — longer than the whole retry budget
    // (500 ms, 1 s, 2 s, 4 s, 8 s ≈ 15.5 s of backoff).
    let plan = FaultPlan::new().loss_window(e1_node, rs_node, 1.0, secs(5), secs(60));
    s.fabric.schedule_faults(&plan);

    // A send during the window: delivered via the border default route,
    // but the Map-Request it punts is lost — every retransmit too.
    s.fabric.send_at(
        secs(6),
        s.e1,
        s.alice.mac,
        Eid::V4(s.bob.ipv4),
        64,
        1,
        false,
    );
    s.fabric.run_until(secs(40));

    let m = s.fabric.metrics();
    assert!(
        m.counter("fabric.map_request_retries") >= 4,
        "retransmits fired during the loss window"
    );
    assert_eq!(
        m.counter("fabric.resolve_timeouts"),
        1,
        "the attempt budget evicted the wedged resolution"
    );
    assert_eq!(
        s.fabric.edge(s.e1).resolving_len(),
        0,
        "no stuck resolving entry"
    );
    assert_eq!(
        s.fabric.edge(s.e2).stats().delivered,
        1,
        "default route carried it"
    );

    // After the heal a fresh packet resolves from scratch.
    s.fabric.send_at(
        secs(65),
        s.e1,
        s.alice.mac,
        Eid::V4(s.bob.ipv4),
        64,
        2,
        false,
    );
    s.fabric.run_until(secs(72));
    assert_eq!(s.fabric.edge(s.e1).fib_len(), 1, "resolution healed");
    assert_eq!(s.fabric.edge(s.e1).resolving_len(), 0);
    assert_eq!(s.fabric.edge(s.e2).stats().delivered, 2);

    let report = check_convergence(&s.fabric, &expected_two_endpoints(&s));
    assert!(report.converged(), "fabric converged: {report:?}");
}

/// A publish gap (deltas lost on the server↔border link) costs the gap:
/// the border drops what arrives past the hole and resubscribes from its
/// watermark, and the server — the log still holding the lost deltas —
/// acks `resumed` and replays them. No snapshot, no purge.
#[test]
fn border_gap_detection_fills_the_gap_from_the_log() {
    let mut b = FabricBuilder::new(11);
    let vn = b.add_vn(
        100,
        Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
    );
    let users = GroupId(10);
    b.allow(vn, users, users);
    let e1 = b.add_edge("edge1");
    let e2 = b.add_edge("edge2");
    let bh = b.add_border("border", vec![]);
    let alice = b.mint_endpoint(vn, users);
    let bob = b.mint_endpoint(vn, users);
    let carol = b.mint_endpoint(vn, users);
    let mut f = b.build();
    let border_node = f.border_node(bh);
    let rs_node = f.routing_node();

    // alice registers cleanly; the border's stream is live.
    f.attach_at(SimTime::ZERO, e1, alice, PortId(1));

    // bob's publishes fall into a dark window on server↔border; carol's
    // arrive after the heal with a jumped sequence number.
    let plan = FaultPlan::new().loss_window(border_node, rs_node, 1.0, secs(5), secs(20));
    f.schedule_faults(&plan);
    f.attach_at(secs(10), e2, bob, PortId(1));
    f.attach_at(secs(25), e2, carol, PortId(2));
    f.run_until(secs(40));

    let stats = f.border(bh).stats();
    assert!(stats.publish_gaps >= 1, "gap detected: {stats:?}");
    assert!(stats.resyncs_requested >= 1, "resync requested: {stats:?}");
    assert_eq!(stats.resyncs_completed, 0, "no snapshot: {stats:?}");
    let m = f.metrics();
    assert_eq!(m.counter("border.resyncs_completed"), 0);
    assert!(m.counter("border.stream_resumes") >= 1);
    assert!(
        m.counter("ctrl.stream_replays") >= 1,
        "the gap was replayed"
    );
    assert_eq!(m.counter("border.snapshot_rows"), 0);
    assert_eq!(
        f.border(bh).fib_len(),
        6,
        "all 3 endpoints × 2 EIDs, bob's lost deltas included"
    );
    assert_eq!(f.border(bh).pending_subscribe_len(), 0);
}

/// An edge reboot (volatile state loss) heals itself: the endpoint
/// inventory survives, so the edge re-attaches, re-registers and
/// re-fetches its group rules without any operator intervention.
#[test]
fn edge_restart_reregisters_from_inventory() {
    let mut s = chaos_fabric(13);
    let e1_node = s.fabric.edge_node(s.e1);

    s.fabric.attach_at(SimTime::ZERO, s.e1, s.alice, PortId(1));
    s.fabric.attach_at(SimTime::ZERO, s.e2, s.bob, PortId(1));

    let plan = FaultPlan::new().reboot(e1_node, secs(10), secs(15));
    s.fabric.schedule_faults(&plan);
    s.fabric.run_until(secs(20));

    assert_eq!(s.fabric.metrics().counter("fabric.edge_restarts"), 1);
    assert_eq!(
        s.fabric.edge(s.e1).attached(),
        1,
        "alice re-attached from the inventory"
    );

    // Traffic through the rebooted edge works in both directions: the
    // re-fetched rules allow it, the re-registration routes it.
    s.fabric.send_at(
        secs(21),
        s.e1,
        s.alice.mac,
        Eid::V4(s.bob.ipv4),
        64,
        1,
        false,
    );
    s.fabric.send_at(
        secs(23),
        s.e2,
        s.bob.mac,
        Eid::V4(s.alice.ipv4),
        64,
        2,
        false,
    );
    s.fabric.run_until(secs(32));
    assert_eq!(s.fabric.edge(s.e2).stats().delivered, 1);
    assert_eq!(s.fabric.edge(s.e1).stats().delivered, 1);

    let report = check_convergence(&s.fabric, &expected_two_endpoints(&s));
    assert!(report.converged(), "fabric converged: {report:?}");
}

/// A routing-server restart wipes its database, subscriber list and
/// ARP table. Edges repopulate the database through registration
/// refreshes; borders notice (periodic resubscribe and/or sequence
/// regression) and rebuild their synced slice by snapshot.
#[test]
fn server_restart_rebuilds_db_and_resyncs_borders() {
    let mut s = chaos_fabric(17);
    let rs_node = s.fabric.routing_node();

    s.fabric.attach_at(SimTime::ZERO, s.e1, s.alice, PortId(1));
    s.fabric.attach_at(SimTime::ZERO, s.e2, s.bob, PortId(1));

    let plan = FaultPlan::new().reboot(rs_node, secs(8), secs(12));
    s.fabric.schedule_faults(&plan);
    s.fabric.run_until(secs(32));

    assert_eq!(s.fabric.metrics().counter("ctrl.server_restarts"), 1);
    assert_eq!(
        s.fabric.routing_server().server().db_len(),
        4,
        "registration refreshes rebuilt the database"
    );
    assert!(
        s.fabric.border(s.border).stats().resyncs_completed >= 1,
        "border resynced after the restart"
    );
    assert_eq!(
        s.fabric.border(s.border).fib_len(),
        4,
        "border slice rebuilt by snapshot"
    );

    let report = check_convergence(&s.fabric, &expected_two_endpoints(&s));
    assert!(report.converged(), "fabric converged: {report:?}");
}

/// Same seed, same fault plan ⇒ byte-identical chaos run: the fault
/// layer rides the one event queue and the one RNG.
#[test]
fn chaos_runs_are_replay_identical() {
    let run = |seed: u64| {
        let mut s = chaos_fabric(seed);
        let e1_node = s.fabric.edge_node(s.e1);
        let rs_node = s.fabric.routing_node();
        s.fabric.attach_at(SimTime::ZERO, s.e1, s.alice, PortId(1));
        s.fabric.attach_at(SimTime::ZERO, s.e2, s.bob, PortId(1));
        let plan = FaultPlan::new()
            .reboot(e1_node, secs(10), secs(14))
            .default_loss_window(0.05, secs(5), secs(25))
            .loss_window(e1_node, rs_node, 0.3, secs(16), secs(20));
        s.fabric.schedule_faults(&plan);
        for i in 0..20u64 {
            s.fabric.send_at(
                secs(6 + i),
                s.e1,
                s.alice.mac,
                Eid::V4(s.bob.ipv4),
                64,
                i,
                false,
            );
        }
        s.fabric.run_until(secs(40));
        let m = s.fabric.metrics();
        [
            "fabric.delivered",
            "fabric.map_requests",
            "fabric.map_request_retries",
            "fabric.register_retries",
            "fabric.resolve_timeouts",
            "fabric.edge_restarts",
            "border.publishes",
            "border.resyncs_completed",
            "simnet.fault_msg_drops",
            "simnet.link_drops",
            "simnet.faults_injected",
        ]
        .map(|name| m.counter(name))
    };
    assert_eq!(run(99), run(99), "same seed, same fault plan, same trace");
    assert_ne!(
        run(99)[0],
        0,
        "the chaos run still delivered traffic somewhere"
    );
}
