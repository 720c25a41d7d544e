//! The §5 "Lessons Learnt" scenarios, end to end:
//!
//! * §5.1 — underlay connectivity outage: the underlay's reachable set
//!   purges routes through a dead RLOC and traffic falls back to the
//!   border.
//! * §5.2 — edge reboot: the transient border↔edge loop is damped by
//!   the hop budget and healed by re-onboarding.
//! * Fig. 6 — SMR rate limiting under sustained stale traffic.

use sda_core::controller::{BorderHandle, EdgeHandle, FabricBuilder};
use sda_core::Fabric;
use sda_simnet::{FaultPlan, SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, MacAddr, PortId};
use std::net::Ipv4Addr;

const G: GroupId = GroupId(1);

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

/// §5.1's outage: cuts `edge` off from every other fabric node over
/// `[from, to)`. The edge keeps its state; it just hears nothing and is
/// heard by no one.
fn isolate(f: &mut Fabric, edge: EdgeHandle, from: SimTime, to: SimTime) {
    let me = f.edge_node(edge);
    let plan = (0..f.edge_count())
        .map(|i| f.edge_node(EdgeHandle(i)))
        .chain((0..f.border_count()).map(|i| f.border_node(BorderHandle(i))))
        .chain([f.routing_node(), f.policy_node()])
        .filter(|n| *n != me)
        .fold(FaultPlan::new(), |plan, n| {
            plan.partition_window(me, n, from, to)
        });
    f.schedule_faults(&plan);
}

/// §5.2's reboot at `at`: the edge's endpoints leave its ports, then it
/// crashes and restarts 1 µs later with empty tables and an empty
/// inventory — they must re-attach.
fn reboot(f: &mut Fabric, edge: EdgeHandle, attached: &[MacAddr], at: SimTime) {
    for mac in attached {
        f.detach_at(at, edge, *mac);
    }
    let up = at + SimDuration::from_micros(1);
    f.schedule_faults(&FaultPlan::new().reboot(f.edge_node(edge), at, up));
}

#[test]
fn underlay_outage_purges_routes_and_falls_back_to_border() {
    let mut b = FabricBuilder::new(51);
    b.enable_underlay_dynamics();
    let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
    b.allow(vn, G, G);
    let e0 = b.add_edge("e0");
    let e1 = b.add_edge("e1");
    let _border = b.add_border("border", vec![]);
    let alice = b.mint_endpoint(vn, G);
    let bob = b.mint_endpoint(vn, G);
    let mut f = b.build();

    f.attach_at(ms(0), e0, alice, PortId(1));
    f.attach_at(ms(0), e1, bob, PortId(1));
    // Let adjacencies form (hello interval 1 s).
    f.run_until(secs(5));

    // Warm e0's cache toward bob@e1.
    f.send_at(
        secs(5) + SimDuration::from_millis(10),
        e0,
        alice.mac,
        Eid::V4(bob.ipv4),
        100,
        1,
        false,
    );
    f.run_until(secs(6));
    assert_eq!(f.edge(e0).fib_len(), 1);

    // e1 is cut off. After the dead interval (4 s), e0's link-state view
    // loses it and e0 purges the cache entry (§5.1). The window outlasts
    // the run.
    isolate(&mut f, e1, secs(6), secs(60));
    f.run_until(secs(15));
    assert_eq!(
        f.edge(e0).fib_len(),
        0,
        "routes through the dead RLOC must be purged"
    );
    assert!(f.metrics().counter("fabric.reachability_purges") >= 1);

    // Subsequent traffic falls back to the default route (border), and
    // is NOT sent to the dead edge.
    let before = f.edge(e0).stats().default_routed;
    f.send_at(secs(16), e0, alice.mac, Eid::V4(bob.ipv4), 100, 2, false);
    f.run_until(secs(17));
    assert_eq!(f.edge(e0).stats().default_routed, before + 1);
}

#[test]
fn edge_reboot_transient_loop_is_damped_and_heals() {
    let mut b = FabricBuilder::new(52);
    let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
    b.allow(vn, G, G);
    let e0 = b.add_edge("e0");
    let e1 = b.add_edge("e1");
    let _border = b.add_border("border", vec![]);
    let alice = b.mint_endpoint(vn, G);
    let bob = b.mint_endpoint(vn, G);
    let mut f = b.build();

    f.attach_at(ms(0), e0, alice, PortId(1));
    f.attach_at(ms(0), e1, bob, PortId(1));
    f.run_until(ms(100));
    f.send_at(ms(150), e0, alice.mac, Eid::V4(bob.ipv4), 100, 1, false);
    f.run_until(ms(300));
    assert_eq!(f.edge(e1).stats().delivered, 1);

    // e1 reboots: empty VRF and cache. The border still believes bob is
    // at e1 (registration not expired), so traffic loops border→e1→
    // border→… until the hop budget kills the packet (§5.2).
    reboot(&mut f, e1, &[bob.mac], ms(300));
    f.send_at(ms(400), e0, alice.mac, Eid::V4(bob.ipv4), 100, 2, false);
    f.run_until(ms(600));
    let hop_exhausted = f.metrics().counter("fabric.hop_exhausted");
    assert!(
        hop_exhausted >= 1,
        "transient loop must be damped by the hop budget"
    );
    assert_eq!(
        f.edge(e1).stats().delivered,
        1,
        "no new delivery: the rebooted edge lost its VRF (count unchanged)"
    );

    // Bob's port is re-detected → re-onboarding → traffic heals.
    f.attach_at(ms(700), e1, bob, PortId(1));
    f.run_until(ms(800));
    f.send_at(ms(850), e0, alice.mac, Eid::V4(bob.ipv4), 100, 3, false);
    f.run_until(ms(1000));
    assert_eq!(
        f.edge(e1).stats().delivered,
        2,
        "delivery restored after reboot"
    );
}

#[test]
fn rebooted_edge_smrs_senders_to_refresh_their_caches() {
    // §5.2's second mechanism: "the rebooting router will not recognize
    // the incoming traffic, so it will send the data plane message …
    // to the originating edge router. This will trigger a refresh."
    let mut b = FabricBuilder::new(53);
    let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
    b.allow(vn, G, G);
    let e0 = b.add_edge("e0");
    let e1 = b.add_edge("e1");
    b.add_border("border", vec![]);
    let alice = b.mint_endpoint(vn, G);
    let bob = b.mint_endpoint(vn, G);
    let mut f = b.build();

    f.attach_at(ms(0), e0, alice, PortId(1));
    f.attach_at(ms(0), e1, bob, PortId(1));
    f.run_until(ms(100));
    f.send_at(ms(150), e0, alice.mac, Eid::V4(bob.ipv4), 100, 1, false);
    f.run_until(ms(300));

    reboot(&mut f, e1, &[bob.mac], ms(300));
    // alice's edge still caches bob@e1 and sends directly — e1 does not
    // recognize the traffic and SMRs e0.
    f.send_at(ms(400), e0, alice.mac, Eid::V4(bob.ipv4), 100, 2, false);
    f.run_until(ms(600));
    assert!(
        f.edge(e1).stats().smrs_sent >= 1,
        "rebooted edge must SMR the origin"
    );
    assert!(
        f.edge(e0).stats().map_requests >= 2,
        "origin must re-resolve"
    );
}

#[test]
fn smr_is_rate_limited_per_source() {
    let mut b = FabricBuilder::new(54);
    let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
    b.allow(vn, G, G);
    let e0 = b.add_edge("e0");
    let e1 = b.add_edge("e1");
    let e2 = b.add_edge("e2");
    b.add_border("border", vec![]);
    let alice = b.mint_endpoint(vn, G);
    let bob = b.mint_endpoint(vn, G);
    let mut f = b.build();

    f.attach_at(ms(0), e0, alice, PortId(1));
    f.attach_at(ms(0), e1, bob, PortId(1));
    f.run_until(ms(100));
    f.send_at(ms(150), e0, alice.mac, Eid::V4(bob.ipv4), 100, 1, false);
    f.run_until(ms(300));

    // bob moves to e2; alice bursts 50 packets within the SMR window.
    f.detach_at(ms(310), e1, bob.mac);
    f.attach_at(ms(311), e2, bob, PortId(1));
    f.run_until(ms(350));
    // Freeze e0's re-resolution by sending the burst back-to-back.
    for k in 0..50 {
        f.send_at(
            ms(360) + SimDuration::from_micros(k * 10),
            e0,
            alice.mac,
            Eid::V4(bob.ipv4),
            100,
            k,
            false,
        );
    }
    f.run_until(ms(600));
    let smrs = f.edge(e1).stats().smrs_sent;
    assert!(
        smrs <= 2,
        "SMRs must be deduplicated within the hold-down window, got {smrs}"
    );
    // All packets still delivered (forwarded by the old edge).
    assert_eq!(f.edge(e2).stats().delivered, 50 + 1 - 1);
}

#[test]
fn failed_edge_recovers_and_rejoins_underlay() {
    let mut b = FabricBuilder::new(55);
    b.enable_underlay_dynamics();
    let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
    b.allow(vn, G, G);
    let e0 = b.add_edge("e0");
    let e1 = b.add_edge("e1");
    b.add_border("border", vec![]);
    let alice = b.mint_endpoint(vn, G);
    let bob = b.mint_endpoint(vn, G);
    let mut f = b.build();

    f.attach_at(ms(0), e0, alice, PortId(1));
    f.attach_at(ms(0), e1, bob, PortId(1));
    f.run_until(secs(5));

    isolate(&mut f, e1, secs(5), secs(15));
    f.run_until(secs(15)); // dead interval passes, e1 purged
    f.run_until(secs(30)); // hellos resume, adjacency reforms

    // Traffic to bob flows directly again after a resolution.
    f.send_at(
        secs(30) + SimDuration::from_millis(1),
        e0,
        alice.mac,
        Eid::V4(bob.ipv4),
        100,
        7,
        false,
    );
    f.run_until(secs(31));
    assert_eq!(
        f.edge(e1).stats().delivered,
        1,
        "revived edge serves traffic"
    );
}
