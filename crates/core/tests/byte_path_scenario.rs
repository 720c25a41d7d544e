//! End-to-end byte-path scenario on the simulator: the mobility/SMR
//! refresh loop and the border default-route miss, exercised through
//! the **per-node `sda_dataplane::Switch` instances** the folded data
//! plane runs on — with the node-level stats cross-checked against the
//! engines' own counters and the differential oracle's predictions.

use sda_core::controller::FabricBuilder;
use sda_core::pipeline::compose_host_frame;
use sda_dataplane::{Punt, Verdict};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId};
use std::net::Ipv4Addr;

// Each includer calls its own part of the references.
#[allow(dead_code)]
mod reference;
use reference::pipeline::oracle;

const USERS: GroupId = GroupId(10);

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

#[test]
fn mobility_and_default_route_through_per_node_switches() {
    scenario(1);
}

/// The same byte path against a 4-shard partitioned control plane:
/// resolution, registration, pub/sub and SMR must be oblivious to the
/// map-server's internal sharding.
#[test]
fn mobility_and_default_route_with_four_ctrl_shards() {
    scenario(4);
}

fn scenario(ctrl_shards: usize) {
    let mut b = FabricBuilder::new(1234);
    b.config_mut().ctrl_shards = ctrl_shards;
    let vn = b.add_vn(
        100,
        Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
    );
    b.allow(vn, USERS, USERS);
    let e0 = b.add_edge("e0");
    let e1 = b.add_edge("e1");
    let e2 = b.add_edge("e2");
    let border = b.add_border(
        "border",
        vec![Ipv4Prefix::new(Ipv4Addr::new(93, 184, 0, 0), 16).unwrap()],
    );
    let alice = b.mint_endpoint(vn, USERS);
    let bob = b.mint_endpoint(vn, USERS);
    let mut f = b.build();

    f.attach_at(ms(0), e0, alice, PortId(1));
    f.attach_at(ms(0), e1, bob, PortId(1));
    f.run_until(ms(100));

    // ── Border default-route miss ────────────────────────────────────
    // Cold cache: the first packet rides the default route through the
    // border, which relays it off its pub/sub-synced table.
    f.send_at(ms(200), e0, alice.mac, Eid::V4(bob.ipv4), 128, 1, true);
    f.run_until(ms(300));
    assert_eq!(f.edge(e0).stats().default_routed, 1);
    assert_eq!(f.border(border).stats().relayed, 1);
    assert_eq!(f.edge(e1).stats().delivered, 1);
    // The resolution warmed e0's cache; the next packet goes direct.
    f.send_at(ms(400), e0, alice.mac, Eid::V4(bob.ipv4), 128, 2, true);
    f.run_until(ms(500));
    assert_eq!(f.edge(e0).stats().default_routed, 1, "second packet direct");
    assert_eq!(f.edge(e1).stats().delivered, 2);

    // ── Mobility / SMR refresh loop (Figs. 5–6) ──────────────────────
    f.detach_at(ms(600), e1, bob.mac);
    f.attach_at(ms(601), e2, bob, PortId(7));
    f.run_until(ms(700));
    // Stale-cache packet: e1's switch re-forwards to e2 and punts the
    // Fig. 6 SMR back to e0, which re-resolves.
    f.send_at(ms(710), e0, alice.mac, Eid::V4(bob.ipv4), 128, 3, true);
    f.run_until(ms(900));
    assert_eq!(f.edge(e1).stats().mobility_forwards, 1);
    assert_eq!(f.edge(e1).stats().smrs_sent, 1);
    assert_eq!(f.edge(e2).stats().delivered, 1);
    // Healed: direct to e2, no second detour.
    f.send_at(ms(1000), e0, alice.mac, Eid::V4(bob.ipv4), 128, 4, true);
    f.run_until(ms(1200));
    assert_eq!(f.edge(e2).stats().delivered, 2);
    assert_eq!(f.edge(e1).stats().mobility_forwards, 1);

    // ── External + unroutable at the border ──────────────────────────
    f.send_at(
        ms(1300),
        e0,
        alice.mac,
        Eid::V4(Ipv4Addr::new(93, 184, 216, 34)),
        128,
        5,
        false,
    );
    f.send_at(
        ms(1310),
        e0,
        alice.mac,
        Eid::V4(Ipv4Addr::new(10, 100, 99, 99)),
        128,
        6,
        false,
    );
    f.run_until(ms(1600));
    assert_eq!(f.border(border).stats().external, 1);
    assert_eq!(f.border(border).stats().unroutable, 1);

    // ── Node stats agree with the per-node engines ───────────────────
    for (h, stats) in [(e0, f.edge(e0).stats()), (e1, f.edge(e1).stats())] {
        let sw = f.edge(h).switch().stats();
        assert_eq!(sw.delivered, stats.delivered, "edge {h:?} delivered");
        assert_eq!(
            sw.forwarded_default,
            stats.default_routed + stats.first_packet_drops,
            "edge {h:?} default-route accounting"
        );
        assert_eq!(
            sw.dropped,
            stats.policy_drops + stats.hop_exhausted,
            "edge {h:?} drops"
        );
    }
    let bsw = f.border(border).switch().stats();
    let bstats = f.border(border).stats();
    assert_eq!(bsw.forwarded, bstats.relayed);
    assert_eq!(bsw.delivered_external, bstats.external);

    // ── Oracle cross-check against the live per-node tables ──────────
    // A fresh alice→bob frame must, per the oracle, forward straight to
    // e2 (the healed location) out of e0's switch…
    let now = f.now();
    let e2_rloc = f.edge(e2).rloc();
    let mut frame = Vec::new();
    assert!(compose_host_frame(
        &mut frame,
        alice.mac,
        alice.ipv4,
        Eid::V4(bob.ipv4),
        64,
        7,
        false,
    ));
    let e0_sw = f.edge(e0).switch();
    let (verdict, punts) = oracle::predict_ingress(e0_sw.config(), e0_sw.tables(), &frame, now);
    assert_eq!(verdict, Verdict::Forward { to: e2_rloc });
    assert!(punts.is_empty(), "healed mapping needs no resolution");
    // …and a packet for bob arriving at his *old* edge still re-forwards
    // to e2 with an SMR punt, exactly the Fig. 6 prediction.
    let mut bufs = [sda_dataplane::PacketBuf::new()];
    assert!(bufs[0].load(&frame));
    let mut tx = sda_dataplane::Switch::new(*e0_sw.config());
    tx.attach(
        vn,
        sda_dataplane::LocalEndpoint {
            port: PortId(1),
            group: USERS,
            mac: alice.mac,
            ipv4: alice.ipv4,
        },
    );
    tx.install_mapping(
        vn,
        sda_types::EidPrefix::host(Eid::V4(bob.ipv4)),
        f.edge(e1).rloc(),
        SimDuration::from_secs(3600),
        now,
    );
    let v = tx.process_ingress(&mut bufs, now)[0];
    assert_eq!(
        v,
        Verdict::Forward {
            to: f.edge(e1).rloc()
        }
    );
    let wire = bufs[0].bytes().to_vec();
    let e1_sw = f.edge(e1).switch();
    let (verdict, punts) = oracle::predict_egress(e1_sw.config(), e1_sw.tables(), &wire, now);
    assert_eq!(verdict, Verdict::Forward { to: e2_rloc });
    assert_eq!(
        punts,
        vec![Punt::Smr {
            to: e0_sw.config().rloc,
            vn,
            eid: Eid::V4(bob.ipv4),
        }]
    );
}
