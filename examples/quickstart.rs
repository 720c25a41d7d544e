//! Quickstart: build a three-router fabric, define policy, onboard two
//! endpoints, and watch the reactive control plane do its job.
//!
//! Run with: `cargo run --release --example quickstart`

use sda_core::controller::FabricBuilder;
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId};
use std::net::Ipv4Addr;

fn main() {
    // ── Operator intent (§3.1's declarative interface) ────────────────
    let mut builder = FabricBuilder::new(/*seed*/ 1);

    // One virtual network for the workforce, with its overlay subnet.
    let corp = builder.add_vn(
        100,
        Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap(),
    );

    // Two groups and a connectivity matrix: employees may talk to
    // employees and to printers; printers never start conversations.
    let employees = GroupId(10);
    let printers = GroupId(20);
    builder.allow(corp, employees, employees);
    builder.allow(corp, employees, printers);
    // (no printers→anything rule: default deny)

    // Topology: two edges and a border with the Internet behind it.
    let edge1 = builder.add_edge("edge1");
    let edge2 = builder.add_edge("edge2");
    let border = builder.add_border(
        "border",
        vec![Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0).unwrap()],
    );

    // Endpoints: the builder mints credentials and overlay addresses.
    let alice = builder.mint_endpoint(corp, employees);
    let printer = builder.mint_endpoint(corp, printers);

    let mut fabric = builder.build();

    // ── Things happen ─────────────────────────────────────────────────
    let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);

    // Both devices plug in: RADIUS auth, rule download, LISP register.
    fabric.attach_at(ms(0), edge1, alice, PortId(1));
    fabric.attach_at(ms(0), edge2, printer, PortId(7));
    fabric.run_until(ms(50));
    println!(
        "onboarded: edge1={} edge2={}",
        fabric.edge(edge1).stats().onboarded,
        fabric.edge(edge2).stats().onboarded
    );
    println!(
        "routing server mappings: {}",
        fabric.routing_server().server().db_len()
    );

    // Alice prints. The first packet misses edge1's map-cache, rides the
    // default route through the border, and triggers a Map-Request; the
    // second goes straight to edge2.
    fabric.send_at(
        ms(100),
        edge1,
        alice.mac,
        Eid::V4(printer.ipv4),
        1200,
        1,
        false,
    );
    fabric.send_at(
        ms(200),
        edge1,
        alice.mac,
        Eid::V4(printer.ipv4),
        1200,
        2,
        false,
    );
    fabric.run_until(ms(300));

    let e1 = fabric.edge(edge1).stats();
    let e2 = fabric.edge(edge2).stats();
    println!(
        "edge1: default-routed={} map-requests={}",
        e1.default_routed, e1.map_requests
    );
    println!("edge2: delivered={}", e2.delivered);
    println!("border relayed: {}", fabric.border(border).stats().relayed);
    println!("edge1 map-cache entries: {}", fabric.edge(edge1).fib_len());

    // The printer tries to phone home to Alice — denied on egress.
    fabric.send_at(
        ms(400),
        edge2,
        printer.mac,
        Eid::V4(alice.ipv4),
        64,
        3,
        false,
    );
    fabric.run_until(ms(500));
    println!(
        "edge1 policy drops: {}",
        fabric.edge(edge1).stats().policy_drops
    );

    // And some Internet traffic through the border's external route.
    fabric.send_at(
        ms(600),
        edge1,
        alice.mac,
        Eid::V4(Ipv4Addr::new(93, 184, 216, 34)),
        800,
        4,
        false,
    );
    fabric.run_until(ms(700));
    println!(
        "border external deliveries: {}",
        fabric.border(border).stats().external
    );

    assert_eq!(e2.delivered, 2);
    assert_eq!(fabric.edge(edge1).stats().policy_drops, 1);
    println!(
        "\nquickstart OK — reactive resolution, segmentation and default routing all exercised"
    );
}
