//! Medium-scale consistency: a 40-edge, 800-endpoint fabric under random
//! traffic must conserve packets — every injected Send terminates in
//! exactly one of the accounted outcomes — and control-plane state must
//! reconcile across routers and servers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_core::controller::FabricBuilder;
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId};
use std::net::Ipv4Addr;

#[test]
fn packet_conservation_and_state_reconciliation() {
    let n_edges = 40;
    let n_endpoints = 800;
    let n_sends = 4_000u64;

    let mut b = FabricBuilder::new(77);
    let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
    let g_even = GroupId(2);
    let g_odd = GroupId(3);
    // even→even and odd→odd allowed; cross-group denied.
    b.allow(vn, g_even, g_even);
    b.allow(vn, g_odd, g_odd);

    let edges: Vec<_> = (0..n_edges).map(|i| b.add_edge(format!("e{i}"))).collect();
    let border = b.add_border(
        "border",
        vec![Ipv4Prefix::new(Ipv4Addr::new(93, 184, 0, 0), 16).unwrap()],
    );
    let endpoints: Vec<_> = (0..n_endpoints)
        .map(|i| b.mint_endpoint(vn, if i % 2 == 0 { g_even } else { g_odd }))
        .collect();

    let mut f = b.build();
    let mut rng = SmallRng::seed_from_u64(1234);

    // Attach everyone, staggered over a second.
    for (i, ep) in endpoints.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(rng.gen::<f64>());
        f.attach_at(at, edges[i % n_edges], *ep, PortId(i as u16));
    }
    f.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let onboarded: u64 = edges.iter().map(|e| f.edge(*e).stats().onboarded).sum();
    assert_eq!(onboarded, n_endpoints as u64);

    // Random traffic: mixture of allowed, denied, external and
    // nonexistent destinations.
    let start = SimTime::ZERO + SimDuration::from_secs(10);
    for k in 0..n_sends {
        let src_i = rng.gen_range(0..n_endpoints);
        let src = endpoints[src_i];
        let dst = match rng.gen_range(0..10) {
            0 => Eid::V4(Ipv4Addr::new(93, 184, 1, 1)),   // external
            1 => Eid::V4(Ipv4Addr::new(10, 1, 200, 200)), // nonexistent
            _ => Eid::V4(endpoints[rng.gen_range(0..n_endpoints)].ipv4),
        };
        let at = start + SimDuration::from_secs_f64(rng.gen::<f64>() * 20.0);
        f.send_at(at, edges[src_i % n_edges], src.mac, dst, 200, k, false);
    }
    f.run_until(start + SimDuration::from_secs(40));

    // ── Conservation ──────────────────────────────────────────────────
    let mut delivered = 0u64;
    let mut policy_drops = 0u64;
    let mut hop_exhausted_edges = 0u64;
    let mut unknown = 0u64;
    for e in &edges {
        let s = f.edge(*e).stats();
        delivered += s.delivered;
        policy_drops += s.policy_drops;
        hop_exhausted_edges += s.hop_exhausted;
        unknown += s.unknown_source;
    }
    let bs = f.border(border).stats();
    let total_terminal = delivered
        + bs.delivered
        + policy_drops
        + bs.policy_drops
        + unknown
        + hop_exhausted_edges
        + f.metrics().counter("fabric.hop_exhausted")
        - hop_exhausted_edges
        + bs.unroutable
        + bs.external;
    assert_eq!(
        total_terminal,
        n_sends,
        "every packet must terminate exactly once \
         (delivered={delivered} borderDelivered={} policy={policy_drops}+{} \
          unknown={unknown} hops={} unroutable={} external={})",
        bs.delivered,
        bs.policy_drops,
        f.metrics().counter("fabric.hop_exhausted"),
        bs.unroutable,
        bs.external
    );

    // ── Reconciliation ────────────────────────────────────────────────
    // Routing server holds 2 EIDs per endpoint (all registrations fresh).
    assert_eq!(f.routing_server().server().db_len(), 2 * n_endpoints);
    // Border's synced table mirrors it.
    assert_eq!(f.border(border).fib_len(), 2 * n_endpoints);
    // Every edge's map-cache only holds IPv4 mappings it actually
    // resolved — bounded by distinct destinations.
    for e in &edges {
        assert!(f.edge(*e).fib_len_v4() <= n_endpoints);
    }
    // Attached endpoints sum to the population.
    let attached: usize = edges.iter().map(|e| f.edge(*e).attached()).sum();
    assert_eq!(attached, n_endpoints);
}
