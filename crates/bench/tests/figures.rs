//! The figures' shape gate: each of the paper's figures, tables and
//! design studies, run at reduced scale through `sda_bench::figures`
//! and held to the paper's qualitative claim. A refactor that bends a
//! reproduced curve fails here; the `figs` binary prints the same rows
//! at full scale.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_bench::figures::*;
use sda_core::controller::FabricBuilder;
use sda_policy::UpdateStrategy;
use sda_simnet::{SimDuration, SimTime, Summary};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId};
use sda_workloads::{CampusParams, WarehouseParams};
use std::net::Ipv4Addr;

/// Fig. 7a/7b (§4.1): every row preloads the server the fabric runs and
/// checks it — every preloaded route resolves, and an update never
/// grows the table. (The rows' delays come from a constant service time,
/// so their flatness is not asserted; the server's is the
/// `fig7_routing_server` bench.)
#[test]
fn fig7ab_every_route_resolves_and_updates_never_grow_the_table() {
    let routes = [10, 100, 1_000];
    for (panel, plots) in [("7a", fig7a(&routes)), ("7b", fig7b(&routes))] {
        assert_eq!(
            plots.faults, 0,
            "Fig. {panel}: the preloaded server answered wrongly"
        );
    }
}

/// Fig. 7c (§4.1): delay grows with the offered load, yet the server
/// keeps up at the warehouse's 1,600 q/s.
#[test]
fn fig7c_delay_grows_with_load_and_the_warehouse_load_is_sustainable() {
    let (sweep, warehouse) = fig7c(&[500, 1_000, 1_500, 2_000]);
    let medians: Vec<f64> = sweep.rows.iter().map(|(_, s)| s.p50).collect();
    assert!(
        medians.windows(2).all(|w| w[0] < w[1]),
        "Fig. 7c: median delay must rise strictly with q/s: {medians:?}"
    );
    assert!(
        warehouse.p95 / sweep.baseline < 10.0,
        "§4.1: p95 at 1,600 q/s is {:.2}× the baseline",
        warehouse.p95 / sweep.baseline
    );
}

/// Fig. 9 / Table 5 (§4.2), one week of each building: the border's
/// proactive FIB follows presence (day above night), an edge's reactive
/// FIB is below the border's, and the saving is larger in building B.
/// The paper's edge day/night relation (day above night) is not
/// reproduced, so it is not asserted (ROADMAP item 11).
#[test]
fn table5_edges_hold_a_fraction_of_the_border_state_that_follows_presence() {
    let [a, b] = [CampusParams::building_a(), CampusParams::building_b()]
        .map(|p| table5(CampusParams { days: 7, ..p }));
    for r in [&a, &b] {
        let bldg = r.building;
        assert!(
            r.border.day > r.border.night,
            "building {bldg}: border day {:.0} ≤ night {:.0}",
            r.border.day,
            r.border.night
        );
        assert!(
            r.edge.all < r.border.all,
            "building {bldg}: edge {:.0} ≥ border {:.0}",
            r.edge.all,
            r.border.all
        );
    }
    let decrease = |r: &Table5Row| 1.0 - r.edge.all / r.border.all;
    assert!(
        decrease(&b) > decrease(&a),
        "Table 5: B's edge-vs-border decrease {:.2} ≤ A's {:.2}",
        decrease(&b),
        decrease(&a)
    );
}

#[test]
fn reactive_state_stays_a_fraction_of_proactive_state() {
    // The Fig. 9 headline at a synthetic scale: with traffic locality,
    // edge caches stay well below the full table the border carries.
    let n_edges = 20;
    let n_endpoints = 400;

    let mut b = FabricBuilder::new(88);
    let vn = b.add_vn(1, Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap());
    let g = GroupId(1);
    b.allow(vn, g, g);
    let edges: Vec<_> = (0..n_edges).map(|i| b.add_edge(format!("e{i}"))).collect();
    let border = b.add_border("border", vec![]);
    let endpoints: Vec<_> = (0..n_endpoints).map(|_| b.mint_endpoint(vn, g)).collect();
    let mut f = b.build();
    let mut rng = SmallRng::seed_from_u64(5);

    for (i, ep) in endpoints.iter().enumerate() {
        f.attach_at(SimTime::ZERO, edges[i % n_edges], *ep, PortId(i as u16));
    }
    f.run_until(SimTime::ZERO + SimDuration::from_secs(2));

    // Localized traffic: every endpoint talks to ~6 popular servers.
    let start = SimTime::ZERO + SimDuration::from_secs(3);
    for (i, ep) in endpoints.iter().enumerate() {
        for k in 0..3 {
            let server = &endpoints[rng.gen_range(0..12)];
            let at = start + SimDuration::from_secs_f64(rng.gen::<f64>() * 5.0);
            f.send_at(
                at,
                edges[i % n_edges],
                ep.mac,
                Eid::V4(server.ipv4),
                300,
                (i * 10 + k) as u64,
                false,
            );
        }
    }
    f.run_until(start + SimDuration::from_secs(20));

    let border_fib = f.border(border).fib_len_v4();
    assert_eq!(border_fib, n_endpoints, "border carries the full table");
    let max_edge_fib = edges.iter().map(|e| f.edge(*e).fib_len_v4()).max().unwrap();
    let avg_edge_fib: f64 = edges
        .iter()
        .map(|e| f.edge(*e).fib_len_v4() as f64)
        .sum::<f64>()
        / n_edges as f64;
    assert!(
        (avg_edge_fib as usize) * 5 < border_fib,
        "reactive edges must carry a small fraction: avg={avg_edge_fib:.1} border={border_fib}"
    );
    assert!(max_edge_fib < border_fib);
}

/// Fig. 11 (§4.3): both control planes restore every measured handover,
/// and the reactive plane's delay CDF lies at or left of the proactive
/// one's at every plotted point.
#[test]
fn fig11_lisp_handovers_are_never_slower_than_bgp() {
    let params = WarehouseParams::small();
    let h = fig11(&params);
    let planned = params.measured_moves;
    assert_eq!(h.lisp.len(), planned, "LISP left handovers unrestored");
    assert_eq!(h.bgp.len(), planned, "BGP left handovers unrestored");
    let (lisp, bgp) = (Summary::cdf(&h.lisp, 20), Summary::cdf(&h.bgp, 20));
    for (l, b) in lisp.iter().zip(&bgp) {
        assert!(
            l.0 <= b.0,
            "Fig. 11: at {:.2} LISP {:.2} ms > BGP {:.2} ms",
            l.1,
            l.0 * 1e3,
            b.0 * 1e3
        );
    }
}

/// Fig. 12 (§5.3): drops are rare — under 1 ‰ on every device — and the
/// VPN gateway's remote users drop most, then the branch, then campus.
#[test]
fn fig12_drops_are_rare_and_ordered_vpn_branch_campus() {
    let rows = fig12(&PROFILES);
    assert!(
        rows[0].permille > rows[1].permille && rows[1].permille > rows[2].permille,
        "Fig. 12: order VPN > Branch > Campus broken: {:?}",
        rows.iter().map(|r| r.permille).collect::<Vec<_>>()
    );
    for r in &rows {
        assert!(r.permille < 1.0, "{}: {:.3} ‰", r.name, r.permille);
    }
}

/// §3.2.2: the synced border absorbs every cache miss; without it cold
/// flows lose their head packets.
#[test]
fn border_sync_removes_first_packet_loss() {
    let [with, without] = ablation_border_sync();
    assert_eq!(with.first_packet_drops, 0, "border sync must absorb misses");
    assert!(
        without.first_packet_drops > 0,
        "the ablation must show the loss"
    );
    assert!(with.delivered > without.delivered);
}

/// §5.3: egress enforcement needs fewer rules per edge; it drops at the
/// destination's edge, ingress at the source's, and ingress carries
/// fewer overlay bytes.
#[test]
fn egress_enforcement_trades_bandwidth_for_state() {
    let [egress, ingress] = ablation_enforcement_point();
    assert!(
        egress.rules_per_edge < ingress.rules_per_edge,
        "rules per edge: egress {} ≥ ingress {}",
        egress.rules_per_edge,
        ingress.rules_per_edge
    );
    assert_eq!(
        egress.drops, egress.denied_to,
        "egress drops off the destination"
    );
    assert_eq!(
        ingress.drops, ingress.denied_from,
        "ingress drops off the source"
    );
    assert!(egress.overlay_bytes > ingress.overlay_bytes);
}

/// §4.1: sharding relieves the request path — request p95 falls from 1
/// to 4 shards and never rises on the way — while the median request,
/// which never waits, stays put.
#[test]
fn sharding_relieves_request_tail_not_median() {
    let rows = ablation_sharding();
    let p95: Vec<f64> = rows.iter().map(|r| r.request.p95).collect();
    assert!(p95.windows(2).all(|w| w[1] <= w[0]), "p95 rose: {p95:?}");
    assert!(
        p95[rows.len() - 1] < p95[0],
        "4 shards did not help: {p95:?}"
    );
    let p50: Vec<f64> = rows.iter().map(|r| r.request.p50).collect();
    assert!(
        p50.iter().all(|m| (m - p50[0]).abs() < 1e-9),
        "p50 moved: {p50:?}"
    );
}

/// §5.4: which strategy is cheaper depends on the group — the sweep has
/// cells of both kinds.
#[test]
fn policy_update_sweep_has_cells_of_both_strategies() {
    let cheaper: Vec<UpdateStrategy> = (ablation_policy_update().sweep.iter())
        .flat_map(|(_, cells)| cells.iter().map(|cell| cell.2))
        .collect();
    assert!(
        cheaper.contains(&UpdateStrategy::MoveEndpoints),
        "no M cell"
    );
    assert!(cheaper.contains(&UpdateStrategy::RewriteRules), "no R cell");
}

/// §5.4's playbooks: an acquisition rewrites rules, a service insertion
/// moves (retags) endpoints.
#[test]
fn policy_update_playbooks_pick_the_papers_strategy() {
    let c = ablation_policy_update();
    assert_eq!(c.acquisition.2, UpdateStrategy::RewriteRules);
    assert_eq!(c.service_insertion.2, UpdateStrategy::MoveEndpoints);
}
