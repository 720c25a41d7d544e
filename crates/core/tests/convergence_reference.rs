//! Differential test of the in-place [`check_convergence`] against the
//! map-building checker it replaced, frozen in
//! `reference/convergence.rs`: a reduced chaos campaign is stepped one
//! simulated second at a time and the two reports must be equal field
//! for field at every step.
//!
//! The other campaigns only ever assert `converged()` — eight zeros at
//! the end of the quiet tail. Mid-storm every field is non-zero
//! (asserted below), and that is where a miscounted `db_missing`
//! (derived as `expected − rows found`) or `border_diffs` (derived as
//! `db − same + extra`) would show.
//!
//! The campaign never leaves an expired registration unswept, a border
//! row the database lacks or a covering prefix in anyone's cache;
//! `planted_divergences` puts each there by hand, one at a time, on a
//! quiet six-endpoint fabric and names the report it must produce.

use std::net::Ipv4Addr;

use sda_core::controller::{BorderHandle, EdgeHandle, Fabric, FabricBuilder};
use sda_core::{check_convergence, ConvergenceReport, ExpectedPlacement, FabricMsg};
use sda_simnet::{NodeId, SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, Ipv4Prefix, PortId, Rloc, VnId};
use sda_wire::lisp::Message;
use sda_workloads::{ChaosParams, ChaosScenario};

#[path = "reference/convergence.rs"]
mod reference;

/// End of the campaign's run (`sda_workloads::chaos`'s `t::END`).
const END_SECS: u64 = 99;
/// Its roam window (`t::ROAM_FROM..t::ROAM_TO`).
const ROAM_SECS: (u64, u64) = (33, 39);

fn reports_agree_at_every_second(params: ChaosParams) {
    let mut scenario = ChaosScenario::build(params);
    let expected = scenario.expected();
    // The campaign never registers anything its placement lacks, so
    // `db_extra` needs a placement with holes in it.
    let thinned: ExpectedPlacement = expected
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, (key, rloc))| (*key, *rloc))
        .collect();
    // Which fields were ever non-zero, in declaration order.
    let mut seen = [false; 8];
    let mut last = ConvergenceReport::default();
    // One simulated second at a time — and one millisecond at a time
    // through the roam window, where a border row that maps an EID to
    // its *old* edge (the database already moved on, the publish is in
    // flight) lives for well under a second.
    let millis = |from: u64, to: u64, step: usize| (from * 1_000..to * 1_000).step_by(step);
    let instants = millis(0, ROAM_SECS.0, 1_000)
        .chain(millis(ROAM_SECS.0, ROAM_SECS.1, 1))
        .chain(millis(ROAM_SECS.1, END_SECS + 1, 1_000));
    for ms in instants {
        scenario
            .fabric
            .run_until(SimTime::from_nanos(ms * 1_000_000));
        for placement in [&thinned, &expected] {
            let got = check_convergence(&scenario.fabric, placement);
            let want = reference::check_convergence(&scenario.fabric, placement);
            assert_eq!(got, want, "at t = {ms} ms");
            let fields = [
                got.stuck_resolving,
                got.stuck_registers,
                got.stuck_subscribes,
                got.db_missing,
                got.db_wrong_rloc,
                got.db_extra,
                got.border_diffs,
                got.edge_cache_mismatches,
            ];
            for (seen, value) in seen.iter_mut().zip(fields) {
                *seen |= value != 0;
            }
            last = got;
        }
    }
    // Every field was exercised away from zero, or the equality above
    // is hollow.
    assert_eq!(seen, [true; 8], "a field stayed 0 all campaign");
    assert!(last.converged(), "campaign ends converged: {last:?}");
}

#[test]
fn single_server_campaign() {
    reports_agree_at_every_second(ChaosParams::reduced());
}

#[test]
fn four_shard_overload_campaign() {
    reports_agree_at_every_second(ChaosParams {
        name: "shard-reduced",
        ..ChaosParams::reduced().with_overload(4)
    });
}

/// A quiet fabric to plant divergences on: three edges, two borders,
/// six endpoints onboarded, and neither refreshes nor expiry sweeps, so
/// a registration that lapses stays where it is.
struct Quiet {
    fabric: Fabric,
    vn: VnId,
    expected: ExpectedPlacement,
}

impl Quiet {
    fn build(shards: usize) -> Self {
        let mut b = FabricBuilder::new(7);
        let vn = b.add_vn(100, subnet());
        b.allow(vn, GroupId(10), GroupId(10));
        let edges: Vec<EdgeHandle> = (0..3).map(|i| b.add_edge(format!("edge{i}"))).collect();
        for i in 0..2 {
            b.add_border(format!("border{i}"), vec![]);
        }
        let endpoints: Vec<_> = (0..6).map(|_| b.mint_endpoint(vn, GroupId(10))).collect();
        let cfg = b.config_mut();
        cfg.ctrl_shards = shards;
        cfg.refresh_interval = None;
        cfg.purge_interval = None;
        let mut fabric = b.build();
        let mut expected = ExpectedPlacement::new();
        for (i, endpoint) in endpoints.iter().enumerate() {
            let edge = edges[i % edges.len()];
            fabric.attach_at(
                SimTime::from_nanos(1_000_000),
                edge,
                *endpoint,
                PortId(i as u16),
            );
            let rloc = fabric.edge(edge).rloc();
            expected.insert((vn, Eid::V4(endpoint.ipv4)), rloc);
            expected.insert((vn, Eid::Mac(endpoint.mac)), rloc);
        }
        fabric.run_until(SimTime::from_nanos(5_000_000_000));
        Quiet {
            fabric,
            vn,
            expected,
        }
    }

    /// Hands `msg` to `to` now and lets what it sets off settle.
    fn deliver(&mut self, to: NodeId, msg: Message) {
        let now = self.fabric.now();
        self.fabric
            .sim_mut()
            .inject_at(now, to, FabricMsg::Control(msg));
        self.fabric.run_until(now + SimDuration::from_millis(100));
    }

    fn register(&mut self, eid: Eid, rloc: Rloc, ttl_secs: u32) {
        let msg = Message::MapRegister {
            nonce: 0,
            vn: self.vn,
            eid,
            rloc,
            ttl_secs,
            want_notify: false,
        };
        self.deliver(self.fabric.routing_node(), msg);
    }

    /// A publish border 0 takes as the next word of a stream it is in
    /// step with: stamped with the VN's watermark, it trips neither the
    /// gap nor the regression check, so no resync comes to clean it up.
    fn publish_to_border(&mut self, eid: Eid, rloc: Rloc) {
        let msg = Message::Publish {
            nonce: self.fabric.routing_server().server().pubsub_seq(self.vn),
            vn: self.vn,
            prefix: EidPrefix::host(eid),
            rloc,
            withdraw: false,
        };
        self.deliver(self.fabric.border_node(BorderHandle(0)), msg);
    }

    /// An expected key, where it is and an edge where it is not.
    fn victim(&self) -> (Eid, Rloc, Rloc) {
        let (&(_, eid), &home) = self.expected.iter().next().unwrap();
        let elsewhere = (0..3)
            .map(|e| self.fabric.edge(EdgeHandle(e)).rloc())
            .find(|r| *r != home)
            .unwrap();
        (eid, home, elsewhere)
    }
}

/// The VN's overlay subnet.
fn subnet() -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, 100, 0, 0), 16).unwrap()
}

/// An address of that subnet no endpoint was given.
const STRANGER: Eid = Eid::V4(Ipv4Addr::new(10, 100, 200, 200));

#[test]
fn planted_divergences() {
    type Plant = fn(&mut Quiet);
    let table: [(&str, Plant, ConvergenceReport); 7] = [
        (
            "a registration no endpoint accounts for",
            |q| q.register(STRANGER, q.victim().1, 3600),
            ConvergenceReport {
                db_extra: 1,
                ..Default::default()
            },
        ),
        (
            // The server tells the edge it took the EID from, which
            // points its own cache at the usurper (Fig. 5).
            "a registration at the wrong edge",
            |q| q.register(q.victim().0, q.victim().2, 3600),
            ConvergenceReport {
                db_wrong_rloc: 1,
                edge_cache_mismatches: 1,
                ..Default::default()
            },
        ),
        (
            "an endpoint that never registered",
            |q| {
                let home = q.victim().1;
                q.expected.insert((q.vn, STRANGER), home);
            },
            ConvergenceReport {
                db_missing: 1,
                ..Default::default()
            },
        ),
        (
            // Stored is present: the oracle reads the database, not
            // what a Map-Request would be answered.
            "an expired registration nobody swept",
            |q| {
                let (eid, home, _) = q.victim();
                q.register(eid, home, 1);
                let lapsed = q.fabric.now() + SimDuration::from_secs(2);
                q.fabric.run_until(lapsed);
                let server = q.fabric.routing_server().server();
                assert!(server.lookup(q.vn, eid, lapsed).is_none());
                assert!(server.registration(q.vn, eid).unwrap().expired(lapsed));
            },
            ConvergenceReport::default(),
        ),
        (
            "a border row the database lacks",
            |q| q.publish_to_border(STRANGER, q.victim().1),
            ConvergenceReport {
                border_diffs: 1,
                ..Default::default()
            },
        ),
        (
            "a border row mapped elsewhere",
            |q| q.publish_to_border(q.victim().0, q.victim().2),
            ConvergenceReport {
                border_diffs: 1,
                ..Default::default()
            },
        ),
        (
            // Only an edge has a door for one (a border's publish
            // handler takes host prefixes alone): a Map-Reply for the
            // whole subnet, pointing away from every endpoint's home.
            "a covering prefix in a map-cache",
            |q| {
                let msg = Message::MapReply {
                    nonce: 0,
                    vn: q.vn,
                    prefix: EidPrefix::V4(subnet()),
                    rloc: Some(q.victim().2),
                    negative: false,
                    ttl_secs: 3600,
                };
                q.deliver(q.fabric.edge_node(EdgeHandle(0)), msg);
                let cache = q.fabric.edge(EdgeHandle(0)).switch().map_cache();
                assert!(cache.iter().any(|(_, prefix, ..)| !prefix.is_host()));
            },
            ConvergenceReport::default(),
        ),
    ];
    for shards in [1, 4] {
        let quiet = Quiet::build(shards);
        let at_rest = check_convergence(&quiet.fabric, &quiet.expected);
        assert!(at_rest.converged(), "{shards} shards, nothing planted");
        for (what, plant, want) in &table {
            let mut q = Quiet::build(shards);
            plant(&mut q);
            let got = check_convergence(&q.fabric, &q.expected);
            assert_eq!(&got, want, "{shards} shards: {what}");
            let reference = reference::check_convergence(&q.fabric, &q.expected);
            assert_eq!(got, reference, "{shards} shards: {what}");
        }
    }
}
