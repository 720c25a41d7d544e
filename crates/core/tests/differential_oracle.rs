//! The differential oracle harness: generated packet populations are
//! replayed through **both** data-plane implementations — the byte
//! engine (`sda_dataplane::Switch`) and the structured decision model
//! (`reference/pipeline.rs`'s `oracle`, built on the historical pure
//! `ingress`/`egress` functions) — and every packet's verdict and punt
//! list must agree exactly.
//!
//! The two sides share state (the oracle reads the switch's own
//! `SharedTables`) but no decision code, so any divergence in
//! forwarding semantics fails loudly here. The populations cover every
//! class the fabric sees: local delivery (allowed/denied), remote
//! hit/stale/expired, self-pointing mappings, misses with and without
//! the default route, external prefixes, L2 (MAC-EID) flows, frames
//! sent with either outer-checksum policy, both §5.3 enforcement
//! points, TTL expiry, spoofed and unknown sources, truncations and raw
//! garbage.
//!
//! This harness is what flushed out (and now pins) the historical
//! simulator/engine divergences: the hardcoded full-vs-zero outer UDP
//! checksum and the off-by-one outer-TTL conventions.

use std::net::Ipv4Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_dataplane::{
    encap, DropReason, InnerProto, LocalEndpoint, OuterChecksum, PacketBuf, Punt, Switch,
    SwitchConfig, Verdict,
};
use sda_policy::{Action, ConnectivityMatrix, EnforcementPoint};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, Ipv4Prefix, MacAddr, PortId, Rloc, VnId};
use sda_wire::{ethernet, ipv4, EtherType};

// Each includer calls its own part of the references.
#[allow(dead_code)]
mod reference;
use reference::pipeline::oracle;

const USERS: GroupId = GroupId(10);
const INFRA: GroupId = GroupId(20);
const DENIED: GroupId = GroupId(66);

fn vn(n: u32) -> VnId {
    VnId::new(n).unwrap()
}

fn ep(seed: u32, group: GroupId) -> LocalEndpoint {
    LocalEndpoint {
        port: PortId(seed as u16),
        group,
        mac: MacAddr::from_seed(seed),
        ipv4: Ipv4Addr::new(10, 0, (seed >> 8) as u8, seed as u8),
    }
}

/// The fixture: one switch plus the addresses its population spans.
struct World {
    switch: Switch,
    now: SimTime,
    locals: Vec<LocalEndpoint>,
    /// (ip, rloc) remote L3 endpoints with a live mapping.
    remote_hit: Vec<Ipv4Addr>,
    remote_stale: Vec<Ipv4Addr>,
    remote_expired: Vec<Ipv4Addr>,
    remote_self: Ipv4Addr,
    remote_mac: MacAddr,
    unknown_ip: Ipv4Addr,
    external_ip: Ipv4Addr,
}

fn build_world(cfg: SwitchConfig, externals: bool) -> World {
    let mut switch = Switch::new(cfg);
    if externals {
        switch.add_external(Ipv4Prefix::new(Ipv4Addr::new(93, 184, 0, 0), 16).unwrap());
    }

    let ttl = SimDuration::from_secs(3600);
    let t0 = SimTime::ZERO;
    let now = t0 + SimDuration::from_secs(60);

    let mut locals = Vec::new();
    for i in 0..6u32 {
        let group = match i % 3 {
            0 => USERS,
            1 => INFRA,
            _ => DENIED,
        };
        let e = ep(1 + i, group);
        switch.attach(vn(1 + (i & 1)), e);
        switch.install_dst_hint(vn(1 + (i & 1)), Eid::V4(e.ipv4), group);
        switch.install_dst_hint(vn(1 + (i & 1)), Eid::Mac(e.mac), group);
        locals.push(e);
    }

    let mut remote_hit = Vec::new();
    let mut remote_stale = Vec::new();
    let mut remote_expired = Vec::new();
    for i in 0..4u32 {
        for v in [vn(1), vn(2)] {
            let hit = Ipv4Addr::new(10, 9, 1, i as u8);
            let stale = Ipv4Addr::new(10, 9, 2, i as u8);
            let expired = Ipv4Addr::new(10, 9, 3, i as u8);
            let rloc = Rloc::for_router_index(7 + i as u16);
            switch.install_mapping(v, EidPrefix::host(Eid::V4(hit)), rloc, ttl, t0);
            switch.install_mapping(v, EidPrefix::host(Eid::V4(stale)), rloc, ttl, t0);
            switch.receive_smr(v, Eid::V4(stale), t0);
            // Expires at t0+10s — dead by `now`.
            switch.install_mapping(
                v,
                EidPrefix::host(Eid::V4(expired)),
                rloc,
                SimDuration::from_secs(10),
                t0,
            );
            switch.install_dst_hint(v, Eid::V4(hit), if i % 2 == 0 { INFRA } else { DENIED });
            switch.install_dst_hint(v, Eid::V4(stale), INFRA);
            if v == vn(1) {
                remote_hit.push(hit);
                remote_stale.push(stale);
                remote_expired.push(expired);
            }
        }
    }
    // A mapping pointing back at this switch (stale sync).
    let remote_self = Ipv4Addr::new(10, 9, 4, 1);
    let self_rloc = switch.config().rloc;
    switch.install_mapping(
        vn(1),
        EidPrefix::host(Eid::V4(remote_self)),
        self_rloc,
        ttl,
        t0,
    );
    // A remote L2 endpoint.
    let remote_mac = MacAddr::from_seed(900);
    switch.install_mapping(
        vn(1),
        EidPrefix::host(Eid::Mac(remote_mac)),
        Rloc::for_router_index(11),
        ttl,
        t0,
    );
    switch.install_dst_hint(vn(1), Eid::Mac(remote_mac), INFRA);

    let mut m = ConnectivityMatrix::new();
    for v in [vn(1), vn(2)] {
        for src in [USERS, INFRA] {
            for dst in [USERS, INFRA] {
                m.set_rule(v, src, dst, Action::Allow);
            }
        }
        // DENIED group: no allow rules in either direction.
        m.set_rule(v, USERS, DENIED, Action::Deny);
    }
    switch.install_matrix(&m);

    World {
        switch,
        now,
        locals,
        remote_hit,
        remote_stale,
        remote_expired,
        remote_self,
        remote_mac,
        unknown_ip: Ipv4Addr::new(10, 200, 0, 1),
        external_ip: Ipv4Addr::new(93, 184, 216, 34),
    }
}

/// An Ethernet/IPv4 frame from `src` toward `dst_ip` (optionally
/// spoofing the inner source address).
fn l3_frame(src: &LocalEndpoint, spoof: Option<Ipv4Addr>, dst_ip: Ipv4Addr) -> Vec<u8> {
    let inner = ipv4::Repr {
        src: spoof.unwrap_or(src.ipv4),
        dst: dst_ip,
        protocol: ipv4::Protocol::Unknown(253),
        payload_len: 32,
        ttl: 64,
    };
    let mut buf = vec![0u8; ethernet::HEADER_LEN + inner.buffer_len()];
    ethernet::Repr {
        dst: MacAddr::BROADCAST,
        src: src.mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
    inner.emit(&mut ipv4::Packet::new_unchecked(
        &mut buf[ethernet::HEADER_LEN..],
    ));
    buf
}

/// A unicast L2 frame from `src` toward `dst_mac`.
fn l2_frame(src_mac: MacAddr, dst_mac: MacAddr) -> Vec<u8> {
    let mut buf = vec![0u8; ethernet::HEADER_LEN + 28];
    ethernet::Repr {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Arp,
    }
    .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
    buf
}

/// One generated ingress frame (biased toward the interesting classes).
fn gen_ingress_frame(w: &World, rng: &mut SmallRng) -> Vec<u8> {
    let src = w.locals[rng.gen_range(0..w.locals.len())];
    match rng.gen_range(0..14) {
        // Local deliveries (allowed and denied pairs both occur because
        // sources and destinations span USERS/INFRA/DENIED).
        0 | 1 => l3_frame(&src, None, w.locals[rng.gen_range(0..w.locals.len())].ipv4),
        2 | 3 => l3_frame(
            &src,
            None,
            w.remote_hit[rng.gen_range(0..w.remote_hit.len())],
        ),
        4 => l3_frame(
            &src,
            None,
            w.remote_stale[rng.gen_range(0..w.remote_stale.len())],
        ),
        5 => l3_frame(
            &src,
            None,
            w.remote_expired[rng.gen_range(0..w.remote_expired.len())],
        ),
        6 => l3_frame(&src, None, w.remote_self),
        7 => l3_frame(&src, None, w.unknown_ip),
        8 => l3_frame(&src, None, w.external_ip),
        // Spoofed inner source.
        9 => l3_frame(&src, Some(Ipv4Addr::new(10, 3, 3, 3)), w.unknown_ip),
        // Unknown source MAC.
        10 => l3_frame(&ep(777, USERS), None, w.unknown_ip),
        // L2: local, remote, broadcast.
        11 => {
            let dst = if rng.gen() {
                w.locals[rng.gen_range(0..w.locals.len())].mac
            } else {
                w.remote_mac
            };
            l2_frame(src.mac, dst)
        }
        12 => l2_frame(src.mac, MacAddr::BROADCAST),
        // Truncations and garbage.
        _ => {
            if rng.gen() {
                let f = l3_frame(&src, None, w.unknown_ip);
                let cut = rng.gen_range(0..f.len());
                f[..cut].to_vec()
            } else {
                (0..rng.gen_range(0..64)).map(|_| rng.gen::<u8>()).collect()
            }
        }
    }
}

/// One generated underlay packet for the egress direction.
fn gen_egress_wire(w: &World, cfg: &SwitchConfig, rng: &mut SmallRng) -> Vec<u8> {
    let to_self = rng.gen_range(0..10) != 0;
    let outer_dst = if to_self {
        cfg.rloc
    } else {
        Rloc::for_router_index(555)
    };
    let checksum = if rng.gen() {
        OuterChecksum::Full
    } else {
        OuterChecksum::Zero
    };
    let ttl = *[1u8, 2, 8].get(rng.gen_range(0..3)).unwrap();
    let policy_applied = rng.gen_range(0..4) == 0;
    let group = *[USERS, INFRA, DENIED].get(rng.gen_range(0..3)).unwrap();

    // Inner payload: an IPv4 packet toward one of the world's
    // destination classes, or an Ethernet frame (L2), or garbage.
    let (inner, proto): (Vec<u8>, InnerProto) = match rng.gen_range(0..8) {
        7 => (
            l2_frame(MacAddr::from_seed(1), w.remote_mac),
            InnerProto::Ethernet,
        ),
        6 => (
            l2_frame(
                MacAddr::from_seed(1),
                w.locals[rng.gen_range(0..w.locals.len())].mac,
            ),
            InnerProto::Ethernet,
        ),
        5 => ((0..10).map(|_| rng.gen::<u8>()).collect(), InnerProto::Ipv4),
        k => {
            let dst_ip = match k {
                0 => w.locals[rng.gen_range(0..w.locals.len())].ipv4,
                1 => w.remote_hit[rng.gen_range(0..w.remote_hit.len())],
                2 => w.remote_stale[rng.gen_range(0..w.remote_stale.len())],
                3 => w.external_ip,
                _ => w.unknown_ip,
            };
            let inner_repr = ipv4::Repr {
                src: Ipv4Addr::new(10, 77, 0, 1),
                dst: dst_ip,
                protocol: ipv4::Protocol::Unknown(253),
                payload_len: 24,
                ttl: 64,
            };
            let mut b = vec![0u8; inner_repr.buffer_len()];
            inner_repr.emit(&mut ipv4::Packet::new_unchecked(&mut b[..]));
            (b, InnerProto::Ipv4)
        }
    };
    let mut wire = vec![0u8; encap::UNDERLAY_OVERHEAD + inner.len()];
    wire[encap::UNDERLAY_OVERHEAD..].copy_from_slice(&inner);
    encap::write_underlay(
        &mut wire,
        &encap::EncapParams {
            outer_src: Rloc::for_router_index(3),
            outer_dst,
            vn: vn(1 + (rng.gen::<u32>() & 1)),
            group,
            policy_applied,
            ttl,
            src_port: 50_000,
            udp_checksum: checksum,
            inner_proto: proto,
        },
    )
    .unwrap();
    if rng.gen_range(0..8) == 0 {
        let cut = rng.gen_range(0..wire.len());
        wire.truncate(cut);
    }
    wire
}

/// The config matrix: every combination that changes decision logic.
fn configs() -> Vec<(&'static str, SwitchConfig, bool)> {
    let rloc = Rloc::for_router_index(1);
    let border = Some(Rloc::for_router_index(99));
    let mut edge = SwitchConfig::new(rloc);
    edge.border = border;

    let mut edge_ablation = edge;
    edge_ablation.miss_default_route = false;

    let mut edge_ingress_enf = edge;
    edge_ingress_enf.enforcement = EnforcementPoint::Ingress;

    let mut border_cfg = SwitchConfig::new(Rloc::for_router_index(1));
    border_cfg.border = None;
    border_cfg.default_action = Action::Allow;

    vec![
        ("edge/zero-checksum", edge, false),
        ("edge/no-default-route", edge_ablation, false),
        ("edge/ingress-enforcement", edge_ingress_enf, false),
        ("border/externals", border_cfg, true),
    ]
}

/// Drives `n` packets one at a time through predictor + engine,
/// asserting agreement packet for packet and punt for punt.
fn run_direction(name: &str, cfg: SwitchConfig, externals: bool, seed: u64, ingress: bool, n: u32) {
    let mut w = build_world(cfg, externals);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut buf = PacketBuf::new();
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..n {
        let bytes = if ingress {
            gen_ingress_frame(&w, &mut rng)
        } else {
            gen_egress_wire(&w, w.switch.config(), &mut rng)
        };
        let cfg = *w.switch.config();
        let (pred_v, pred_p) = if ingress {
            oracle::predict_ingress(&cfg, w.switch.tables(), &bytes, w.now)
        } else {
            oracle::predict_egress(&cfg, w.switch.tables(), &bytes, w.now)
        };
        assert!(buf.load(&bytes));
        let got_v = if ingress {
            w.switch
                .process_ingress(std::slice::from_mut(&mut buf), w.now)[0]
        } else {
            w.switch
                .process_egress(std::slice::from_mut(&mut buf), w.now)[0]
        };
        let mut got_p = Vec::new();
        w.switch.drain_punts_into(&mut got_p);
        assert_eq!(
            got_v, pred_v,
            "[{name}] packet {i}: engine verdict {got_v:?} != oracle {pred_v:?} ({bytes:02x?})"
        );
        assert_eq!(
            got_p, pred_p,
            "[{name}] packet {i}: engine punts {got_p:?} != oracle {pred_p:?}"
        );
        seen.insert(match got_v {
            Verdict::Forward { .. } => 0u8,
            Verdict::Deliver { .. } => 1,
            Verdict::DeliverExternal => 2,
            Verdict::Drop(_) => 3,
        });
    }
    // Guard against the population degenerating (e.g. everything
    // malformed): each run must exercise several verdict classes.
    assert!(
        seen.len() >= 3,
        "[{name}] population too narrow: only {} verdict classes",
        seen.len()
    );
}

#[test]
fn ingress_verdicts_agree_across_configs() {
    for (i, (name, cfg, externals)) in configs().into_iter().enumerate() {
        run_direction(name, cfg, externals, 0xD1F + i as u64, true, 600);
    }
}

#[test]
fn egress_verdicts_agree_across_configs() {
    for (i, (name, cfg, externals)) in configs().into_iter().enumerate() {
        run_direction(name, cfg, externals, 0xE6E + i as u64, false, 600);
    }
}

/// Batched processing decides exactly like packet-at-a-time: per-packet
/// oracle predictions must match the batch's verdict vector, and the
/// batch punt queue must equal the concatenated predictions with the
/// engine's consecutive-duplicate collapse applied.
#[test]
fn batched_ingress_agrees_with_per_packet_oracle() {
    let (_, cfg, _) = configs().remove(0);
    let mut w = build_world(cfg, false);
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    for round in 0..40 {
        let frames: Vec<Vec<u8>> = (0..16).map(|_| gen_ingress_frame(&w, &mut rng)).collect();
        let cfg = *w.switch.config();
        let mut pred_vs = Vec::new();
        let mut pred_ps: Vec<Punt> = Vec::new();
        for f in &frames {
            let (v, ps) = oracle::predict_ingress(&cfg, w.switch.tables(), f, w.now);
            pred_vs.push(v);
            for p in ps {
                // The engine collapses consecutive duplicate punts.
                if pred_ps.last() != Some(&p) {
                    pred_ps.push(p);
                }
            }
        }
        let mut bufs: Vec<PacketBuf> = frames
            .iter()
            .map(|f| {
                let mut b = PacketBuf::new();
                assert!(b.load(f));
                b
            })
            .collect();
        let got_vs = w.switch.process_ingress(&mut bufs, w.now).to_vec();
        let mut got_ps = Vec::new();
        w.switch.drain_punts_into(&mut got_ps);
        assert_eq!(got_vs, pred_vs, "round {round}: batch verdicts diverged");
        assert_eq!(got_ps, pred_ps, "round {round}: batch punts diverged");
    }
}

/// Enforcement replay against the batched bitset path: one persistent
/// reference `GroupAcl` (seeded from the engine's compiled table's
/// `rules()` before any traffic) shadows every counting decision
/// the engine makes — across batched ingress and egress populations,
/// under both §5.3 enforcement points — and the engine's shared
/// allowed/dropped atomics must equal the model's counters after every
/// batch, not just at the end. This is the counting twin of the verdict
/// tests above: a verdict can agree while the counter discipline
/// (which sites tally, how often) silently diverges; this pins both.
#[test]
fn enforcement_counters_agree_with_model_replay() {
    for (name, cfg, externals) in configs()
        .into_iter()
        .filter(|(n, ..)| *n == "edge/zero-checksum" || *n == "edge/ingress-enforcement")
    {
        let mut w = build_world(cfg, externals);
        let mut rng = SmallRng::seed_from_u64(0xC0C7);
        let mut model_acl = oracle::reference_acl(w.switch.tables().acl());
        assert_eq!(
            w.switch.tables().acl().counters(),
            (0, 0),
            "[{name}] fresh world must start with zeroed enforcement counters"
        );
        for round in 0..40u32 {
            let ingress = round % 2 == 0;
            let frames: Vec<Vec<u8>> = (0..32)
                .map(|_| {
                    if ingress {
                        gen_ingress_frame(&w, &mut rng)
                    } else {
                        gen_egress_wire(&w, w.switch.config(), &mut rng)
                    }
                })
                .collect();
            let cfg = *w.switch.config();
            let pred: Vec<Verdict> = frames
                .iter()
                .map(|f| {
                    let (v, _) = if ingress {
                        oracle::predict_ingress_with_acl(
                            &cfg,
                            w.switch.tables(),
                            &mut model_acl,
                            f,
                            w.now,
                        )
                    } else {
                        oracle::predict_egress_with_acl(
                            &cfg,
                            w.switch.tables(),
                            &mut model_acl,
                            f,
                            w.now,
                        )
                    };
                    v
                })
                .collect();
            let mut bufs: Vec<PacketBuf> = frames
                .iter()
                .map(|f| {
                    let mut b = PacketBuf::new();
                    assert!(b.load(f));
                    b
                })
                .collect();
            let got = if ingress {
                w.switch.process_ingress(&mut bufs, w.now).to_vec()
            } else {
                w.switch.process_egress(&mut bufs, w.now).to_vec()
            };
            w.switch.clear_punts();
            assert_eq!(got, pred, "[{name}] round {round}: batch verdicts diverged");
            assert_eq!(
                w.switch.tables().acl().counters(),
                model_acl.counters(),
                "[{name}] round {round}: engine counters != model replay"
            );
            assert_eq!(
                w.switch.tables().acl().drop_permille(),
                model_acl.drop_permille(),
                "[{name}] round {round}: Fig. 12 drop-permille diverged"
            );
        }
        let (allowed, dropped) = w.switch.tables().acl().counters();
        assert!(
            allowed > 0 && dropped > 0,
            "[{name}] population too narrow: allowed {allowed}, dropped {dropped}"
        );
    }
}

/// The engine only sends zero checksums, yet interoperates with a
/// sender that checksums: its egress delivers a `write_underlay(..,
/// Full)` frame and drops the same frame with one payload bit flipped.
#[test]
fn checksum_policies_interoperate_end_to_end() {
    let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
    cfg.border = Some(Rloc::for_router_index(99));
    let mut w = build_world(cfg, false);
    let dst = w.locals[0];
    let inner = ipv4::Repr {
        src: Ipv4Addr::new(10, 77, 0, 1),
        dst: dst.ipv4,
        protocol: ipv4::Protocol::Unknown(253),
        payload_len: 24,
        ttl: 64,
    };
    let mut wire = vec![0u8; encap::UNDERLAY_OVERHEAD + inner.buffer_len()];
    inner.emit(&mut ipv4::Packet::new_unchecked(
        &mut wire[encap::UNDERLAY_OVERHEAD..],
    ));
    encap::write_underlay(
        &mut wire,
        &encap::EncapParams {
            outer_src: Rloc::for_router_index(3),
            outer_dst: cfg.rloc,
            vn: vn(1),
            group: USERS,
            policy_applied: false,
            ttl: 8,
            src_port: 50_000,
            udp_checksum: OuterChecksum::Full,
            inner_proto: InnerProto::Ipv4,
        },
    )
    .unwrap();
    let mut egress = |bytes: &[u8]| {
        let mut buf = PacketBuf::new();
        assert!(buf.load(bytes));
        w.switch
            .process_egress(std::slice::from_mut(&mut buf), w.now)[0]
    };
    assert_eq!(egress(&wire), Verdict::Deliver { port: dst.port });
    let last = wire.len() - 1;
    wire[last] ^= 0x01;
    assert_eq!(egress(&wire), Verdict::Drop(DropReason::Malformed));
}
