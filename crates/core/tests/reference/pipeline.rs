//! The two-stage forwarding pipelines (Fig. 4) as pure decision
//! functions over structured packets — the body of
//! `sda_core::pipeline` (and `msg.rs`'s `InnerPacket`/`OverlayPacket`)
//! as it stood while the model still lived beside the engine, moved
//! here verbatim apart from `use` paths and how the oracle seeds its
//! ACL (from `CompiledAcl::rules()`).
//!
//! What it is: the reference — an *independent structured model* of
//! what the byte engine must decide.
//!
//! * [`ingress`] / [`egress`] — the historical pure decision functions.
//!   [`oracle`] composes them into full verdict/punt predictions. Two
//!   real divergences were flushed out and fixed this way: the
//!   simulator encoder hardcoded a full outer UDP checksum while the
//!   engine wrote zero (now the engine always sends zero and
//!   [`encap::OuterChecksum`] is a per-encode parameter), and the
//!   simulator decremented its `hops_left` budget at the first encap
//!   while the engine stamps the full budget and
//!   `checked_sub`s only on re-forwards (now unified on the engine's
//!   real-router semantics — never emit a zero TTL, drop when the
//!   decrement would).
//! * [`encode_packet`] / [`decode_packet`] — the structured
//!   [`OverlayPacket`] ⇄ bytes codec (shared `encap` underneath), used
//!   by the oracle tests.
//!
//! What it is not: run by any node. Every data packet in the fabric
//! flows through a per-node [`sda_dataplane::Switch`] as real bytes;
//! `sda_core::pipeline` keeps only the host-frame byte conventions the
//! nodes call, and no production crate names these types (CI greps for
//! them).
//!
//! What holds it: `differential_oracle.rs` replays generated packet
//! populations through both the byte engine and this model and asserts
//! verdict-for-verdict agreement; `prop_pipeline.rs` holds the decision
//! functions to the matrix and the codec to itself;
//! `byte_path_scenario.rs` checks both against a live fabric. It
//! decides with the per-pair `GroupAcl` frozen in
//! `policy/tests/reference/group_acl.rs`, which every includer mounts
//! beside it as `group_acl`. Do not "fix" anything in this file — its
//! behaviour is the specification.

use sda_dataplane::encap::{self, OuterChecksum};
use sda_dataplane::VrfTable;
use sda_policy::{Action, EnforcementPoint};
use sda_types::{Eid, GroupId, PortId, Rloc, VnId};
use sda_wire::ipv4;

use super::group_acl::GroupAcl;

/// The overlay payload the fabric forwards: the parsed form of the
/// inner packet of Fig. 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InnerPacket {
    /// Source endpoint EID.
    pub src: Eid,
    /// Destination endpoint EID.
    pub dst: Eid,
    /// Simulated payload size (bytes) for bandwidth accounting.
    pub payload_len: u16,
    /// Flow identifier (ECMP hashing, dedup in tests).
    pub flow: u64,
    /// When true, delivery is recorded in metrics (measurement hooks).
    pub track: bool,
}

/// A VXLAN-GPO-encapsulated packet in structured form (Fig. 2).
///
/// The byte-accurate equivalent lives in `sda-wire`; the differential
/// tests prove the two agree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OverlayPacket {
    /// VN carried in the VNI field.
    pub vn: VnId,
    /// Source GroupId carried in the GPO group field.
    pub src_group: GroupId,
    /// Policy-applied bit (set by ingress enforcement).
    pub policy_applied: bool,
    /// Remaining fabric hops before the packet is dropped; breaks the
    /// transient border↔rebooted-edge loop of §5.2.
    pub hops_left: u8,
    /// The ingress edge's RLOC (the outer source IP of Fig. 2) —
    /// where data-triggered SMRs are sent (Fig. 6 step 2).
    pub origin: Rloc,
    /// The encapsulated endpoint packet.
    pub inner: InnerPacket,
}

/// What the egress stage decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EgressAction {
    /// Hand the inner packet to the endpoint on this port.
    Deliver {
        /// Output port.
        port: PortId,
        /// Destination group (for accounting).
        dst_group: GroupId,
    },
    /// Group ACL verdict was deny.
    DropPolicy,
    /// The destination is not attached here (mobility / stale routing);
    /// the caller runs the Fig. 6 machinery.
    NotLocal,
}

/// Runs the egress pipeline of Fig. 4 (right half): VRF lookup, then
/// group-ACL exact match.
///
/// `default_action` is the matrix default for unmatched pairs. When the
/// packet's `policy_applied` bit is set (ingress already enforced),
/// the ACL stage is skipped — re-dropping would double-count.
pub fn egress(
    vrf: &VrfTable,
    acl: &mut GroupAcl,
    pkt: &OverlayPacket,
    enforcement: EnforcementPoint,
    default_action: Action,
) -> EgressAction {
    // Stage 1: (VN + overlay destination) lookup in the VRF.
    let Some(ep) = vrf.lookup(pkt.vn, pkt.inner.dst) else {
        return EgressAction::NotLocal;
    };
    // Stage 2: (src GroupId, dst GroupId) exact match.
    let must_enforce = matches!(enforcement, EnforcementPoint::Egress) && !pkt.policy_applied;
    if must_enforce {
        match acl.enforce(pkt.vn, pkt.src_group, ep.group, default_action) {
            Action::Allow => {}
            Action::Deny => return EgressAction::DropPolicy,
        }
    }
    EgressAction::Deliver {
        port: ep.port,
        dst_group: ep.group,
    }
}

/// What the ingress stage decided for a locally originated packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IngressAction {
    /// Destination is attached to this same edge: deliver directly
    /// (the egress stages still ran — ACL included).
    DeliverLocal {
        /// Output port.
        port: PortId,
    },
    /// Encapsulate toward this RLOC.
    Encap {
        /// Destination fabric router.
        to: Rloc,
        /// The packet to transmit.
        packet: OverlayPacket,
    },
    /// No mapping cached: encapsulate toward the border (default route,
    /// §3.2.2) — the caller must also trigger a Map-Request.
    EncapToBorder {
        /// The packet to transmit.
        packet: OverlayPacket,
    },
    /// Ingress-enforcement drop (policy said no before transit).
    DropPolicy,
    /// The sender is not an onboarded endpoint of this edge.
    DropUnknownSource,
}

/// Ingress-enforcement destination-group knowledge: `Some(group)` when
/// this edge knows the destination's group (however it learned it),
/// `None` otherwise. With egress enforcement pass `None`.
pub type DstGroupHint = Option<GroupId>;

/// Runs the ingress pipeline of Fig. 4 (left half) for a packet from an
/// attached endpoint, given the already-classified source binding and
/// the map-cache resolution result.
///
/// `resolved` is what the caller's map-cache said (`Some(rloc)` on
/// hit/stale, `None` on miss). The caller owns cache bookkeeping; this
/// function owns the decision logic so it can be tested exhaustively.
#[allow(clippy::too_many_arguments)]
pub fn ingress(
    vrf: &VrfTable,
    acl: &mut GroupAcl,
    vn: VnId,
    src_group: GroupId,
    inner: InnerPacket,
    resolved: Option<Rloc>,
    enforcement: EnforcementPoint,
    dst_group_hint: DstGroupHint,
    default_action: Action,
    hop_budget: u8,
    self_rloc: Rloc,
) -> IngressAction {
    // Same-edge delivery: run the egress stages locally.
    if vrf.lookup(vn, inner.dst).is_some() {
        let pkt = OverlayPacket {
            vn,
            src_group,
            policy_applied: false,
            hops_left: hop_budget,
            origin: self_rloc,
            inner,
        };
        return match egress(vrf, acl, &pkt, EnforcementPoint::Egress, default_action) {
            EgressAction::Deliver { port, .. } => IngressAction::DeliverLocal { port },
            EgressAction::DropPolicy => IngressAction::DropPolicy,
            EgressAction::NotLocal => unreachable!("lookup succeeded above"),
        };
    }

    // Ingress enforcement (ablation mode): check before spending transit
    // bandwidth, if the destination group is known here.
    let mut policy_applied = false;
    if matches!(enforcement, EnforcementPoint::Ingress) {
        if let Some(dst_group) = dst_group_hint {
            match acl.enforce(vn, src_group, dst_group, default_action) {
                Action::Allow => policy_applied = true,
                Action::Deny => return IngressAction::DropPolicy,
            }
        }
        // Unknown destination group: fall through unenforced. Under
        // ingress enforcement the egress stage does not re-check, so
        // such packets travel (and deliver) unenforced — the signaling
        // gap that makes §5.3 prefer egress enforcement.
    }

    let packet = OverlayPacket {
        vn,
        src_group,
        policy_applied,
        hops_left: hop_budget,
        origin: self_rloc,
        inner,
    };
    match resolved {
        Some(rloc) => IngressAction::Encap { to: rloc, packet },
        None => IngressAction::EncapToBorder { packet },
    }
}

// ---------------------------------------------------------------------
// Byte-accurate encapsulation (Fig. 2), delegated to the forwarding
// engine's shared header codec in `sda_dataplane::encap`.
// ---------------------------------------------------------------------

/// Synthesizes the full on-wire bytes of `pkt` between `outer_src` and
/// `outer_dst`: outer IPv4 / UDP(4789) / VXLAN-GPO / inner IPv4, with
/// an explicit outer-checksum policy (the engine equivalent defaults to
/// [`OuterChecksum::Zero`]; pass [`OuterChecksum::Full`] for the
/// corruption-detecting form). Only IPv4-EID inner packets have this
/// structured byte form (L2 flows carry an Ethernet inner frame — see
/// [`sda_core::pipeline::compose_host_frame`]).
///
/// One allocation total: the inner packet is emitted at its final offset
/// and [`encap::write_underlay`] frames it in place — the same single
/// encoding the batched engine uses on pooled buffers (the seed path
/// built each layer in its own `Vec` and copied inward three times).
pub fn encode_packet(
    outer_src: Rloc,
    outer_dst: Rloc,
    pkt: &OverlayPacket,
    checksum: OuterChecksum,
) -> Option<Vec<u8>> {
    let (Eid::V4(inner_src), Eid::V4(inner_dst)) = (pkt.inner.src, pkt.inner.dst) else {
        return None;
    };

    // Inner IPv4: payload carries (flow, track) then zero padding.
    let meta_len = 9usize;
    let inner_payload_len = meta_len + pkt.inner.payload_len as usize;
    let inner_repr = ipv4::Repr {
        src: inner_src,
        dst: inner_dst,
        protocol: ipv4::Protocol::Unknown(253), // RFC 3692 experimental
        payload_len: inner_payload_len,
        ttl: ipv4::DEFAULT_TTL,
    };
    let mut bytes = vec![0u8; encap::UNDERLAY_OVERHEAD + inner_repr.buffer_len()];
    {
        let mut p = ipv4::Packet::new_unchecked(&mut bytes[encap::UNDERLAY_OVERHEAD..]);
        inner_repr.emit(&mut p);
        let payload = p.payload_mut();
        payload[..8].copy_from_slice(&pkt.inner.flow.to_be_bytes());
        payload[8] = u8::from(pkt.inner.track);
    }

    let params = encap::EncapParams {
        outer_src,
        outer_dst,
        vn: pkt.vn,
        group: pkt.src_group,
        policy_applied: pkt.policy_applied,
        // The fabric hop budget rides the outer TTL.
        ttl: pkt.hops_left,
        // Real encaps hash the inner flow into the source port for ECMP.
        src_port: 49152 + (pkt.inner.flow % 16384) as u16,
        udp_checksum: checksum,
        inner_proto: encap::InnerProto::Ipv4,
    };
    encap::write_underlay(&mut bytes, &params).ok()?;
    Some(bytes)
}

/// Parses bytes produced by [`encode_packet`] back into
/// `(outer_src, outer_dst, packet)`, validating every checksum and
/// header on the way — the egress edge's decapsulation, via the same
/// [`encap::parse_underlay`] the batched engine runs.
pub fn decode_packet(bytes: &[u8]) -> sda_wire::Result<(Rloc, Rloc, OverlayPacket)> {
    let d = encap::parse_underlay(bytes)?;
    let group = d.group.ok_or(sda_wire::Error::Malformed)?;

    let inner = ipv4::Packet::new_checked(d.inner)?;
    let payload = inner.payload();
    if payload.len() < 9 {
        return Err(sda_wire::Error::Truncated);
    }
    let flow = u64::from_be_bytes(payload[..8].try_into().unwrap());
    let track = payload[8] != 0;

    Ok((
        d.outer_src,
        d.outer_dst,
        OverlayPacket {
            vn: d.vn,
            src_group: group,
            policy_applied: d.policy_applied,
            hops_left: d.outer_ttl,
            origin: d.outer_src,
            inner: InnerPacket {
                src: Eid::V4(inner.src_addr()),
                dst: Eid::V4(inner.dst_addr()),
                payload_len: (payload.len() - 9) as u16,
                flow,
                track,
            },
        },
    ))
}

// ---------------------------------------------------------------------
// The differential oracle: structured predictions of engine verdicts.
// ---------------------------------------------------------------------

/// Structured verdict/punt predictions for the byte engine, built from
/// the legacy [`ingress`]/[`egress`] decision functions plus the
/// composition rules the simulator historically applied around them
/// (default route, TTL, externals, SMR punts).
///
/// This is deliberately a *second implementation* of the forwarding
/// semantics: it shares the engine's **state** (the same
/// [`sda_dataplane::SharedTables`]) but none of its code path, so the
/// differential harness comparing the two flushes out any divergence in
/// decision logic — each one found is a bug in whichever side is wrong.
pub mod oracle {
    use sda_dataplane::{encap, DropReason, Punt, SharedTables, SwitchConfig, Verdict};
    use sda_lisp::CacheOutcome;
    use sda_policy::{CompiledAcl, EnforcementPoint};
    use sda_simnet::SimTime;
    use sda_types::{Eid, MacAddr};
    use sda_wire::{ethernet, ipv4, EtherType};

    use super::super::group_acl::GroupAcl;

    use super::{egress, ingress, EgressAction, IngressAction, InnerPacket, OverlayPacket};

    /// Normalizes a cache outcome the way the engine does: a mapping
    /// pointing back at this switch contradicts the VRF (the endpoint
    /// left; forwarding to self would loop) and reads as a miss.
    fn normalize(cfg: &SwitchConfig, o: CacheOutcome) -> CacheOutcome {
        match o {
            CacheOutcome::Hit(r) | CacheOutcome::Stale(r) if r == cfg.rloc => CacheOutcome::Miss,
            o => o,
        }
    }

    /// The reference per-pair ACL holding exactly the engine's rules
    /// (same version, zeroed counters), seeded through the compiled
    /// table's public door.
    pub fn reference_acl(compiled: &CompiledAcl) -> GroupAcl {
        let mut acl = GroupAcl::new();
        acl.install(&compiled.rules());
        acl
    }

    /// Predicts the engine's ingress verdict and punts for one
    /// host-side frame.
    pub fn predict_ingress(
        cfg: &SwitchConfig,
        tables: &SharedTables,
        frame: &[u8],
        now: SimTime,
    ) -> (Verdict, Vec<Punt>) {
        // Decompile into the reference per-pair ACL for the decision —
        // the model stays a second implementation (it never touches the
        // engine's bitset rows), and the prediction must not perturb
        // the shared enforcement counters.
        let mut acl = reference_acl(tables.acl());
        predict_ingress_with_acl(cfg, tables, &mut acl, frame, now)
    }

    /// [`predict_ingress`] against a caller-owned reference ACL, so a
    /// whole-run replay can accumulate the model's enforcement counters
    /// in one place and diff them against the engine's shared atomics.
    pub fn predict_ingress_with_acl(
        cfg: &SwitchConfig,
        tables: &SharedTables,
        acl: &mut GroupAcl,
        frame: &[u8],
        now: SimTime,
    ) -> (Verdict, Vec<Punt>) {
        let mut punts = Vec::new();
        let Ok(eth) = ethernet::Frame::new_checked(frame) else {
            return (Verdict::Drop(DropReason::Malformed), punts);
        };
        let src_mac = eth.src_addr();
        let Some((vn, src_ep)) = tables.vrf().classify(src_mac).map(|(v, e)| (v, *e)) else {
            return (Verdict::Drop(DropReason::UnknownSource), punts);
        };
        let inner = if eth.ethertype() == EtherType::Ipv4 {
            let Ok(ip) = ipv4::Packet::new_checked(eth.payload()) else {
                return (Verdict::Drop(DropReason::Malformed), punts);
            };
            if ip.src_addr() != src_ep.ipv4 {
                // IP source guard (anti-spoofing).
                return (Verdict::Drop(DropReason::UnknownSource), punts);
            }
            InnerPacket {
                src: Eid::V4(ip.src_addr()),
                dst: Eid::V4(ip.dst_addr()),
                payload_len: 0,
                flow: 0,
                track: false,
            }
        } else {
            // L2 flow: the destination MAC is the EID; broadcasts never
            // enter the fabric (the gateway absorbs them in control).
            if eth.dst_addr() == MacAddr::BROADCAST {
                return (Verdict::Drop(DropReason::Unsupported), punts);
            }
            InnerPacket {
                src: Eid::Mac(src_mac),
                dst: Eid::Mac(eth.dst_addr()),
                payload_len: 0,
                flow: 0,
                track: false,
            }
        };

        let outcome = normalize(cfg, tables.map_cache().lookup_shared(vn, inner.dst, now));
        let (resolved, stale) = match outcome {
            CacheOutcome::Hit(r) => (Some(r), false),
            CacheOutcome::Stale(r) => (Some(r), true),
            CacheOutcome::Miss => (None, false),
        };
        // Stale entries defer ingress enforcement to egress (the move
        // may have changed the destination's binding).
        let hint = if matches!(cfg.enforcement, EnforcementPoint::Ingress) && !stale {
            tables.dst_hint(vn, inner.dst)
        } else {
            None
        };
        let action = ingress(
            tables.vrf(),
            acl,
            vn,
            src_ep.group,
            inner,
            resolved,
            cfg.enforcement,
            hint,
            cfg.default_action,
            sda_dataplane::HOP_BUDGET,
            cfg.rloc,
        );
        let verdict = match action {
            IngressAction::DeliverLocal { port } => Verdict::Deliver { port },
            IngressAction::DropPolicy => Verdict::Drop(DropReason::Policy),
            IngressAction::DropUnknownSource => Verdict::Drop(DropReason::UnknownSource),
            IngressAction::Encap { to, .. } => {
                if stale {
                    punts.push(Punt::MapRequest {
                        vn,
                        eid: inner.dst,
                        refresh: true,
                    });
                }
                Verdict::Forward { to }
            }
            IngressAction::EncapToBorder { .. } => {
                punts.push(Punt::MapRequest {
                    vn,
                    eid: inner.dst,
                    refresh: false,
                });
                match cfg.border.filter(|_| cfg.miss_default_route) {
                    Some(border) => Verdict::Forward { to: border },
                    None if tables.external_match(inner.dst) => Verdict::DeliverExternal,
                    None => Verdict::Drop(DropReason::NoRoute),
                }
            }
        };
        (verdict, punts)
    }

    /// Predicts the engine's egress verdict and punts for one underlay
    /// packet.
    pub fn predict_egress(
        cfg: &SwitchConfig,
        tables: &SharedTables,
        wire: &[u8],
        now: SimTime,
    ) -> (Verdict, Vec<Punt>) {
        // Decompiled reference ACL, same reasoning as `predict_ingress`.
        let mut acl = reference_acl(tables.acl());
        predict_egress_with_acl(cfg, tables, &mut acl, wire, now)
    }

    /// [`predict_egress`] against a caller-owned reference ACL (see
    /// [`predict_ingress_with_acl`]).
    pub fn predict_egress_with_acl(
        cfg: &SwitchConfig,
        tables: &SharedTables,
        acl: &mut GroupAcl,
        wire: &[u8],
        now: SimTime,
    ) -> (Verdict, Vec<Punt>) {
        let mut punts = Vec::new();
        let Ok(d) = encap::parse_underlay(wire) else {
            return (Verdict::Drop(DropReason::Malformed), punts);
        };
        if d.outer_dst != cfg.rloc {
            return (Verdict::Drop(DropReason::NotOurs), punts);
        }
        let Some(src_group) = d.group else {
            return (Verdict::Drop(DropReason::Malformed), punts);
        };
        let inner = match d.inner_proto {
            encap::InnerProto::Ipv4 => {
                let Ok(ip) = ipv4::Packet::new_checked(d.inner) else {
                    return (Verdict::Drop(DropReason::Malformed), punts);
                };
                InnerPacket {
                    src: Eid::V4(ip.src_addr()),
                    dst: Eid::V4(ip.dst_addr()),
                    payload_len: 0,
                    flow: 0,
                    track: false,
                }
            }
            encap::InnerProto::Ethernet => {
                let Ok(inner_eth) = ethernet::Frame::new_checked(d.inner) else {
                    return (Verdict::Drop(DropReason::Malformed), punts);
                };
                InnerPacket {
                    src: Eid::Mac(inner_eth.src_addr()),
                    dst: Eid::Mac(inner_eth.dst_addr()),
                    payload_len: 0,
                    flow: 0,
                    track: false,
                }
            }
        };
        let pkt = OverlayPacket {
            vn: d.vn,
            src_group,
            policy_applied: d.policy_applied,
            hops_left: d.outer_ttl,
            origin: d.outer_src,
            inner,
        };
        match egress(tables.vrf(), acl, &pkt, cfg.enforcement, cfg.default_action) {
            EgressAction::Deliver { port, .. } => (Verdict::Deliver { port }, punts),
            EgressAction::DropPolicy => (Verdict::Drop(DropReason::Policy), punts),
            EgressAction::NotLocal => {
                // Fig. 6: data-triggered SMR to the packet's outer
                // source, then forward toward the cached location (or
                // ride the default route like a rebooted edge, §5.2).
                punts.push(Punt::Smr {
                    to: d.outer_src,
                    vn: d.vn,
                    eid: inner.dst,
                });
                let next_hop =
                    match normalize(cfg, tables.map_cache().lookup_shared(d.vn, inner.dst, now)) {
                        CacheOutcome::Hit(r) | CacheOutcome::Stale(r) => r,
                        CacheOutcome::Miss => {
                            punts.push(Punt::MapRequest {
                                vn: d.vn,
                                eid: inner.dst,
                                refresh: false,
                            });
                            match cfg.border {
                                Some(border) => border,
                                None if tables.external_match(inner.dst) => {
                                    return (Verdict::DeliverExternal, punts)
                                }
                                None => return (Verdict::Drop(DropReason::NoRoute), punts),
                            }
                        }
                    };
                // Real-router TTL: decrement, never emit zero.
                if d.outer_ttl <= 1 {
                    (Verdict::Drop(DropReason::TtlExpired), punts)
                } else {
                    (Verdict::Forward { to: next_hop }, punts)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_dataplane::LocalEndpoint;
    use sda_policy::{GroupRule, RuleSubset};
    use sda_types::MacAddr;
    use std::net::Ipv4Addr;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn local(seed: u32, group: u16) -> LocalEndpoint {
        LocalEndpoint {
            port: PortId(seed as u16),
            group: GroupId(group),
            mac: MacAddr::from_seed(seed),
            ipv4: Ipv4Addr::new(10, 0, 0, seed as u8),
        }
    }

    fn allow_rule(v: VnId, s: u16, d: u16) -> RuleSubset {
        RuleSubset {
            version: 1,
            rules: vec![(
                v,
                GroupRule {
                    src: GroupId(s),
                    dst: GroupId(d),
                    action: Action::Allow,
                },
            )],
        }
    }

    fn inner(src: u8, dst: u8, track: bool) -> InnerPacket {
        InnerPacket {
            src: Eid::V4(Ipv4Addr::new(10, 0, 0, src)),
            dst: Eid::V4(Ipv4Addr::new(10, 0, 0, dst)),
            payload_len: 100,
            flow: 42,
            track,
        }
    }

    fn packet(v: VnId, src_group: u16, src: u8, dst: u8) -> OverlayPacket {
        OverlayPacket {
            vn: v,
            src_group: GroupId(src_group),
            policy_applied: false,
            hops_left: 8,
            origin: Rloc::for_router_index(1),
            inner: inner(src, dst, false),
        }
    }

    #[test]
    fn egress_delivers_allowed_traffic() {
        let mut vrf = VrfTable::new();
        vrf.attach(vn(1), local(2, 20));
        let mut acl = GroupAcl::new();
        acl.install(&allow_rule(vn(1), 10, 20));
        let act = egress(
            &vrf,
            &mut acl,
            &packet(vn(1), 10, 1, 2),
            EnforcementPoint::Egress,
            Action::Deny,
        );
        assert_eq!(
            act,
            EgressAction::Deliver {
                port: PortId(2),
                dst_group: GroupId(20)
            }
        );
        assert_eq!(acl.counters(), (1, 0));
    }

    #[test]
    fn egress_drops_denied_traffic() {
        let mut vrf = VrfTable::new();
        vrf.attach(vn(1), local(2, 20));
        let mut acl = GroupAcl::new();
        let act = egress(
            &vrf,
            &mut acl,
            &packet(vn(1), 66, 1, 2),
            EnforcementPoint::Egress,
            Action::Deny,
        );
        assert_eq!(act, EgressAction::DropPolicy);
        assert_eq!(acl.counters(), (0, 1));
    }

    #[test]
    fn egress_not_local_when_vrf_misses() {
        let vrf = VrfTable::new();
        let mut acl = GroupAcl::new();
        let act = egress(
            &vrf,
            &mut acl,
            &packet(vn(1), 10, 1, 2),
            EnforcementPoint::Egress,
            Action::Deny,
        );
        assert_eq!(act, EgressAction::NotLocal);
        assert_eq!(acl.counters(), (0, 0), "ACL must not run before VRF hit");
    }

    #[test]
    fn egress_skips_acl_when_policy_already_applied() {
        let mut vrf = VrfTable::new();
        vrf.attach(vn(1), local(2, 20));
        let mut acl = GroupAcl::new(); // empty: would deny
        let mut pkt = packet(vn(1), 66, 1, 2);
        pkt.policy_applied = true;
        let act = egress(&vrf, &mut acl, &pkt, EnforcementPoint::Egress, Action::Deny);
        assert!(matches!(act, EgressAction::Deliver { .. }));
    }

    #[test]
    fn ingress_local_delivery_still_enforces() {
        let mut vrf = VrfTable::new();
        vrf.attach(vn(1), local(1, 10));
        vrf.attach(vn(1), local(2, 20));
        let mut acl = GroupAcl::new();
        acl.install(&allow_rule(vn(1), 10, 20));
        let act = ingress(
            &vrf,
            &mut acl,
            vn(1),
            GroupId(10),
            inner(1, 2, false),
            None,
            EnforcementPoint::Egress,
            None,
            Action::Deny,
            8,
            Rloc::for_router_index(1),
        );
        assert_eq!(act, IngressAction::DeliverLocal { port: PortId(2) });
        // Reverse direction lacks a rule: denied locally.
        let act = ingress(
            &vrf,
            &mut acl,
            vn(1),
            GroupId(20),
            inner(2, 1, false),
            None,
            EnforcementPoint::Egress,
            None,
            Action::Deny,
            8,
            Rloc::for_router_index(1),
        );
        assert_eq!(act, IngressAction::DropPolicy);
    }

    #[test]
    fn ingress_encapsulates_on_cache_hit() {
        let vrf = VrfTable::new();
        let mut acl = GroupAcl::new();
        let target = Rloc::for_router_index(7);
        let act = ingress(
            &vrf,
            &mut acl,
            vn(1),
            GroupId(10),
            inner(1, 9, false),
            Some(target),
            EnforcementPoint::Egress,
            None,
            Action::Deny,
            8,
            Rloc::for_router_index(1),
        );
        match act {
            IngressAction::Encap { to, packet } => {
                assert_eq!(to, target);
                assert_eq!(packet.src_group, GroupId(10));
                assert!(!packet.policy_applied);
            }
            other => panic!("expected Encap, got {other:?}"),
        }
    }

    #[test]
    fn ingress_defaults_to_border_on_miss() {
        let vrf = VrfTable::new();
        let mut acl = GroupAcl::new();
        let act = ingress(
            &vrf,
            &mut acl,
            vn(1),
            GroupId(10),
            inner(1, 9, false),
            None,
            EnforcementPoint::Egress,
            None,
            Action::Deny,
            8,
            Rloc::for_router_index(1),
        );
        assert!(matches!(act, IngressAction::EncapToBorder { .. }));
    }

    #[test]
    fn ingress_enforcement_drops_before_transit() {
        let vrf = VrfTable::new();
        let mut acl = GroupAcl::new(); // empty → default deny
        let act = ingress(
            &vrf,
            &mut acl,
            vn(1),
            GroupId(10),
            inner(1, 9, false),
            Some(Rloc::for_router_index(7)),
            EnforcementPoint::Ingress,
            Some(GroupId(20)),
            Action::Deny,
            8,
            Rloc::for_router_index(1),
        );
        assert_eq!(act, IngressAction::DropPolicy);
        assert_eq!(acl.counters(), (0, 1));
    }

    #[test]
    fn ingress_enforcement_sets_applied_bit() {
        let vrf = VrfTable::new();
        let mut acl = GroupAcl::new();
        acl.install(&allow_rule(vn(1), 10, 20));
        let act = ingress(
            &vrf,
            &mut acl,
            vn(1),
            GroupId(10),
            inner(1, 9, false),
            Some(Rloc::for_router_index(7)),
            EnforcementPoint::Ingress,
            Some(GroupId(20)),
            Action::Deny,
            8,
            Rloc::for_router_index(1),
        );
        match act {
            IngressAction::Encap { packet, .. } => assert!(packet.policy_applied),
            other => panic!("expected Encap, got {other:?}"),
        }
    }

    #[test]
    fn ingress_enforcement_without_hint_defers_to_egress() {
        let vrf = VrfTable::new();
        let mut acl = GroupAcl::new();
        let act = ingress(
            &vrf,
            &mut acl,
            vn(1),
            GroupId(10),
            inner(1, 9, false),
            Some(Rloc::for_router_index(7)),
            EnforcementPoint::Ingress,
            None,
            Action::Deny,
            8,
            Rloc::for_router_index(1),
        );
        match act {
            IngressAction::Encap { packet, .. } => assert!(!packet.policy_applied),
            other => panic!("expected Encap, got {other:?}"),
        }
    }

    #[test]
    fn byte_roundtrip_matches_structured_packet() {
        let pkt = OverlayPacket {
            vn: vn(4097),
            src_group: GroupId(17),
            policy_applied: true,
            hops_left: 6,
            origin: Rloc::for_router_index(1),
            inner: inner(1, 2, true),
        };
        let src = Rloc::for_router_index(1);
        let dst = Rloc::for_router_index(2);
        let bytes = encode_packet(src, dst, &pkt, OuterChecksum::Full).unwrap();
        let (got_src, got_dst, got_pkt) = decode_packet(&bytes).unwrap();
        assert_eq!(got_src, src);
        assert_eq!(got_dst, dst);
        assert_eq!(got_pkt, pkt);
    }

    #[test]
    fn byte_path_rejects_corruption() {
        let pkt = packet(vn(1), 10, 1, 2);
        let src = Rloc::for_router_index(1);
        let dst = Rloc::for_router_index(2);
        let bytes = encode_packet(src, dst, &pkt, OuterChecksum::Full).unwrap();
        // Flip a payload byte: the full UDP checksum must catch it (the
        // zero-checksum policy deliberately would not — RFC 6935).
        let mut corrupted = bytes.clone();
        let idx = bytes.len() - 3;
        corrupted[idx] ^= 0xff;
        assert!(decode_packet(&corrupted).is_err());
    }

    #[test]
    fn mac_inner_has_no_byte_form() {
        let pkt = OverlayPacket {
            vn: vn(1),
            src_group: GroupId(1),
            policy_applied: false,
            hops_left: 8,
            origin: Rloc::for_router_index(1),
            inner: InnerPacket {
                src: Eid::Mac(MacAddr::from_seed(1)),
                dst: Eid::Mac(MacAddr::from_seed(2)),
                payload_len: 64,
                flow: 0,
                track: false,
            },
        };
        assert!(encode_packet(
            Rloc::for_router_index(1),
            Rloc::for_router_index(2),
            &pkt,
            OuterChecksum::Zero
        )
        .is_none());
    }

    /// Differential: the egress decision on a packet that took the byte
    /// path equals the decision on the structured packet.
    #[test]
    fn decisions_identical_across_byte_roundtrip() {
        let mut vrf = VrfTable::new();
        vrf.attach(vn(1), local(2, 20));
        let mut acl1 = GroupAcl::new();
        acl1.install(&allow_rule(vn(1), 10, 20));
        let mut acl2 = GroupAcl::new();
        acl2.install(&allow_rule(vn(1), 10, 20));

        let pkt = packet(vn(1), 10, 1, 2);
        let bytes = encode_packet(
            Rloc::for_router_index(1),
            Rloc::for_router_index(2),
            &pkt,
            OuterChecksum::Zero,
        )
        .unwrap();
        let (_, _, decoded) = decode_packet(&bytes).unwrap();

        let a = egress(
            &vrf,
            &mut acl1,
            &pkt,
            EnforcementPoint::Egress,
            Action::Deny,
        );
        let b = egress(
            &vrf,
            &mut acl2,
            &decoded,
            EnforcementPoint::Egress,
            Action::Deny,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn overlay_packet_is_small_and_copyable() {
        // The sim moves millions of these; keep them Copy and compact.
        assert!(core::mem::size_of::<OverlayPacket>() <= 96);
        let p = OverlayPacket {
            vn: VnId::DEFAULT,
            src_group: GroupId(1),
            policy_applied: false,
            hops_left: sda_dataplane::HOP_BUDGET,
            origin: Rloc::for_router_index(1),
            inner: InnerPacket {
                src: Eid::V4(Ipv4Addr::new(10, 0, 0, 1)),
                dst: Eid::V4(Ipv4Addr::new(10, 0, 0, 2)),
                payload_len: 1500,
                flow: 1,
                track: false,
            },
        };
        let q = p;
        assert_eq!(p, q);
    }
}
