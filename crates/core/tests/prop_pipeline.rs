//! Pipeline invariants under random state and packets:
//!
//! 1. Denied traffic is never delivered (unless the packet carries the
//!    ingress-applied bit — trust between fabric nodes).
//! 2. The encapsulation the ingress stage emits preserves VN, group and
//!    inner packet exactly.
//! 3. Ingress and egress agree: what ingress would deliver locally,
//!    egress on the same state also delivers.
//! 4. The host-side frame reader never panics on hostile bytes and
//!    reads back what the host-side composer wrote.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_core::pipeline::{compose_host_frame, parse_delivered_frame, DeliveredFrame};
use sda_dataplane::{LocalEndpoint, VrfTable};
use sda_policy::{Action, EnforcementPoint, GroupRule, RuleSubset};
use sda_types::{Eid, GroupId, MacAddr, PortId, Rloc, VnId};

// Each includer calls its own part of the references.
#[allow(dead_code)]
mod reference;
use reference::group_acl::GroupAcl;
use reference::pipeline::{self, EgressAction, IngressAction, InnerPacket, OverlayPacket};

fn vn() -> VnId {
    VnId::new(1).unwrap()
}

#[derive(Clone, Debug)]
struct State {
    attached: Vec<(u8, u16)>, // (host octet, group)
    rules: Vec<(u16, u16, bool)>,
}

fn arb_state() -> impl Strategy<Value = State> {
    (
        proptest::collection::vec((0u8..16, 0u16..6), 0..10),
        proptest::collection::vec((0u16..6, 0u16..6, any::<bool>()), 0..12),
    )
        .prop_map(|(attached, rules)| State { attached, rules })
}

fn build(state: &State) -> (VrfTable, GroupAcl) {
    let mut vrf = VrfTable::new();
    for (host, group) in &state.attached {
        vrf.attach(
            vn(),
            LocalEndpoint {
                port: PortId(*host as u16),
                group: GroupId(*group),
                mac: MacAddr::from_seed(u32::from(*host)),
                ipv4: Ipv4Addr::new(10, 0, 0, *host),
            },
        );
    }
    let mut acl = GroupAcl::new();
    acl.install(&RuleSubset {
        version: 1,
        rules: state
            .rules
            .iter()
            .map(|(s, d, allow)| {
                (
                    vn(),
                    GroupRule {
                        src: GroupId(*s),
                        dst: GroupId(*d),
                        action: if *allow { Action::Allow } else { Action::Deny },
                    },
                )
            })
            .collect(),
    });
    (vrf, acl)
}

fn effective_action(state: &State, src: u16, dst: u16) -> Action {
    state
        .rules
        .iter()
        .rev()
        .find(|(s, d, _)| *s == src && *d == dst)
        .map(|(_, _, allow)| if *allow { Action::Allow } else { Action::Deny })
        .unwrap_or(Action::Deny)
}

fn packet(src_group: u16, dst_host: u8, applied: bool) -> OverlayPacket {
    OverlayPacket {
        vn: vn(),
        src_group: GroupId(src_group),
        policy_applied: applied,
        hops_left: 8,
        origin: Rloc::for_router_index(1),
        inner: InnerPacket {
            src: Eid::V4(Ipv4Addr::new(10, 0, 9, 9)),
            dst: Eid::V4(Ipv4Addr::new(10, 0, 0, dst_host)),
            payload_len: 64,
            flow: 7,
            track: false,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Egress never delivers traffic the matrix denies.
    #[test]
    fn egress_enforces_the_matrix(state in arb_state(), src_group in 0u16..6, dst in 0u8..16) {
        let (vrf, mut acl) = build(&state);
        let pkt = packet(src_group, dst, false);
        let action = pipeline::egress(&vrf, &mut acl, &pkt, EnforcementPoint::Egress, Action::Deny);
        match action {
            EgressAction::Deliver { dst_group, .. } => {
                // Destination must be attached and the pair allowed.
                let local = vrf.lookup(vn(), pkt.inner.dst).expect("delivered ⇒ local");
                prop_assert_eq!(local.group, dst_group);
                prop_assert_eq!(
                    effective_action(&state, src_group, dst_group.raw()),
                    Action::Allow
                );
            }
            EgressAction::DropPolicy => {
                let local = vrf.lookup(vn(), pkt.inner.dst).expect("policy drop ⇒ local");
                prop_assert_eq!(
                    effective_action(&state, src_group, local.group.raw()),
                    Action::Deny
                );
            }
            EgressAction::NotLocal => {
                prop_assert!(vrf.lookup(vn(), pkt.inner.dst).is_none());
            }
        }
    }

    /// The policy-applied bit bypasses the egress ACL but never
    /// manufactures a delivery for a non-local destination.
    #[test]
    fn applied_bit_bypasses_acl_only(state in arb_state(), src_group in 0u16..6, dst in 0u8..16) {
        let (vrf, mut acl) = build(&state);
        let pkt = packet(src_group, dst, true);
        let action = pipeline::egress(&vrf, &mut acl, &pkt, EnforcementPoint::Egress, Action::Deny);
        if vrf.lookup(vn(), pkt.inner.dst).is_some() {
            let delivered = matches!(action, EgressAction::Deliver { .. });
            prop_assert!(delivered);
        } else {
            prop_assert_eq!(action, EgressAction::NotLocal);
        }
        // ACL counters untouched: the stage was skipped.
        prop_assert_eq!(acl.counters(), (0, 0));
    }

    /// Ingress encapsulation preserves the packet identity, and the
    /// choice of Encap vs EncapToBorder follows the resolution input.
    #[test]
    fn ingress_encap_preserves_identity(
        state in arb_state(),
        src_group in 0u16..6,
        dst in 16u8..32, // never locally attached
        resolved in proptest::option::of(0u16..8),
    ) {
        let (vrf, mut acl) = build(&state);
        let inner = InnerPacket {
            src: Eid::V4(Ipv4Addr::new(10, 0, 9, 9)),
            dst: Eid::V4(Ipv4Addr::new(10, 0, 0, dst)),
            payload_len: 512,
            flow: 3,
            track: true,
        };
        let self_rloc = Rloc::for_router_index(42);
        let action = pipeline::ingress(
            &vrf, &mut acl, vn(), GroupId(src_group), inner,
            resolved.map(Rloc::for_router_index),
            EnforcementPoint::Egress, None, Action::Deny, 8, self_rloc,
        );
        match (resolved, action) {
            (Some(r), IngressAction::Encap { to, packet }) => {
                prop_assert_eq!(to, Rloc::for_router_index(r));
                prop_assert_eq!(packet.inner, inner);
                prop_assert_eq!(packet.src_group, GroupId(src_group));
                prop_assert_eq!(packet.origin, self_rloc);
                prop_assert!(!packet.policy_applied);
            }
            (None, IngressAction::EncapToBorder { packet }) => {
                prop_assert_eq!(packet.inner, inner);
                prop_assert_eq!(packet.origin, self_rloc);
            }
            (r, a) => prop_assert!(false, "unexpected pair {r:?} {a:?}"),
        }
    }

    /// Byte round-trip never changes a decision (differential fuzzing of
    /// encode/decode against the structured path).
    #[test]
    fn byte_roundtrip_decision_equivalence(
        state in arb_state(),
        src_group in 0u16..6,
        dst in 0u8..16,
        hops in 1u8..16,
    ) {
        let (vrf, mut acl_a) = build(&state);
        let (_, mut acl_b) = build(&state);
        let mut pkt = packet(src_group, dst, false);
        pkt.hops_left = hops;
        let bytes = pipeline::encode_packet(
            Rloc::for_router_index(1),
            Rloc::for_router_index(2),
            &pkt,
            sda_dataplane::OuterChecksum::Full,
        ).expect("ipv4 inner always encodes");
        let (_, _, decoded) = pipeline::decode_packet(&bytes).expect("decode");
        prop_assert_eq!(decoded, pkt);
        let a = pipeline::egress(&vrf, &mut acl_a, &pkt, EnforcementPoint::Egress, Action::Deny);
        let b = pipeline::egress(&vrf, &mut acl_b, &decoded, EnforcementPoint::Egress, Action::Deny);
        prop_assert_eq!(a, b);
    }

    /// `parse_delivered_frame` on hostile input: garbage, every
    /// truncation and every single-bit flip of a `compose_host_frame`
    /// output return without panicking, and the untouched frame reads
    /// back its `(dst, flow, track)`. Bit 0 of `bits` is the track bit,
    /// bit 1 picks an L2 (MAC) destination. Raw integers and a byte
    /// vector, so a failure shrinks by halving.
    #[test]
    fn delivered_frame_reader_survives_hostile_bytes(
        garbage in proptest::collection::vec(any::<u8>(), 0..96),
        dst in any::<u32>(),
        flow in any::<u64>(),
        padding in 0u16..48,
        bits in any::<u8>(),
    ) {
        let _ = parse_delivered_frame(&garbage);
        let track = bits & 1 == 1;
        let dst = if bits & 2 == 0 {
            Eid::V4(Ipv4Addr::from(dst))
        } else {
            Eid::Mac(MacAddr::from_seed(dst))
        };
        let mut frame = Vec::new();
        let src_ip = Ipv4Addr::new(10, 0, 9, 9);
        prop_assert!(compose_host_frame(&mut frame, MacAddr::from_seed(1), src_ip, dst, padding, flow, track));
        prop_assert_eq!(parse_delivered_frame(&frame), Some(DeliveredFrame { dst, flow, track }));
        for len in 0..frame.len() {
            let _ = parse_delivered_frame(&frame[..len]);
        }
        for bit in 0..frame.len() * 8 {
            frame[bit / 8] ^= 1 << (bit % 8);
            let _ = parse_delivered_frame(&frame);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// One fixed codec case beside the generated ones: the encoder's outer
/// stack carries the fabric's own VXLAN-GPO framing constants, read
/// back with `sda-wire`'s parsers, and the packet survives the round
/// trip.
#[test]
fn vxlan_constants_match_fabric_expectations() {
    use pipeline::{decode_packet, encode_packet};

    let pkt = OverlayPacket {
        vn: vn(),
        src_group: GroupId(42),
        policy_applied: false,
        hops_left: 8,
        origin: Rloc::for_router_index(1),
        inner: InnerPacket {
            src: Eid::V4(Ipv4Addr::new(10, 7, 0, 1)),
            dst: Eid::V4(Ipv4Addr::new(10, 7, 0, 2)),
            payload_len: 1400,
            flow: 99,
            track: true,
        },
    };
    let bytes = encode_packet(
        Rloc::for_router_index(1),
        Rloc::for_router_index(2),
        &pkt,
        sda_dataplane::OuterChecksum::Full,
    )
    .unwrap();

    // The outer stack is real: IPv4 proto 17, UDP dst 4789, VNI = VN.
    let outer = sda_wire::ipv4::Packet::new_checked(&bytes[..]).unwrap();
    assert_eq!(u8::from(outer.protocol()), 17);
    let udp = sda_wire::udp::Packet::new_checked(outer.payload()).unwrap();
    assert_eq!(udp.dst_port(), sda_wire::udp::VXLAN_PORT);
    let vx = sda_wire::vxlan::Packet::new_checked(udp.payload()).unwrap();
    assert_eq!(vx.vni(), vn());
    assert_eq!(vx.group(), Some(GroupId(42)));

    let (_, _, decoded) = decode_packet(&bytes).unwrap();
    assert_eq!(decoded, pkt);
}
