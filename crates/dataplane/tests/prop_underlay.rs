//! The underlay stack's one encoder held to its one decoder:
//! `encap::parse_underlay(encap::write_underlay(..))` returns every field
//! written, for any RLOCs, VN, group, `A` bit, TTL, source port, inner
//! protocol, checksum policy and inner bytes. In the same cases every
//! truncation of the frame errors, every single-bit flip of the 36
//! header bytes errors or parses without a panic (a flip in the outer
//! IPv4 header always errors: its checksum covers it), and a frame
//! longer than the IPv4 total-length field can state is
//! `Error::BadLength` instead of a wrapped length.
//!
//! Every input is a raw integer range, so the proptest shim's halving
//! shrinker minimizes a failing case.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_dataplane::encap::{
    parse_underlay, write_underlay, EncapParams, InnerProto, OuterChecksum, UNDERLAY_OVERHEAD,
};
use sda_types::{GroupId, Rloc, VnId};
use sda_wire::{ipv4, udp, Error};

/// `bits`: 1 = the `A` bit, 2 = full UDP checksum, 4 = Ethernet inner.
fn params(addrs: u64, vn: u32, group: u16, bits: u8, ttl: u8, src_port: u16) -> EncapParams {
    EncapParams {
        outer_src: Rloc(Ipv4Addr::from((addrs >> 32) as u32)),
        outer_dst: Rloc(Ipv4Addr::from(addrs as u32)),
        vn: VnId::new(vn).unwrap(),
        group: GroupId(group),
        policy_applied: bits & 1 != 0,
        ttl,
        src_port,
        udp_checksum: if bits & 2 != 0 {
            OuterChecksum::Full
        } else {
            OuterChecksum::Zero
        },
        inner_proto: if bits & 4 != 0 {
            InnerProto::Ethernet
        } else {
            InnerProto::Ipv4
        },
    }
}

proptest! {
    #[test]
    fn underlay_roundtrip_truncations_and_bit_flips(
        addrs in 0u64..=u64::MAX,
        vn in 0u32..=VnId::MAX,
        group in 0u16..=u16::MAX,
        bits in 0u8..8,
        ttl in 0u8..=u8::MAX,
        src_port in 0u16..=u16::MAX,
        inner in proptest::collection::vec(0u8..=u8::MAX, 0..96),
        oversize in 0usize..4,
    ) {
        let p = params(addrs, vn, group, bits, ttl, src_port);
        let mut buf = vec![0u8; UNDERLAY_OVERHEAD + inner.len()];
        buf[UNDERLAY_OVERHEAD..].copy_from_slice(&inner);
        write_underlay(&mut buf, &p).unwrap();

        let d = parse_underlay(&buf).unwrap();
        prop_assert_eq!(d.outer_src, p.outer_src);
        prop_assert_eq!(d.outer_dst, p.outer_dst);
        prop_assert_eq!(d.outer_ttl, ttl);
        prop_assert_eq!(d.vn, p.vn);
        prop_assert_eq!(d.group, Some(p.group));
        prop_assert_eq!(d.policy_applied, p.policy_applied);
        prop_assert_eq!(d.inner_proto, p.inner_proto);
        prop_assert_eq!(d.inner, &inner[..]);
        prop_assert_eq!(d.inner_offset, UNDERLAY_OVERHEAD);
        let dgram = udp::Packet::new_checked(&buf[ipv4::HEADER_LEN..]).unwrap();
        prop_assert_eq!(dgram.src_port(), src_port);
        prop_assert_eq!(dgram.dst_port(), udp::VXLAN_PORT);

        for cut in 0..buf.len() {
            prop_assert!(parse_underlay(&buf[..cut]).is_err(), "cut at {}", cut);
        }
        for bit in 0..UNDERLAY_OVERHEAD * 8 {
            let mut bent = buf.clone();
            bent[bit / 8] ^= 1 << (bit % 8);
            let parsed = parse_underlay(&bent);
            if bit / 8 < ipv4::HEADER_LEN {
                prop_assert!(parsed.is_err(), "IPv4 header bit {} flipped and parsed", bit);
            }
        }

        // 65,534 and 65,535 bytes fit the 16-bit total length; 65,536
        // and 65,537 must not be framed with a wrapped one.
        let len = usize::from(u16::MAX) - 1 + oversize;
        let mut big = vec![0u8; len];
        let written = write_underlay(&mut big, &p);
        if len <= usize::from(u16::MAX) {
            prop_assert_eq!(written, Ok(()));
            let d = parse_underlay(&big).unwrap();
            prop_assert_eq!(d.inner.len(), len - UNDERLAY_OVERHEAD);
        } else {
            prop_assert_eq!(written, Err(Error::BadLength));
        }
    }
}
