//! In-place VXLAN-GPO underlay encapsulation and decapsulation.
//!
//! [`write_underlay`] emits the Fig. 2 header stack — outer IPv4, UDP
//! (port 4789), VXLAN-GPO — into the [`UNDERLAY_OVERHEAD`] bytes *in
//! front of* an inner packet that is already resident in the buffer; no
//! payload byte moves. [`parse_underlay`] validates the same stack
//! through `sda-wire`'s views and hands back the header fields plus the
//! inner packet as a subslice. The two are the only encoder and decoder
//! of the paper's packet format: `sda-wire` has no per-layer UDP or
//! VXLAN encoder.
//!
//! The outer UDP checksum ([`OuterChecksum`], RFC 6935): the engine
//! always sends the zero checksum, which UDP over IPv4 allows and
//! tunnel encapsulators conventionally send. [`OuterChecksum::Full`]
//! exists to craft input — frames from a sender that does checksum —
//! and `parse_underlay` verifies a checksum whenever one is present, so
//! the engine accepts both kinds of sender.

use sda_types::{GroupId, Rloc, VnId};
use sda_wire::{ipv4, udp, vxlan, Error, Result};

pub use sda_wire::vxlan::InnerProto;

/// Bytes of underlay framing in front of the inner packet:
/// outer IPv4 (20) + UDP (8) + VXLAN-GPO (8).
pub const UNDERLAY_OVERHEAD: usize = ipv4::HEADER_LEN + udp::HEADER_LEN + vxlan::HEADER_LEN;

/// Outer UDP checksum policy of one [`write_underlay`] call (RFC 6935:
/// UDP over IPv4 may send a zero checksum; tunnel protocols
/// conventionally do).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OuterChecksum {
    /// Send the zero (disabled) checksum — the conventional VXLAN
    /// encapsulator choice, and what the engine always sends.
    #[default]
    Zero,
    /// Compute the full checksum over pseudo-header + payload (receivers
    /// then catch any in-flight corruption of the underlay datagram).
    /// No fabric node sends it; tests use it to craft another sender's
    /// frames.
    Full,
}

/// Everything [`write_underlay`] needs to frame one packet.
#[derive(Clone, Copy, Debug)]
pub struct EncapParams {
    /// This switch's RLOC (outer source).
    pub outer_src: Rloc,
    /// Destination fabric router (outer destination).
    pub outer_dst: Rloc,
    /// VN, carried in the VNI field.
    pub vn: VnId,
    /// Source GroupId, carried in the GPO group field.
    pub group: GroupId,
    /// The `A` (policy already applied) bit.
    pub policy_applied: bool,
    /// Outer TTL — the fabric hop budget (§5.2 loop protection).
    pub ttl: u8,
    /// UDP source port (ECMP entropy; see [`ecmp_src_port`]).
    pub src_port: u16,
    /// Outer UDP checksum policy.
    pub udp_checksum: OuterChecksum,
    /// What the encapsulated payload is (IPv4 packet or Ethernet frame,
    /// carried in the VXLAN-GPE next-protocol byte).
    pub inner_proto: InnerProto,
}

/// Hashes a flow identifier into the conventional VXLAN ECMP source-port
/// range `49152..65536`.
pub fn ecmp_src_port(flow_hash: u64) -> u16 {
    49152 + (flow_hash % 16384) as u16
}

/// Mixes inner addresses into a flow hash for [`ecmp_src_port`].
pub fn flow_hash(src: u32, dst: u32) -> u64 {
    let h = src.wrapping_mul(0x9E37_79B1) ^ dst.wrapping_mul(0x85EB_CA77);
    u64::from(h)
}

/// [`flow_hash`] over L2 addresses (the inner frame of an L2 flow).
pub(crate) fn flow_hash_mac(src: sda_types::MacAddr, dst: sda_types::MacAddr) -> u64 {
    let fold = |m: sda_types::MacAddr| {
        let o = m.octets();
        u32::from_be_bytes([o[0] ^ o[4], o[1] ^ o[5], o[2], o[3]])
    };
    flow_hash(fold(src), fold(dst))
}

/// Emits the underlay headers into `buf[..UNDERLAY_OVERHEAD]`; the inner
/// packet must already occupy `buf[UNDERLAY_OVERHEAD..]`. Nothing beyond
/// the header bytes is written. A `buf` shorter than the headers is
/// [`Error::BufferTooSmall`]; one longer than the IPv4 total-length
/// field can state (65,535 bytes) is [`Error::BadLength`].
pub fn write_underlay(buf: &mut [u8], p: &EncapParams) -> Result<()> {
    if buf.len() < UNDERLAY_OVERHEAD {
        return Err(Error::BufferTooSmall);
    }
    let total_len = u16::try_from(buf.len()).map_err(|_| Error::BadLength)?;
    let udp_len = total_len - ipv4::HEADER_LEN as u16;

    // Flat fixed-offset build of all three headers in one stack array,
    // with the IPv4 header checksum folded arithmetically from the field
    // words instead of a second byte-by-byte pass. This runs once per
    // forwarded packet; on the batched encap path it is the largest
    // fixed cost after the map-cache lookup itself.
    let src = p.outer_src.addr().octets();
    let dst = p.outer_dst.addr().octets();

    let mut h = [0u8; UNDERLAY_OVERHEAD];
    // IPv4: version/IHL 0x45, DSCP 0, ident 0, flags DF.
    h[0] = 0x45;
    h[2..4].copy_from_slice(&total_len.to_be_bytes());
    h[6] = 0x40;
    h[8] = p.ttl;
    h[9] = ipv4::Protocol::Udp.into();
    h[12..16].copy_from_slice(&src);
    h[16..20].copy_from_slice(&dst);
    let mut sum = 0x4500u32
        + 0x4000
        + u32::from(total_len)
        + (u32::from(p.ttl) << 8)
        + u32::from(u8::from(ipv4::Protocol::Udp))
        + u32::from(u16::from_be_bytes([src[0], src[1]]))
        + u32::from(u16::from_be_bytes([src[2], src[3]]))
        + u32::from(u16::from_be_bytes([dst[0], dst[1]]))
        + u32::from(u16::from_be_bytes([dst[2], dst[3]]));
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    h[10..12].copy_from_slice(&(!(sum as u16)).to_be_bytes());

    // UDP: checksum 0 here; the Full policy fills it below (it must sum
    // the whole inner payload, so there is no flat shortcut for it).
    h[20..22].copy_from_slice(&p.src_port.to_be_bytes());
    h[22..24].copy_from_slice(&udp::VXLAN_PORT.to_be_bytes());
    h[24..26].copy_from_slice(&udp_len.to_be_bytes());

    // VXLAN-GPO: I + G always (every fabric packet carries a source
    // group), A from policy, D never set.
    let flags = vxlan::FLAG_I | vxlan::FLAG_G | if p.policy_applied { vxlan::FLAG_A } else { 0 };
    h[28..30].copy_from_slice(&flags.to_be_bytes());
    h[30..32].copy_from_slice(&p.group.raw().to_be_bytes());
    let vni = p.vn.raw();
    h[32] = (vni >> 16) as u8;
    h[33] = (vni >> 8) as u8;
    h[34] = vni as u8;
    h[35] = match p.inner_proto {
        InnerProto::Ipv4 => 0,
        InnerProto::Ethernet => vxlan::PROTO_ETHERNET,
    };

    buf[..UNDERLAY_OVERHEAD].copy_from_slice(&h);

    if p.udp_checksum == OuterChecksum::Full {
        let mut u = udp::Packet::new_unchecked(&mut buf[ipv4::HEADER_LEN..]);
        u.fill_checksum(p.outer_src.addr(), p.outer_dst.addr());
    }
    Ok(())
}

/// The validated underlay framing of one received packet.
#[derive(Clone, Copy, Debug)]
pub struct Decap<'a> {
    /// Outer source (the ingress edge's RLOC — where SMRs go, Fig. 6).
    pub outer_src: Rloc,
    /// Outer destination.
    pub outer_dst: Rloc,
    /// Outer TTL (remaining hop budget).
    pub outer_ttl: u8,
    /// VN from the VNI field.
    pub vn: VnId,
    /// Source GroupId, when the GPO extension is present.
    pub group: Option<GroupId>,
    /// The `A` (policy already applied) bit.
    pub policy_applied: bool,
    /// What the inner payload is (IPv4 packet or Ethernet frame).
    pub inner_proto: InnerProto,
    /// The inner packet (an overlay IPv4 packet or Ethernet frame).
    pub inner: &'a [u8],
    /// Offset of `inner` within the parsed bytes — what an in-place
    /// decapsulation strips from the front.
    pub inner_offset: usize,
}

/// Validates outer IPv4 → UDP(4789) → VXLAN-GPO and returns the header
/// fields plus the inner packet. Every length, version and checksum is
/// checked; malformed input is an [`Error`], never a panic.
pub fn parse_underlay(bytes: &[u8]) -> Result<Decap<'_>> {
    let outer = ipv4::Packet::new_checked(bytes)?;
    if outer.protocol() != ipv4::Protocol::Udp {
        return Err(Error::Malformed);
    }
    let outer_src = Rloc(outer.src_addr());
    let outer_dst = Rloc(outer.dst_addr());
    let outer_ttl = outer.ttl();
    let total = outer.total_len() as usize;

    let dgram = udp::Packet::new_checked(&bytes[ipv4::HEADER_LEN..total])?;
    if !dgram.verify_checksum(outer_src.addr(), outer_dst.addr()) {
        return Err(Error::BadChecksum);
    }
    if dgram.dst_port() != udp::VXLAN_PORT {
        return Err(Error::Malformed);
    }
    let udp_end = ipv4::HEADER_LEN + dgram.len() as usize;

    let vx = vxlan::Packet::new_checked(&bytes[ipv4::HEADER_LEN + udp::HEADER_LEN..udp_end])?;
    let inner_offset = UNDERLAY_OVERHEAD;

    Ok(Decap {
        outer_src,
        outer_dst,
        outer_ttl,
        vn: vx.vni(),
        group: vx.group(),
        policy_applied: vx.policy_applied(),
        inner_proto: vx.inner_proto(),
        inner: &bytes[inner_offset..udp_end],
        inner_offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> EncapParams {
        EncapParams {
            outer_src: Rloc::for_router_index(1),
            outer_dst: Rloc::for_router_index(2),
            vn: VnId::new(4097).unwrap(),
            group: GroupId(17),
            policy_applied: true,
            ttl: 8,
            src_port: ecmp_src_port(42),
            udp_checksum: OuterChecksum::Zero,
            inner_proto: InnerProto::Ipv4,
        }
    }

    fn framed(inner: &[u8], p: &EncapParams) -> Vec<u8> {
        let mut buf = vec![0u8; UNDERLAY_OVERHEAD + inner.len()];
        buf[UNDERLAY_OVERHEAD..].copy_from_slice(inner);
        write_underlay(&mut buf, p).unwrap();
        buf
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let p = params();
        let inner = b"inner ipv4 bytes stand-in";
        let buf = framed(inner, &p);
        let d = parse_underlay(&buf).unwrap();
        assert_eq!(d.outer_src, p.outer_src);
        assert_eq!(d.outer_dst, p.outer_dst);
        assert_eq!(d.outer_ttl, 8);
        assert_eq!(d.vn, p.vn);
        assert_eq!(d.group, Some(p.group));
        assert!(d.policy_applied);
        assert_eq!(d.inner, inner);
        assert_eq!(d.inner_offset, UNDERLAY_OVERHEAD);
    }

    #[test]
    fn optional_udp_checksum_verifies() {
        let mut p = params();
        p.udp_checksum = OuterChecksum::Full;
        let buf = framed(b"payload", &p);
        assert!(parse_underlay(&buf).is_ok());
        // Corrupting the inner payload must now be caught.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert_eq!(parse_underlay(&bad).unwrap_err(), Error::BadChecksum);
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let p = params();
        let buf = framed(b"payload", &p);
        let mut bent = buf.clone();
        let last = bent.len() - 1;
        bent[last] ^= 0xff;
        // No checksum → payload corruption passes (by design; the paper's
        // encap relies on inner integrity checks).
        assert!(parse_underlay(&bent).is_ok());
    }

    #[test]
    fn non_vxlan_port_rejected() {
        let p = params();
        let mut buf = framed(b"x", &p);
        // Overwrite the UDP destination port (bytes 22..24) with 4342.
        buf[22..24].copy_from_slice(&4342u16.to_be_bytes());
        assert_eq!(parse_underlay(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn non_udp_protocol_rejected() {
        let p = params();
        let mut buf = framed(b"x", &p);
        buf[9] = 6; // TCP
        ipv4::Packet::new_unchecked(&mut buf[..]).fill_checksum();
        assert_eq!(parse_underlay(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn every_truncation_errors() {
        let p = params();
        let buf = framed(b"some inner payload", &p);
        for cut in 0..buf.len() {
            assert!(
                parse_underlay(&buf[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
        assert!(parse_underlay(&buf).is_ok());
    }

    #[test]
    fn trailing_padding_ignored() {
        let p = params();
        let mut buf = framed(b"padded", &p);
        buf.extend_from_slice(&[0xEE; 13]); // link-layer padding
        let d = parse_underlay(&buf).unwrap();
        assert_eq!(d.inner, b"padded");
    }

    #[test]
    fn inner_proto_roundtrips() {
        let mut p = params();
        p.inner_proto = InnerProto::Ethernet;
        let buf = framed(b"an l2 frame stand-in", &p);
        let d = parse_underlay(&buf).unwrap();
        assert_eq!(d.inner_proto, InnerProto::Ethernet);
        assert_eq!(d.inner, b"an l2 frame stand-in");
    }

    #[test]
    fn unknown_inner_proto_rejected() {
        let p = params();
        let mut buf = framed(b"x", &p);
        // The VXLAN next-protocol byte is the 8th of the VXLAN header.
        buf[ipv4::HEADER_LEN + udp::HEADER_LEN + 7] = 0x2A;
        assert_eq!(parse_underlay(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn buffer_too_small_on_emit() {
        let mut buf = [0u8; UNDERLAY_OVERHEAD - 1];
        assert_eq!(
            write_underlay(&mut buf, &params()).unwrap_err(),
            Error::BufferTooSmall
        );
    }
}
