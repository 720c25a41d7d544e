//! The byte conventions the simulator nodes share with the engine.
//!
//! The router nodes in [`crate::edge`] and `border.rs` run every
//! data packet through a per-node [`sda_dataplane::Switch`] as real
//! bytes; the two-stage pipeline of Fig. 4 *is* that engine. What lives
//! here is the host side of it:
//!
//! * [`compose_host_frame`] / [`parse_delivered_frame`] — how a
//!   workload `Send` event becomes the Ethernet/IPv4 (or L2) frame an
//!   edge feeds its switch, and how a delivered frame's measurement
//!   meta (flow id, track bit) is read back for metrics.
//!
//! The structured model of the same pipeline (pure `ingress`/`egress`
//! decision functions, a structured-packet codec and the verdict
//! oracle built on them) is the engine's differential reference,
//! `crates/core/tests/reference/pipeline.rs`.

use sda_dataplane::{encap, MAX_FRAME};
use sda_types::{Eid, MacAddr};
use sda_wire::{ethernet, ipv4, EtherType};

/// Bytes of measurement meta at the head of every composed payload:
/// the 8-byte flow id plus the track bit.
pub const FRAME_META_LEN: usize = 9;

/// Composes the Ethernet frame an endpoint's `Send` event stands for,
/// into `out` (cleared and reused — no steady-state allocation beyond
/// the scratch vector's high-water mark):
///
/// * IPv4-EID destinations become an Ethernet/IPv4 frame whose payload
///   carries `(flow, track)` then zero padding, so delivery metrics
///   survive the byte path.
/// * MAC-EID destinations (L2 flows, §3.5 — e.g. the unicast-converted
///   ARP) become a unicast non-IP frame toward the owner MAC with the
///   same meta at the payload head.
///
/// The simulated payload is capped so the frame fits [`MAX_FRAME`]
/// (`payload_len` is a bandwidth-accounting figure; the cap only trims
/// padding bytes). Returns `false` for destinations with no byte form
/// (IPv6 EIDs — a documented simplification).
pub fn compose_host_frame(
    out: &mut Vec<u8>,
    src_mac: MacAddr,
    src_ipv4: std::net::Ipv4Addr,
    dst: Eid,
    payload_len: u16,
    flow: u64,
    track: bool,
) -> bool {
    out.clear();
    match dst {
        Eid::V4(dst_ip) => {
            // The cap must leave room for the *encapsulated* form at
            // the receiving node: the underlay packet (inner IPv4 +
            // UNDERLAY_OVERHEAD, the Ethernet header having been
            // stripped) has to fit MAX_FRAME too.
            let cap = MAX_FRAME - encap::UNDERLAY_OVERHEAD - ipv4::HEADER_LEN - FRAME_META_LEN;
            let padding = usize::from(payload_len).min(cap);
            let inner = ipv4::Repr {
                src: src_ipv4,
                dst: dst_ip,
                protocol: ipv4::Protocol::Unknown(253), // RFC 3692 experimental
                payload_len: FRAME_META_LEN + padding,
                ttl: ipv4::DEFAULT_TTL,
            };
            out.resize(ethernet::HEADER_LEN + inner.buffer_len(), 0);
            ethernet::Repr {
                dst: MacAddr::BROADCAST,
                src: src_mac,
                ethertype: EtherType::Ipv4,
            }
            .emit(&mut ethernet::Frame::new_unchecked(&mut out[..]));
            let mut ip = ipv4::Packet::new_unchecked(&mut out[ethernet::HEADER_LEN..]);
            inner.emit(&mut ip);
            let payload = ip.payload_mut();
            payload[..8].copy_from_slice(&flow.to_be_bytes());
            payload[8] = u8::from(track);
            true
        }
        Eid::Mac(dst_mac) => {
            // L2 flows encapsulate the whole frame: reserve the
            // underlay overhead on top of it.
            let cap = MAX_FRAME - encap::UNDERLAY_OVERHEAD - ethernet::HEADER_LEN - FRAME_META_LEN;
            let padding = usize::from(payload_len).min(cap);
            out.resize(ethernet::HEADER_LEN + FRAME_META_LEN + padding, 0);
            ethernet::Repr {
                dst: dst_mac,
                src: src_mac,
                ethertype: EtherType::Arp,
            }
            .emit(&mut ethernet::Frame::new_unchecked(&mut out[..]));
            out[ethernet::HEADER_LEN..ethernet::HEADER_LEN + 8]
                .copy_from_slice(&flow.to_be_bytes());
            out[ethernet::HEADER_LEN + 8] = u8::from(track);
            true
        }
        Eid::V6(_) => false,
    }
}

/// What a delivered frame carried, for metrics accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeliveredFrame {
    /// The destination EID the delivery satisfied (IPv4 for L3 flows,
    /// the frame's destination MAC for L2).
    pub dst: Eid,
    /// Flow id from the measurement meta.
    pub flow: u64,
    /// Track bit from the measurement meta.
    pub track: bool,
}

/// Reads the [`compose_host_frame`] measurement meta back out of a
/// frame the switch delivered (after its egress rewrite).
pub fn parse_delivered_frame(bytes: &[u8]) -> Option<DeliveredFrame> {
    let eth = ethernet::Frame::new_checked(bytes).ok()?;
    let meta = |dst: Eid, payload: &[u8]| {
        if payload.len() < FRAME_META_LEN {
            return None;
        }
        Some(DeliveredFrame {
            dst,
            flow: u64::from_be_bytes(payload[..8].try_into().unwrap()),
            track: payload[8] != 0,
        })
    };
    if eth.ethertype() == EtherType::Ipv4 {
        let ip = ipv4::Packet::new_checked(eth.payload()).ok()?;
        meta(Eid::V4(ip.dst_addr()), ip.payload())
    } else {
        meta(Eid::Mac(eth.dst_addr()), eth.payload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Review regression: a maximum-size send must compose a frame
    /// whose *encapsulated* form still fits a receiving node's buffer
    /// (the cap reserves the underlay overhead).
    #[test]
    fn composed_frames_survive_encapsulation_at_max_payload() {
        use sda_dataplane::MAX_FRAME;
        use sda_wire::ethernet;
        let mut out = Vec::new();
        // L3: the edge strips the Ethernet header and prepends the
        // underlay around the inner IPv4 packet.
        assert!(compose_host_frame(
            &mut out,
            MacAddr::from_seed(1),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            Eid::V4(std::net::Ipv4Addr::new(10, 0, 0, 2)),
            u16::MAX,
            7,
            true,
        ));
        assert!(out.len() <= MAX_FRAME);
        assert!(
            out.len() - ethernet::HEADER_LEN + encap::UNDERLAY_OVERHEAD <= MAX_FRAME,
            "encapsulated L3 form must fit: {}",
            out.len()
        );
        // L2: the whole frame is the inner payload.
        assert!(compose_host_frame(
            &mut out,
            MacAddr::from_seed(1),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            Eid::Mac(MacAddr::from_seed(2)),
            u16::MAX,
            7,
            true,
        ));
        assert!(
            out.len() + encap::UNDERLAY_OVERHEAD <= MAX_FRAME,
            "encapsulated L2 form must fit: {}",
            out.len()
        );
    }
}
