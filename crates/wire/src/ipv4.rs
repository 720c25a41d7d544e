//! IPv4 headers (RFC 791), without options.
//!
//! Used twice per fabric packet: the *inner* (overlay) header between
//! endpoints, and the *outer* (underlay) header between RLOCs. The header
//! checksum is generated on emit and validated in `new_checked`.

use std::net::Ipv4Addr;

use crate::field::{self, Field, Rest};
use crate::{internet_checksum, Error, Result};

mod layout {
    use super::{Field, Rest};
    pub(super) const VER_IHL: Field = 0..1;
    pub(super) const DSCP_ECN: Field = 1..2;
    pub(super) const TOTAL_LEN: Field = 2..4;
    pub(super) const IDENT: Field = 4..6;
    pub(super) const FLAGS_FRAG: Field = 6..8;
    pub(super) const TTL: Field = 8..9;
    pub(super) const PROTOCOL: Field = 9..10;
    pub(super) const CHECKSUM: Field = 10..12;
    pub(super) const SRC: Field = 12..16;
    pub(super) const DST: Field = 16..20;
    pub(super) const PAYLOAD: Rest = 20..;
}

/// Length of an option-less IPv4 header.
pub const HEADER_LEN: usize = layout::PAYLOAD.start;

/// Default TTL for locally originated packets.
pub const DEFAULT_TTL: u8 = 64;

/// IP protocol numbers the fabric uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// UDP (17) — VXLAN and LISP control both ride UDP.
    Udp,
    /// Anything else, preserved verbatim.
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(raw: u8) -> Self {
        match raw {
            17 => Protocol::Udp,
            other => Protocol::Unknown(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(p: Protocol) -> u8 {
        match p {
            Protocol::Udp => 17,
            Protocol::Unknown(raw) => raw,
        }
    }
}

/// A read/write view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wraps and validates version, IHL, total length and header checksum.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Packet { buffer };
        let d = p.buffer.as_ref();
        let ver_ihl = d[layout::VER_IHL][0];
        if ver_ihl >> 4 != 4 {
            return Err(Error::Malformed);
        }
        if ver_ihl & 0x0f != 5 {
            // We do not implement IPv4 options (as smoltcp: silently
            // unsupported, but here their presence is an error because the
            // fabric never emits them).
            return Err(Error::Malformed);
        }
        let total = field::get_u16(d, layout::TOTAL_LEN) as usize;
        if total < HEADER_LEN || total > len {
            return Err(Error::BadLength);
        }
        if internet_checksum(&d[..HEADER_LEN]) != 0 {
            return Err(Error::BadChecksum);
        }
        Ok(p)
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        field::get_u16(self.buffer.as_ref(), layout::TOTAL_LEN)
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[layout::TTL][0]
    }

    /// Payload protocol.
    pub fn protocol(&self) -> Protocol {
        self.buffer.as_ref()[layout::PROTOCOL][0].into()
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = &self.buffer.as_ref()[layout::SRC];
        Ipv4Addr::new(d[0], d[1], d[2], d[3])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = &self.buffer.as_ref()[layout::DST];
        Ipv4Addr::new(d[0], d[1], d[2], d[3])
    }

    /// Payload bytes (bounded by `total_len`).
    pub fn payload(&self) -> &[u8] {
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Sets version/IHL to the fixed `0x45`.
    pub(crate) fn fill_version(&mut self) {
        self.buffer.as_mut()[layout::VER_IHL.start] = 0x45;
        self.buffer.as_mut()[layout::DSCP_ECN.start] = 0;
        field::set_u16(self.buffer.as_mut(), layout::IDENT, 0);
        field::set_u16(self.buffer.as_mut(), layout::FLAGS_FRAG, 0x4000); // DF
    }

    /// Sets the total-length field.
    pub(crate) fn set_total_len(&mut self, len: u16) {
        field::set_u16(self.buffer.as_mut(), layout::TOTAL_LEN, len);
    }

    /// Sets the TTL.
    pub(crate) fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[layout::TTL.start] = ttl;
    }

    /// Sets the payload protocol.
    pub(crate) fn set_protocol(&mut self, p: Protocol) {
        self.buffer.as_mut()[layout::PROTOCOL.start] = p.into();
    }

    /// Sets the source address.
    pub(crate) fn set_src_addr(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[layout::SRC].copy_from_slice(&a.octets());
    }

    /// Sets the destination address.
    pub(crate) fn set_dst_addr(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[layout::DST].copy_from_slice(&a.octets());
    }

    /// Computes and writes the header checksum (must be called last).
    pub fn fill_checksum(&mut self) {
        field::set_u16(self.buffer.as_mut(), layout::CHECKSUM, 0);
        let sum = internet_checksum(&self.buffer.as_ref()[..HEADER_LEN]);
        field::set_u16(self.buffer.as_mut(), layout::CHECKSUM, sum);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let total = self.total_len() as usize;
        &mut self.buffer.as_mut()[HEADER_LEN..total]
    }
}

/// Parsed representation of an IPv4 header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Payload byte length.
    pub payload_len: usize,
    /// Time-to-live.
    pub ttl: u8,
}

impl Repr {
    /// Parses a validated packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src: packet.src_addr(),
            dst: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() as usize - HEADER_LEN,
            ttl: packet.ttl(),
        }
    }

    /// Bytes needed to emit header + payload.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header (checksum included) into a packet view whose buffer
    /// is at least `buffer_len()` long.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.fill_version();
        packet.set_total_len(self.buffer_len() as u16);
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src);
        packet.set_dst_addr(self.dst);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: usize) -> Repr {
        Repr {
            src: Ipv4Addr::new(10, 1, 0, 1),
            dst: Ipv4Addr::new(10, 2, 0, 2),
            protocol: Protocol::Udp,
            payload_len: payload,
            ttl: DEFAULT_TTL,
        }
    }

    #[test]
    fn roundtrip_with_checksum() {
        let repr = sample(8);
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.payload_mut().copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&pkt), repr);
        assert_eq!(pkt.payload(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let repr = sample(0);
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[15] ^= 0x01;
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            Error::BadChecksum
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let repr = sample(0);
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[0] = 0x65; // version 6
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn options_rejected() {
        let repr = sample(0);
        let mut buf = vec![0u8; repr.buffer_len() + 4];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[0] = 0x46; // IHL 6
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn total_len_bounds_payload() {
        let repr = sample(4);
        // Buffer longer than total_len: payload must stop at total_len.
        let mut buf = vec![0u8; repr.buffer_len() + 10];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload().len(), 4);
    }

    #[test]
    fn total_len_longer_than_buffer_rejected() {
        let repr = sample(4);
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        // Truncate below total_len.
        assert_eq!(
            Packet::new_checked(&buf[..repr.buffer_len() - 2]).unwrap_err(),
            Error::BadLength
        );
    }
}
