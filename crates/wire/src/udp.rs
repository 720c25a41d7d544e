//! UDP headers (RFC 768).
//!
//! Both planes of the fabric ride UDP: VXLAN-GPO data packets on port
//! [`VXLAN_PORT`], LISP control messages on port [`LISP_CONTROL_PORT`].
//! The checksum is computed over the IPv4 pseudo-header; a zero checksum
//! (legal for UDP over IPv4) is accepted on parse.

use std::net::Ipv4Addr;

use crate::field::{self, Field, Rest};
use crate::{ones_complement_sum, Error, Result};

/// IANA-assigned VXLAN destination port.
pub const VXLAN_PORT: u16 = 4789;

/// IANA-assigned LISP control-plane port.
pub const LISP_CONTROL_PORT: u16 = 4342;

mod layout {
    use super::{Field, Rest};
    pub(super) const SRC_PORT: Field = 0..2;
    pub(super) const DST_PORT: Field = 2..4;
    pub(super) const LENGTH: Field = 4..6;
    pub(super) const CHECKSUM: Field = 6..8;
    pub(super) const PAYLOAD: Rest = 8..;
}

/// Length of the UDP header.
pub const HEADER_LEN: usize = layout::PAYLOAD.start;

/// A read/write view of a UDP datagram.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wraps and validates the length field.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Packet { buffer };
        let l = p.len() as usize;
        if l < HEADER_LEN || l > len {
            return Err(Error::BadLength);
        }
        Ok(p)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        field::get_u16(self.buffer.as_ref(), layout::SRC_PORT)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        field::get_u16(self.buffer.as_ref(), layout::DST_PORT)
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        field::get_u16(self.buffer.as_ref(), layout::LENGTH)
    }

    /// True when the datagram carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field (0 = not computed).
    pub(crate) fn checksum(&self) -> u16 {
        field::get_u16(self.buffer.as_ref(), layout::CHECKSUM)
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        let end = self.len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..end]
    }

    /// Verifies the checksum against the IPv4 pseudo-header.
    /// A zero checksum field is accepted (checksum disabled).
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let sum = pseudo_header_checksum(src, dst, &self.buffer.as_ref()[..self.len() as usize]);
        sum == 0xffff || sum == 0
    }
}

/// One's-complement sum of the IPv4 pseudo-header plus the datagram.
fn pseudo_header_checksum(src: Ipv4Addr, dst: Ipv4Addr, datagram: &[u8]) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.octets());
    pseudo[4..8].copy_from_slice(&dst.octets());
    pseudo[9] = 17; // UDP
    pseudo[10..12].copy_from_slice(&(datagram.len() as u16).to_be_bytes());
    let partial = ones_complement_sum(&pseudo, 0);
    ones_complement_sum(datagram, u32::from(partial))
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Sets the source port.
    pub(crate) fn set_src_port(&mut self, p: u16) {
        field::set_u16(self.buffer.as_mut(), layout::SRC_PORT, p);
    }

    /// Sets the destination port.
    pub(crate) fn set_dst_port(&mut self, p: u16) {
        field::set_u16(self.buffer.as_mut(), layout::DST_PORT, p);
    }

    /// Sets the length field.
    pub(crate) fn set_len(&mut self, l: u16) {
        field::set_u16(self.buffer.as_mut(), layout::LENGTH, l);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = self.len() as usize;
        &mut self.buffer.as_mut()[HEADER_LEN..end]
    }

    /// Computes and writes the checksum over the IPv4 pseudo-header.
    /// Writes `0xffff` if the computed sum is zero, per RFC 768.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        field::set_u16(self.buffer.as_mut(), layout::CHECKSUM, 0);
        let len = self.len() as usize;
        let sum = !pseudo_header_checksum(src, dst, &self.buffer.as_ref()[..len]);
        let sum = if sum == 0 { 0xffff } else { sum };
        field::set_u16(self.buffer.as_mut(), layout::CHECKSUM, sum);
    }
}

/// Parsed representation of a UDP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload byte length.
    pub payload_len: usize,
}

impl Repr {
    /// Parses a validated packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            payload_len: packet.len() as usize - HEADER_LEN,
        }
    }

    /// Bytes needed to emit header + payload.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header; checksum is filled from the pseudo-header
    /// addresses *after* the payload is written, via `fill_checksum`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_len(self.buffer_len() as u16);
        field::set_u16(packet.buffer.as_mut(), layout::CHECKSUM, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn roundtrip_with_checksum() {
        let repr = Repr {
            src_port: 4342,
            dst_port: 4342,
            payload_len: 3,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.payload_mut().copy_from_slice(b"abc");
        pkt.fill_checksum(SRC, DST);
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&pkt), repr);
        assert!(pkt.verify_checksum(SRC, DST));
        assert_eq!(pkt.payload(), b"abc");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let repr = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 4,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.payload_mut().copy_from_slice(&[9, 9, 9, 9]);
        pkt.fill_checksum(SRC, DST);
        buf[9] ^= 0xff;
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let repr = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.checksum(), 0);
        assert!(pkt.verify_checksum(SRC, DST));
        assert!(pkt.is_empty());
    }

    #[test]
    fn length_field_validated() {
        let mut buf = [0u8; 8];
        field::set_u16(&mut buf, 4..6, 4); // length < header
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadLength);
        field::set_u16(&mut buf, 4..6, 20); // length > buffer
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn well_known_ports() {
        assert_eq!(VXLAN_PORT, 4789);
        assert_eq!(LISP_CONTROL_PORT, 4342);
    }
}
