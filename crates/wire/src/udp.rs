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

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Ports 4342 → 4342, length 11, checksum 0, payload "abc".
    fn datagram() -> [u8; 11] {
        [0x10, 0xf6, 0x10, 0xf6, 0, 11, 0, 0, b'a', b'b', b'c']
    }

    #[test]
    fn roundtrip_with_checksum() {
        let mut buf = datagram();
        Packet::new_unchecked(&mut buf[..]).fill_checksum(SRC, DST);
        assert_ne!(&buf[6..8], &[0, 0]);
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum(SRC, DST));
        assert_eq!(pkt.src_port(), LISP_CONTROL_PORT);
        assert_eq!(pkt.dst_port(), LISP_CONTROL_PORT);
        assert_eq!(pkt.len(), 11);
        assert_eq!(pkt.payload(), b"abc");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut buf = datagram();
        Packet::new_unchecked(&mut buf[..]).fill_checksum(SRC, DST);
        buf[9] ^= 0xff;
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let buf = [0, 1, 0, 2, 0, 8, 0, 0];
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
