//! Ethernet II framing.
//!
//! ```text
//!  0                   6                  12      14
//! +-------------------+-------------------+-------+----------
//! |  destination MAC  |    source MAC     | type  | payload…
//! +-------------------+-------------------+-------+----------
//! ```

use sda_types::MacAddr;

use crate::field::{self, Field, Rest};
use crate::{Error, Result};

/// EtherType values the fabric cares about.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// IPv6 (0x86DD).
    Ipv6,
    /// Anything else, preserved verbatim.
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(raw: u16) -> Self {
        match raw {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86DD => EtherType::Ipv6,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Unknown(raw) => raw,
        }
    }
}

mod layout {
    use super::{Field, Rest};
    pub(super) const DST: Field = 0..6;
    pub(super) const SRC: Field = 6..12;
    pub(super) const ETHERTYPE: Field = 12..14;
    pub(super) const PAYLOAD: Rest = 14..;
}

/// Length of the Ethernet II header.
pub const HEADER_LEN: usize = layout::PAYLOAD.start;

/// A read/write view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Frame { buffer }
    }

    /// Wraps a buffer, checking it can hold at least the fixed header.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Frame { buffer })
    }

    /// Destination MAC address.
    pub fn dst_addr(&self) -> MacAddr {
        let d = self.buffer.as_ref();
        let mut m = [0u8; 6];
        m.copy_from_slice(&d[layout::DST]);
        MacAddr(m)
    }

    /// Source MAC address.
    pub fn src_addr(&self) -> MacAddr {
        let d = self.buffer.as_ref();
        let mut m = [0u8; 6];
        m.copy_from_slice(&d[layout::SRC]);
        MacAddr(m)
    }

    /// EtherType of the payload.
    pub fn ethertype(&self) -> EtherType {
        field::get_u16(self.buffer.as_ref(), layout::ETHERTYPE).into()
    }

    /// Payload bytes following the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[layout::PAYLOAD]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Sets the destination MAC address.
    pub fn set_dst_addr(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[layout::DST].copy_from_slice(&addr.octets());
    }

    /// Sets the source MAC address.
    pub fn set_src_addr(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[layout::SRC].copy_from_slice(&addr.octets());
    }

    /// Sets the EtherType.
    pub fn set_ethertype(&mut self, t: EtherType) {
        field::set_u16(self.buffer.as_mut(), layout::ETHERTYPE, t.into());
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[layout::PAYLOAD]
    }
}

/// Parsed representation of an Ethernet header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload EtherType.
    pub ethertype: EtherType,
}

impl Repr {
    /// Parses the header out of a frame view.
    pub fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Repr {
        Repr {
            dst: frame.dst_addr(),
            src: frame.src_addr(),
            ethertype: frame.ethertype(),
        }
    }

    /// Header length this representation emits.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emits the header into a frame view.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut Frame<T>) {
        frame.set_dst_addr(self.dst);
        frame.set_src_addr(self.src);
        frame.set_ethertype(self.ethertype);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Repr {
        Repr {
            dst: MacAddr([1, 2, 3, 4, 5, 6]),
            src: MacAddr([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample();
        let mut buf = vec![0u8; repr.buffer_len() + 4];
        let mut frame = Frame::new_checked(&mut buf[..]).unwrap();
        repr.emit(&mut frame);
        frame.payload_mut().copy_from_slice(&[0xAA; 4]);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&frame), repr);
        assert_eq!(frame.payload(), &[0xAA; 4]);
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(Frame::new_checked(&[0u8; 13][..]).is_err());
        assert!(Frame::new_checked(&[0u8; 14][..]).is_ok());
    }

    #[test]
    fn ethertype_mapping_roundtrips() {
        for t in [
            EtherType::Ipv4,
            EtherType::Arp,
            EtherType::Ipv6,
            EtherType::Unknown(0x1234),
        ] {
            assert_eq!(EtherType::from(u16::from(t)), t);
        }
    }
}
