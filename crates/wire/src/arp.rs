//! ARP over Ethernet/IPv4 (RFC 826).
//!
//! The SDA L2 gateway intercepts broadcast ARP requests, resolves the
//! target MAC via the routing server, and re-injects the request as
//! *unicast* (§3.5). This module gives it a real ARP packet to rewrite.
//!
//! ```text
//!  0        2        4    5    6        8          14        18         24        28
//! +--------+--------+----+----+--------+----------+---------+----------+---------+
//! | htype  | ptype  |hlen|plen|  oper  |  sha     |  spa    |  tha     |  tpa    |
//! +--------+--------+----+----+--------+----------+---------+----------+---------+
//! ```

use std::net::Ipv4Addr;

use sda_types::MacAddr;

use crate::field::{self, Field};
use crate::{Error, Result};

mod layout {
    use super::Field;
    pub(super) const HTYPE: Field = 0..2;
    pub(super) const PTYPE: Field = 2..4;
    pub(super) const HLEN: Field = 4..5;
    pub(super) const PLEN: Field = 5..6;
    pub(super) const OPER: Field = 6..8;
    pub(super) const SHA: Field = 8..14;
    pub(super) const SPA: Field = 14..18;
    pub(super) const THA: Field = 18..24;
    pub(super) const TPA: Field = 24..28;
}

/// Total length of an Ethernet/IPv4 ARP packet.
pub(crate) const PACKET_LEN: usize = layout::TPA.end;

/// ARP operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operation {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// A read/write view of an ARP packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wraps and validates: length, hardware/protocol types and sizes.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < PACKET_LEN {
            return Err(Error::Truncated);
        }
        let p = Packet { buffer };
        let d = p.buffer.as_ref();
        if field::get_u16(d, layout::HTYPE) != 1 {
            return Err(Error::Malformed);
        }
        if field::get_u16(d, layout::PTYPE) != 0x0800 {
            return Err(Error::Malformed);
        }
        if d[layout::HLEN][0] != 6 || d[layout::PLEN][0] != 4 {
            return Err(Error::Malformed);
        }
        Ok(p)
    }

    /// The operation (request/reply).
    pub(crate) fn operation(&self) -> Result<Operation> {
        match field::get_u16(self.buffer.as_ref(), layout::OPER) {
            1 => Ok(Operation::Request),
            2 => Ok(Operation::Reply),
            _ => Err(Error::Malformed),
        }
    }

    fn mac_at(&self, f: Field) -> MacAddr {
        let mut m = [0u8; 6];
        m.copy_from_slice(&self.buffer.as_ref()[f]);
        MacAddr(m)
    }

    fn ip_at(&self, f: Field) -> Ipv4Addr {
        let d = &self.buffer.as_ref()[f];
        Ipv4Addr::new(d[0], d[1], d[2], d[3])
    }

    /// Sender hardware address.
    pub(crate) fn sender_mac(&self) -> MacAddr {
        self.mac_at(layout::SHA)
    }

    /// Sender protocol (IPv4) address.
    pub(crate) fn sender_ip(&self) -> Ipv4Addr {
        self.ip_at(layout::SPA)
    }

    /// Target hardware address.
    pub(crate) fn target_mac(&self) -> MacAddr {
        self.mac_at(layout::THA)
    }

    /// Target protocol (IPv4) address.
    pub(crate) fn target_ip(&self) -> Ipv4Addr {
        self.ip_at(layout::TPA)
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Writes the fixed hardware/protocol type preamble.
    pub(crate) fn fill_preamble(&mut self) {
        let d = self.buffer.as_mut();
        field::set_u16(d, layout::HTYPE, 1);
        field::set_u16(d, layout::PTYPE, 0x0800);
        d[layout::HLEN.start] = 6;
        d[layout::PLEN.start] = 4;
    }

    /// Sets the operation.
    pub(crate) fn set_operation(&mut self, op: Operation) {
        let raw = match op {
            Operation::Request => 1,
            Operation::Reply => 2,
        };
        field::set_u16(self.buffer.as_mut(), layout::OPER, raw);
    }

    /// Sets the sender hardware address.
    pub(crate) fn set_sender_mac(&mut self, m: MacAddr) {
        self.buffer.as_mut()[layout::SHA].copy_from_slice(&m.octets());
    }

    /// Sets the sender protocol address.
    pub(crate) fn set_sender_ip(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[layout::SPA].copy_from_slice(&a.octets());
    }

    /// Sets the target hardware address.
    pub(crate) fn set_target_mac(&mut self, m: MacAddr) {
        self.buffer.as_mut()[layout::THA].copy_from_slice(&m.octets());
    }

    /// Sets the target protocol address.
    pub(crate) fn set_target_ip(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[layout::TPA].copy_from_slice(&a.octets());
    }
}

/// Parsed representation of an ARP packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Request or reply.
    pub operation: Operation,
    /// Sender MAC.
    pub sender_mac: MacAddr,
    /// Sender IPv4.
    pub sender_ip: Ipv4Addr,
    /// Target MAC (zero in requests).
    pub target_mac: MacAddr,
    /// Target IPv4.
    pub target_ip: Ipv4Addr,
}

impl Repr {
    /// Builds a who-has request: "who has `target_ip`? tell `sender`".
    #[cfg(test)]
    fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Repr {
        Repr {
            operation: Operation::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds the reply answering `request` with `mac`.
    #[cfg(test)]
    fn reply_to(request: &Repr, mac: MacAddr) -> Repr {
        Repr {
            operation: Operation::Reply,
            sender_mac: mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Parses an ARP packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        Ok(Repr {
            operation: packet.operation()?,
            sender_mac: packet.sender_mac(),
            sender_ip: packet.sender_ip(),
            target_mac: packet.target_mac(),
            target_ip: packet.target_ip(),
        })
    }

    /// Byte length when emitted.
    pub const fn buffer_len(&self) -> usize {
        PACKET_LEN
    }

    /// Emits into a packet view.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.fill_preamble();
        packet.set_operation(self.operation);
        packet.set_sender_mac(self.sender_mac);
        packet.set_sender_ip(self.sender_ip);
        packet.set_target_mac(self.target_mac);
        packet.set_target_ip(self.target_ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_roundtrip() {
        let req = Repr::request(
            MacAddr::from_seed(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let mut buf = vec![0u8; req.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        req.emit(&mut pkt);
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&pkt).unwrap(), req);

        let rep = Repr::reply_to(&req, MacAddr::from_seed(2));
        assert_eq!(rep.operation, Operation::Reply);
        assert_eq!(rep.sender_ip, req.target_ip);
        assert_eq!(rep.target_mac, req.sender_mac);
        assert_eq!(rep.target_ip, req.sender_ip);
    }

    #[test]
    fn rejects_non_ethernet_ipv4_arp() {
        let req = Repr::request(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, Ipv4Addr::LOCALHOST);
        let mut buf = vec![0u8; req.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        req.emit(&mut pkt);
        buf[0] = 9; // corrupt htype
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(
            Packet::new_checked(&[0u8; 27][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn rejects_bad_operation() {
        let req = Repr::request(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, Ipv4Addr::LOCALHOST);
        let mut buf = vec![0u8; req.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        req.emit(&mut pkt);
        buf[7] = 9; // oper = 9
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert!(Repr::parse(&pkt).is_err());
    }
}
