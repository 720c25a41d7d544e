//! VXLAN with the Group Policy Option (VXLAN-GPO,
//! draft-smith-vxlan-group-policy).
//!
//! The paper chose this encapsulation over the native LISP data plane
//! because it carries both L2 and L3 payloads and has room for the source
//! GroupId (Fig. 2). Header layout:
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-------------------------------+
//! |G|R|R|R|I|R|R|R|R|D|R|R|A|R|R|R|        Group Policy ID        |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-------------------------------+
//! |                VXLAN Network Identifier (VNI) |   Reserved    |
//! +-----------------------------------------------+---------------+
//! ```
//!
//! * `G` — Group Policy extension present; the Group Policy ID carries the
//!   packet's **source GroupId**.
//! * `I` — VNI field valid (must be set); the VNI carries the **VN**.
//! * `A` — policy has already been applied upstream (used when an ingress
//!   node enforced the ACL so egress must not re-drop).
//!
//! The trailing reserved byte doubles as a GPE-style **next-protocol**
//! indicator so the fabric can carry both L3 and L2 payloads (the very
//! reason the paper picked VXLAN over the native LISP data plane): `0x00`
//! is the historical all-zero encoding and means an **IPv4** inner
//! packet; [`PROTO_ETHERNET`] (`0x03`, the VXLAN-GPE number) means a full
//! **Ethernet** inner frame (L2 flows, §3.5). Any other value is rejected
//! by [`Packet::new_checked`].

use sda_types::{GroupId, VnId};

use crate::field::{self, Field, Rest};
use crate::{Error, Result};

mod layout {
    use super::{Field, Rest};
    pub(super) const FLAGS: Field = 0..2;
    pub(super) const GROUP: Field = 2..4;
    pub(super) const VNI: Field = 4..7;
    pub(super) const RESERVED: Field = 7..8;
    pub(super) const PAYLOAD: Rest = 8..;
}

/// Length of the VXLAN-GPO header.
pub const HEADER_LEN: usize = layout::PAYLOAD.start;

/// Flag-word masks, public so the data plane's flat header writer can
/// assemble the flags in one store instead of per-bit read-modify-write.
pub const FLAG_G: u16 = 0x8000;
/// VNI-valid flag (mandatory).
pub const FLAG_I: u16 = 0x0800;
/// "Don't learn" flag.
pub(crate) const FLAG_D: u16 = 0x0040;
/// "Policy already applied" flag.
pub const FLAG_A: u16 = 0x0008;

/// Next-protocol value for an Ethernet inner frame (the VXLAN-GPE
/// number). The historical `0x00` reserved byte reads as IPv4.
pub const PROTO_ETHERNET: u8 = 0x03;

/// What the encapsulated payload is (carried in the reserved byte,
/// GPE-style).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InnerProto {
    /// A bare IPv4 packet (the fabric's L3 flows) — reserved byte 0.
    #[default]
    Ipv4,
    /// A full Ethernet frame (L2 flows, §3.5) — reserved byte
    /// [`PROTO_ETHERNET`].
    Ethernet,
}

/// A read/write view of a VXLAN-GPO packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wraps and validates: length, the mandatory `I` flag and a known
    /// next-protocol byte (`0x00` = IPv4, [`PROTO_ETHERNET`]).
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Packet { buffer };
        let flags = field::get_u16(p.buffer.as_ref(), layout::FLAGS);
        if flags & FLAG_I == 0 {
            return Err(Error::Malformed);
        }
        if !matches!(p.buffer.as_ref()[layout::RESERVED][0], 0 | PROTO_ETHERNET) {
            return Err(Error::Malformed);
        }
        Ok(p)
    }

    fn flags(&self) -> u16 {
        field::get_u16(self.buffer.as_ref(), layout::FLAGS)
    }

    /// True when the Group Policy extension is present.
    pub(crate) fn has_group(&self) -> bool {
        self.flags() & FLAG_G != 0
    }

    /// True when the "don't learn" bit is set.
    pub fn dont_learn(&self) -> bool {
        self.flags() & FLAG_D != 0
    }

    /// True when an upstream node already applied policy.
    pub fn policy_applied(&self) -> bool {
        self.flags() & FLAG_A != 0
    }

    /// The source GroupId, if the `G` flag is set.
    pub fn group(&self) -> Option<GroupId> {
        self.has_group()
            .then(|| GroupId(field::get_u16(self.buffer.as_ref(), layout::GROUP)))
    }

    /// The VN carried in the VNI field.
    pub fn vni(&self) -> VnId {
        VnId::new_unchecked(field::get_u24(self.buffer.as_ref(), layout::VNI))
    }

    /// What the payload is (a validated packet only carries known
    /// values; [`Packet::new_unchecked`] views read unknown bytes as
    /// IPv4).
    pub fn inner_proto(&self) -> InnerProto {
        if self.buffer.as_ref()[layout::RESERVED][0] == PROTO_ETHERNET {
            InnerProto::Ethernet
        } else {
            InnerProto::Ipv4
        }
    }

    /// Encapsulated payload (an Ethernet frame or IP packet).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[layout::PAYLOAD]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    fn set_flag(&mut self, flag: u16, on: bool) {
        let d = self.buffer.as_mut();
        let mut f = field::get_u16(d, layout::FLAGS);
        if on {
            f |= flag;
        } else {
            f &= !flag;
        }
        field::set_u16(d, layout::FLAGS, f);
    }

    /// Writes the mandatory `I` flag and zeroes reserved fields.
    pub(crate) fn fill_defaults(&mut self) {
        let d = self.buffer.as_mut();
        field::set_u16(d, layout::FLAGS, FLAG_I);
        field::set_u16(d, layout::GROUP, 0);
        d[layout::RESERVED.start] = 0;
    }

    /// Sets the source GroupId (also sets the `G` flag).
    pub(crate) fn set_group(&mut self, g: GroupId) {
        self.set_flag(FLAG_G, true);
        field::set_u16(self.buffer.as_mut(), layout::GROUP, g.raw());
    }

    /// Sets the "don't learn" bit.
    pub(crate) fn set_dont_learn(&mut self, on: bool) {
        self.set_flag(FLAG_D, on);
    }

    /// Sets the "policy applied" bit.
    pub(crate) fn set_policy_applied(&mut self, on: bool) {
        self.set_flag(FLAG_A, on);
    }

    /// Sets the VNI to `vn`.
    pub(crate) fn set_vni(&mut self, vn: VnId) {
        field::set_u24(self.buffer.as_mut(), layout::VNI, vn.raw());
    }

    /// Sets the next-protocol byte.
    pub(crate) fn set_inner_proto(&mut self, proto: InnerProto) {
        self.buffer.as_mut()[layout::RESERVED.start] = match proto {
            InnerProto::Ipv4 => 0,
            InnerProto::Ethernet => PROTO_ETHERNET,
        };
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[layout::PAYLOAD]
    }
}

/// Parsed representation of a VXLAN-GPO header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// The VN (VNI field).
    pub vn: VnId,
    /// Source GroupId, when the `G` extension is present.
    pub group: Option<GroupId>,
    /// Policy-applied bit (`A`).
    pub policy_applied: bool,
    /// Don't-learn bit (`D`): egress must not source-learn from this
    /// packet. Plumbed through `Repr` so the bit survives a
    /// parse → emit round trip (it used to be view-only and was lost).
    pub dont_learn: bool,
    /// What the payload is (IPv4 packet or Ethernet frame).
    pub inner_proto: InnerProto,
    /// Encapsulated payload length.
    pub payload_len: usize,
}

impl Repr {
    /// Parses a validated packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            vn: packet.vni(),
            group: packet.group(),
            policy_applied: packet.policy_applied(),
            dont_learn: packet.dont_learn(),
            inner_proto: packet.inner_proto(),
            payload_len: packet.payload().len(),
        }
    }

    /// Bytes needed to emit header + payload.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header into a packet view.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.fill_defaults();
        packet.set_vni(self.vn);
        if let Some(g) = self.group {
            packet.set_group(g);
        }
        packet.set_policy_applied(self.policy_applied);
        packet.set_dont_learn(self.dont_learn);
        packet.set_inner_proto(self.inner_proto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_group() {
        let repr = Repr {
            vn: VnId::new(0x00AB_CDEF & VnId::MAX).unwrap(),
            group: Some(GroupId(0xBEEF)),
            policy_applied: false,
            dont_learn: false,
            inner_proto: InnerProto::Ipv4,
            payload_len: 6,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.payload_mut().copy_from_slice(b"inner!");
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&pkt), repr);
        assert!(pkt.has_group());
        assert_eq!(pkt.payload(), b"inner!");
    }

    #[test]
    fn roundtrip_without_group() {
        let repr = Repr {
            vn: VnId::new(7).unwrap(),
            group: None,
            policy_applied: true,
            dont_learn: true,
            inner_proto: InnerProto::Ipv4,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.group(), None);
        assert!(pkt.policy_applied());
        assert_eq!(Repr::parse(&pkt), repr);
    }

    #[test]
    fn missing_i_flag_rejected() {
        let buf = [0u8; 8];
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn nonzero_reserved_rejected() {
        let repr = Repr {
            vn: VnId::DEFAULT,
            group: None,
            policy_applied: false,
            dont_learn: false,
            inner_proto: InnerProto::Ipv4,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[7] = 1;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Packet::new_checked(&[0u8; 7][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn vni_carries_full_24_bits() {
        let repr = Repr {
            vn: VnId::new(VnId::MAX).unwrap(),
            group: None,
            policy_applied: false,
            dont_learn: false,
            inner_proto: InnerProto::Ipv4,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.vni().raw(), VnId::MAX);
    }

    #[test]
    fn dont_learn_flag() {
        let mut buf = [0u8; 8];
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        pkt.fill_defaults();
        pkt.set_dont_learn(true);
        assert!(pkt.dont_learn());
        pkt.set_dont_learn(false);
        assert!(!pkt.dont_learn());
    }
}
