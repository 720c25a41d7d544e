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
//! * `D` — "don't learn". The fabric neither writes nor reads it: the
//!   encoder leaves it clear, and a packet with it set parses like any
//!   other.
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

/// Group-Policy-present flag. The flag masks are public so the underlay
/// encoder (`sda_dataplane::encap::write_underlay`) can assemble the
/// flag word in one store.
pub const FLAG_G: u16 = 0x8000;
/// VNI-valid flag (mandatory).
pub const FLAG_I: u16 = 0x0800;
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

/// A read-only view of a VXLAN-GPO packet.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Flags I + G, group 0xBEEF, VNI 0xABCDEF, IPv4, payload "inner!".
    const WITH_GROUP: [u8; 14] = [
        0x88, 0x00, 0xBE, 0xEF, 0xAB, 0xCD, 0xEF, 0x00, b'i', b'n', b'n', b'e', b'r', b'!',
    ];

    #[test]
    fn roundtrip_with_group() {
        let pkt = Packet::new_checked(&WITH_GROUP[..]).unwrap();
        assert!(pkt.has_group());
        assert_eq!(pkt.group(), Some(GroupId(0xBEEF)));
        assert_eq!(pkt.vni().raw(), 0x00AB_CDEF);
        assert!(!pkt.policy_applied());
        assert_eq!(pkt.inner_proto(), InnerProto::Ipv4);
        assert_eq!(pkt.payload(), b"inner!");
    }

    #[test]
    fn roundtrip_without_group() {
        // Flags I + A, no G: the group field is not read.
        let buf = [0x08, 0x08, 0x12, 0x34, 0, 0, 7, PROTO_ETHERNET];
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.group(), None);
        assert!(pkt.policy_applied());
        assert_eq!(pkt.vni().raw(), 7);
        assert_eq!(pkt.inner_proto(), InnerProto::Ethernet);
        assert!(pkt.payload().is_empty());
    }

    #[test]
    fn missing_i_flag_rejected() {
        let buf = [0u8; 8];
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn nonzero_reserved_rejected() {
        let mut buf = [0x08, 0, 0, 0, 0, 0, 1, 0];
        assert!(Packet::new_checked(&buf[..]).is_ok());
        buf[7] = 1;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Packet::new_checked(&[0u8; 7][..]).unwrap_err(),
            Error::Truncated
        );
        assert_eq!(
            Packet::new_checked(&WITH_GROUP[..HEADER_LEN - 1]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn vni_carries_full_24_bits() {
        let buf = [0x08, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0];
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.vni().raw(), VnId::MAX);
    }

    #[test]
    fn d_flag_set_still_parses() {
        // I + D (0x0040) + A: the D bit changes nothing that is read.
        let mut buf = WITH_GROUP;
        buf[1] = 0x48;
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.policy_applied());
        assert_eq!(pkt.group(), Some(GroupId(0xBEEF)));
        assert_eq!(pkt.vni().raw(), 0x00AB_CDEF);
        assert_eq!(pkt.payload(), b"inner!");
    }
}
