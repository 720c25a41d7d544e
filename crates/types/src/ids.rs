//! Identifier newtypes.
//!
//! Each identifier is a thin wrapper over an integer with the bit-width the
//! corresponding wire field uses. Constructors validate the range so an
//! out-of-range value can never reach the encoder.

use core::fmt;

use crate::error::{Error, Result};

/// A 24-bit Virtual Network identifier ("macro" segmentation).
///
/// VNs map to isolated routing/switching domains (VRFs on the routers) and
/// are carried in the 24-bit VNI field of the VXLAN header. The paper's
/// example: a hospital isolating doctors, guests and medical devices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VnId(u32);

impl VnId {
    /// Maximum encodable value (2^24 - 1).
    pub const MAX: u32 = 0x00FF_FFFF;

    /// The default VN used when an operator does not segment the network.
    pub const DEFAULT: VnId = VnId(1);

    /// Creates a VN identifier, rejecting values that do not fit in 24 bits.
    pub fn new(raw: u32) -> Result<Self> {
        if raw > Self::MAX {
            return Err(Error::VnIdOutOfRange(raw));
        }
        Ok(VnId(raw))
    }

    /// Creates a VN identifier without range checking.
    ///
    /// # Panics
    /// Panics in debug builds if `raw` exceeds 24 bits.
    pub const fn new_unchecked(raw: u32) -> Self {
        debug_assert!(raw <= Self::MAX);
        VnId(raw)
    }

    /// Raw 24-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vn{}", self.0)
    }
}

/// A 16-bit scalable group tag ("micro" segmentation).
///
/// Groups classify endpoints within a VN; the connectivity matrix is keyed
/// by `(source GroupId, destination GroupId)`. Carried in the VXLAN-GPO
/// Group Policy ID field.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u16);

impl GroupId {
    /// The conventional "unknown/unauthenticated" group.
    pub const UNKNOWN: GroupId = GroupId(0);

    /// Raw 16-bit value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifies a router (edge, border or underlay) within a deployment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouterId(pub u32);

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A switch port on an edge router (where an endpoint or AP attaches).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u16);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vn_id_accepts_24_bit_values() {
        assert_eq!(VnId::new(0).unwrap().raw(), 0);
        assert_eq!(VnId::new(VnId::MAX).unwrap().raw(), VnId::MAX);
    }

    #[test]
    fn vn_id_rejects_25_bit_values() {
        assert!(matches!(
            VnId::new(VnId::MAX + 1),
            Err(Error::VnIdOutOfRange(_))
        ));
        assert!(VnId::new(u32::MAX).is_err());
    }

    #[test]
    fn vn_id_display_is_compact() {
        assert_eq!(VnId::new(42).unwrap().to_string(), "vn42");
    }

    #[test]
    fn group_id_display() {
        assert_eq!(GroupId(7).to_string(), "g7");
        assert_eq!(GroupId::UNKNOWN.raw(), 0);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(VnId::new(1).unwrap() < VnId::new(2).unwrap());
        assert!(GroupId(1) < GroupId(10));
        assert!(RouterId(3) < RouterId(30));
    }
}
