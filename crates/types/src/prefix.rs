//! Prefixes over the three EID families.
//!
//! The routing server stores host routes (/32, /128, /48) for endpoint
//! mobility, plus covering prefixes for subnet-level state (e.g. the border
//! router advertising a whole overlay subnet). Prefix types canonicalize on
//! construction — host bits beyond the prefix length are zeroed — so two
//! spellings of the same prefix always compare equal.

use core::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::eid::{Eid, EidKind, MacAddr};
use crate::error::{Error, Result};

/// An IPv4 prefix in CIDR form.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ipv4Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Ipv4Prefix {
    /// Creates a prefix, zeroing host bits; rejects `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self> {
        if len > 32 {
            return Err(Error::PrefixLenOutOfRange { len, max: 32 });
        }
        let raw = u32::from(addr);
        let masked = if len == 0 {
            0
        } else {
            raw & (u32::MAX << (32 - len))
        };
        Ok(Ipv4Prefix {
            addr: Ipv4Addr::from(masked),
            len,
        })
    }

    /// Host route (/32) for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix { addr, len: 32 }
    }

    /// The canonical network address.
    pub const fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Prefix length in bits (a CIDR length, not a container size —
    /// there is deliberately no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.len);
        (u32::from(addr) & mask) == u32::from(self.addr)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// An IPv6 prefix in CIDR form.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ipv6Prefix {
    addr: Ipv6Addr,
    len: u8,
}

impl Ipv6Prefix {
    /// Creates a prefix, zeroing host bits; rejects `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Result<Self> {
        if len > 128 {
            return Err(Error::PrefixLenOutOfRange { len, max: 128 });
        }
        let raw = u128::from(addr);
        let masked = if len == 0 {
            0
        } else {
            raw & (u128::MAX << (128 - len))
        };
        Ok(Ipv6Prefix {
            addr: Ipv6Addr::from(masked),
            len,
        })
    }

    /// Host route (/128) for a single address.
    pub(crate) fn host(addr: Ipv6Addr) -> Self {
        Ipv6Prefix { addr, len: 128 }
    }

    /// The canonical network address.
    pub const fn addr(&self) -> Ipv6Addr {
        self.addr
    }

    /// Prefix length in bits (a CIDR length, not a container size —
    /// there is deliberately no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub(crate) const fn len(&self) -> u8 {
        self.len
    }

    /// Whether `addr` falls inside this prefix.
    pub(crate) fn contains(&self, addr: Ipv6Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = u128::MAX << (128 - self.len);
        (u128::from(addr) & mask) == u128::from(self.addr)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// A MAC "prefix". L2 EIDs are practically always exact (/48), but the
/// trie treats every family uniformly, so MACs get a prefix type too
/// (an OUI, for example, is a /24 MAC prefix).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MacPrefix {
    addr: MacAddr,
    len: u8,
}

impl MacPrefix {
    /// Creates a prefix, zeroing host bits; rejects `len > 48`.
    pub fn new(addr: MacAddr, len: u8) -> Result<Self> {
        if len > 48 {
            return Err(Error::PrefixLenOutOfRange { len, max: 48 });
        }
        let mut raw = [0u8; 8];
        raw[2..].copy_from_slice(&addr.octets());
        let v = u64::from_be_bytes(raw);
        let masked = if len == 0 {
            0
        } else {
            v & ((!0u64 << (48 - len)) & 0x0000_FFFF_FFFF_FFFF)
        };
        let bytes = masked.to_be_bytes();
        let mut out = [0u8; 6];
        out.copy_from_slice(&bytes[2..]);
        Ok(MacPrefix {
            addr: MacAddr(out),
            len,
        })
    }

    /// Exact-match (/48) prefix for one MAC.
    pub fn host(addr: MacAddr) -> Self {
        MacPrefix { addr, len: 48 }
    }

    /// The canonical masked MAC.
    pub const fn addr(&self) -> MacAddr {
        self.addr
    }

    /// Prefix length in bits (a CIDR length, not a container size —
    /// there is deliberately no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub(crate) const fn len(&self) -> u8 {
        self.len
    }

    /// Whether `addr` falls inside this prefix.
    pub(crate) fn contains(&self, addr: MacAddr) -> bool {
        if self.len == 0 {
            return true;
        }
        let full = |m: MacAddr| {
            let mut raw = [0u8; 8];
            raw[2..].copy_from_slice(&m.octets());
            u64::from_be_bytes(raw)
        };
        let mask = (!0u64 << (48 - self.len)) & 0x0000_FFFF_FFFF_FFFF;
        (full(addr) & mask) == full(self.addr)
    }
}

impl fmt::Display for MacPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// A prefix over any EID family.
///
/// What Map-Replies, negative replies and Publishes carry (host routes,
/// §3.2.2) and the key of the map-cache's covering prefixes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EidPrefix {
    /// IPv4 CIDR prefix.
    V4(Ipv4Prefix),
    /// IPv6 CIDR prefix.
    V6(Ipv6Prefix),
    /// MAC prefix (usually /48 exact).
    Mac(MacPrefix),
}

impl EidPrefix {
    /// Host route covering exactly `eid`.
    pub fn host(eid: Eid) -> Self {
        match eid {
            Eid::V4(a) => EidPrefix::V4(Ipv4Prefix::host(a)),
            Eid::V6(a) => EidPrefix::V6(Ipv6Prefix::host(a)),
            Eid::Mac(m) => EidPrefix::Mac(MacPrefix::host(m)),
        }
    }

    /// The address family of this prefix.
    pub const fn kind(&self) -> EidKind {
        match self {
            EidPrefix::V4(_) => EidKind::V4,
            EidPrefix::V6(_) => EidKind::V6,
            EidPrefix::Mac(_) => EidKind::Mac,
        }
    }

    /// Prefix length in bits (a CIDR length, not a container size —
    /// there is deliberately no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> u8 {
        match self {
            EidPrefix::V4(p) => p.len(),
            EidPrefix::V6(p) => p.len(),
            EidPrefix::Mac(p) => p.len(),
        }
    }

    /// True when the prefix is a host route (full-width).
    pub fn is_host(&self) -> bool {
        u16::from(self.len()) == self.kind().bit_len()
    }

    /// The one EID a host route covers; `None` for a shorter prefix.
    #[inline]
    pub fn as_host(&self) -> Option<Eid> {
        match self {
            EidPrefix::V4(p) if p.len() == 32 => Some(Eid::V4(p.addr())),
            EidPrefix::V6(p) if p.len() == 128 => Some(Eid::V6(p.addr())),
            EidPrefix::Mac(p) if p.len() == 48 => Some(Eid::Mac(p.addr())),
            _ => None,
        }
    }

    /// Whether `eid` (of the same family) falls inside this prefix.
    /// EIDs of a different family never match.
    pub fn contains(&self, eid: Eid) -> bool {
        match (self, eid) {
            (EidPrefix::V4(p), Eid::V4(a)) => p.contains(a),
            (EidPrefix::V6(p), Eid::V6(a)) => p.contains(a),
            (EidPrefix::Mac(p), Eid::Mac(m)) => p.contains(m),
            _ => false,
        }
    }

    /// Canonical network bytes, left-aligned in a fixed array: the first
    /// `kind().byte_len()` bytes are the address, the rest zero.
    pub fn addr_octets(&self) -> [u8; 16] {
        self.key_bits().to_be_bytes()
    }

    /// Left-aligned 128-bit trie key: the canonical network bits occupy
    /// the top `len()` bits of the word, the rest is zero (construction
    /// already zeroed host bits).
    ///
    /// This is what the LPM hot path uses to build trie keys without
    /// touching the heap.
    pub fn key_bits(&self) -> u128 {
        match self {
            EidPrefix::V4(p) => u128::from(u32::from(p.addr())) << 96,
            EidPrefix::V6(p) => u128::from(p.addr()),
            EidPrefix::Mac(p) => {
                let mut raw = [0u8; 8];
                raw[..6].copy_from_slice(&p.addr().octets());
                u128::from(u64::from_be_bytes(raw)) << 64
            }
        }
    }
}

impl From<Ipv4Prefix> for EidPrefix {
    fn from(p: Ipv4Prefix) -> Self {
        EidPrefix::V4(p)
    }
}

impl From<Ipv6Prefix> for EidPrefix {
    fn from(p: Ipv6Prefix) -> Self {
        EidPrefix::V6(p)
    }
}

impl From<MacPrefix> for EidPrefix {
    fn from(p: MacPrefix) -> Self {
        EidPrefix::Mac(p)
    }
}

impl fmt::Display for EidPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EidPrefix::V4(p) => write!(f, "{p}"),
            EidPrefix::V6(p) => write!(f, "{p}"),
            EidPrefix::Mac(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_prefix_canonicalizes_host_bits() {
        let a = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 24).unwrap();
        let b = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 0), 24).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.addr(), Ipv4Addr::new(10, 1, 2, 0));
    }

    #[test]
    fn ipv4_prefix_contains() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(192, 168, 0, 0), 16).unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 168, 255, 1)));
        assert!(!p.contains(Ipv4Addr::new(192, 169, 0, 1)));
    }

    #[test]
    fn default_route_contains_everything() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(1, 2, 3, 4), 0).unwrap();
        assert_eq!(p.len(), 0);
        assert!(p.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(p.contains(Ipv4Addr::new(0, 0, 0, 0)));
    }

    #[test]
    fn prefix_len_bounds_enforced() {
        assert!(Ipv4Prefix::new(Ipv4Addr::LOCALHOST, 33).is_err());
        assert!(Ipv6Prefix::new(Ipv6Addr::LOCALHOST, 129).is_err());
        assert!(MacPrefix::new(MacAddr::ZERO, 49).is_err());
    }

    #[test]
    fn ipv6_prefix_contains_and_canonicalizes() {
        let p = Ipv6Prefix::new("2001:db8::ffff".parse().unwrap(), 32).unwrap();
        assert_eq!(p.addr(), "2001:db8::".parse::<Ipv6Addr>().unwrap());
        assert!(p.contains("2001:db8:1::1".parse().unwrap()));
        assert!(!p.contains("2001:db9::1".parse().unwrap()));
    }

    #[test]
    fn mac_prefix_oui_matching() {
        let oui = MacPrefix::new(MacAddr([0x02, 0x00, 0x00, 0xAA, 0xBB, 0xCC]), 24).unwrap();
        // Host bits zeroed:
        assert_eq!(oui.addr(), MacAddr([0x02, 0x00, 0x00, 0, 0, 0]));
        assert!(oui.contains(MacAddr([0x02, 0x00, 0x00, 1, 2, 3])));
        assert!(!oui.contains(MacAddr([0x02, 0x00, 0x01, 1, 2, 3])));
    }

    #[test]
    fn eid_prefix_host_roundtrip() {
        let eid = Eid::V4(Ipv4Addr::new(10, 0, 0, 7));
        let p = EidPrefix::host(eid);
        assert!(p.is_host());
        assert!(p.contains(eid));
        assert!(!p.contains(Eid::V4(Ipv4Addr::new(10, 0, 0, 8))));
    }

    #[test]
    fn cross_family_never_contains() {
        let p = EidPrefix::host(Eid::V4(Ipv4Addr::new(10, 0, 0, 7)));
        assert!(!p.contains(Eid::Mac(MacAddr::ZERO)));
        assert!(!p.contains(Eid::V6(Ipv6Addr::LOCALHOST)));
    }

    #[test]
    fn displays() {
        let p4: EidPrefix = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8)
            .unwrap()
            .into();
        assert_eq!(p4.to_string(), "10.0.0.0/8");
        let pm: EidPrefix = MacPrefix::host(MacAddr::from_seed(0)).into();
        assert_eq!(pm.to_string(), "02:00:00:00:00:00/48");
    }

    #[test]
    fn mac_prefix_zero_len_contains_all() {
        let p = MacPrefix::new(MacAddr::BROADCAST, 0).unwrap();
        assert!(p.contains(MacAddr::ZERO));
        assert!(p.contains(MacAddr::BROADCAST));
    }
}
