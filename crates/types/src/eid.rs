//! Endpoint identifiers (EIDs) and routing locators (RLOCs).
//!
//! LISP separates *who* an endpoint is (its EID — an overlay IPv4, IPv6 or
//! MAC address) from *where* it currently attaches (the RLOC — the underlay
//! address of the edge router serving it). The routing server stores
//! `(VN, EID) → RLOC` mappings; edge routers query and update them.

use core::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::error::{Error, Result};

/// A 48-bit MAC address.
///
/// MAC-keyed EIDs are what make SDA's L2 service support possible (§3.5):
/// the routing server indexes endpoints by MAC in addition to IP so that
/// L2 gateways can convert broadcast (e.g. ARP) to unicast.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast MAC address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// All-zero MAC, used as a "none yet" placeholder during onboarding.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a locally-administered unicast MAC from a 32-bit seed.
    ///
    /// Workload generators use this to mint unique, valid endpoint MACs:
    /// the first octet is `0x02` (locally administered, unicast).
    pub const fn from_seed(seed: u32) -> Self {
        let b = seed.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Byte representation, network order.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// The address family of an [`Eid`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EidKind {
    /// Overlay IPv4 address.
    V4,
    /// Overlay IPv6 address.
    V6,
    /// Overlay MAC address (L2 service support).
    Mac,
}

impl EidKind {
    /// Key width in bits when stored in the Patricia trie.
    pub const fn bit_len(self) -> u16 {
        match self {
            EidKind::V4 => 32,
            EidKind::V6 => 128,
            EidKind::Mac => 48,
        }
    }

    /// Width in bytes of the canonical representation (4, 16 or 6).
    pub const fn byte_len(self) -> usize {
        self.bit_len() as usize / 8
    }
}

impl fmt::Display for EidKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EidKind::V4 => "ipv4",
            EidKind::V6 => "ipv6",
            EidKind::Mac => "mac",
        })
    }
}

/// An overlay Endpoint IDentifier.
///
/// SDA registers up to three EIDs per endpoint — IPv4, IPv6 and MAC — all
/// mapping to the same RLOC. The enum keeps them in one keyspace so the
/// routing server can be generic over address family.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Eid {
    /// Overlay IPv4 address.
    V4(Ipv4Addr),
    /// Overlay IPv6 address.
    V6(Ipv6Addr),
    /// Overlay MAC address.
    Mac(MacAddr),
}

impl Eid {
    /// The address family of this EID.
    pub const fn kind(&self) -> EidKind {
        match self {
            Eid::V4(_) => EidKind::V4,
            Eid::V6(_) => EidKind::V6,
            Eid::Mac(_) => EidKind::Mac,
        }
    }

    /// Canonical byte representation, left-aligned in a fixed array:
    /// the first `kind().byte_len()` bytes are the address, the rest zero.
    pub fn octets(&self) -> [u8; 16] {
        self.key_bits().to_be_bytes()
    }

    /// Reconstructs an EID from `kind` + canonical bytes.
    pub fn from_bytes(kind: EidKind, bytes: &[u8]) -> Result<Self> {
        match kind {
            EidKind::V4 => {
                let arr: [u8; 4] = bytes.try_into().map_err(|_| Error::BadEidLength {
                    kind,
                    len: bytes.len(),
                })?;
                Ok(Eid::V4(Ipv4Addr::from(arr)))
            }
            EidKind::V6 => {
                let arr: [u8; 16] = bytes.try_into().map_err(|_| Error::BadEidLength {
                    kind,
                    len: bytes.len(),
                })?;
                Ok(Eid::V6(Ipv6Addr::from(arr)))
            }
            EidKind::Mac => {
                let arr: [u8; 6] = bytes.try_into().map_err(|_| Error::BadEidLength {
                    kind,
                    len: bytes.len(),
                })?;
                Ok(Eid::Mac(MacAddr(arr)))
            }
        }
    }

    /// Left-aligned 128-bit trie key: the address occupies the top
    /// `kind().bit_len()` bits of the word, the rest is zero.
    ///
    /// This is what the LPM hot path uses to build trie keys without
    /// touching the heap.
    pub fn key_bits(&self) -> u128 {
        match self {
            Eid::V4(a) => u128::from(u32::from(*a)) << 96,
            Eid::V6(a) => u128::from(*a),
            Eid::Mac(m) => {
                let mut raw = [0u8; 8];
                raw[..6].copy_from_slice(&m.octets());
                u128::from(u64::from_be_bytes(raw)) << 64
            }
        }
    }
}

impl From<Ipv4Addr> for Eid {
    fn from(a: Ipv4Addr) -> Self {
        Eid::V4(a)
    }
}

impl From<Ipv6Addr> for Eid {
    fn from(a: Ipv6Addr) -> Self {
        Eid::V6(a)
    }
}

impl From<MacAddr> for Eid {
    fn from(m: MacAddr) -> Self {
        Eid::Mac(m)
    }
}

impl From<IpAddr> for Eid {
    fn from(a: IpAddr) -> Self {
        match a {
            IpAddr::V4(v4) => Eid::V4(v4),
            IpAddr::V6(v6) => Eid::V6(v6),
        }
    }
}

impl fmt::Display for Eid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Eid::V4(a) => write!(f, "{a}"),
            Eid::V6(a) => write!(f, "{a}"),
            Eid::Mac(m) => write!(f, "{m}"),
        }
    }
}

/// An underlay Routing LOCator: the underlay IPv4 address of a fabric
/// router. Other routers encapsulate overlay traffic toward this address.
///
/// The underlay in SDA deployments is IPv4 (OSPF/IS-IS routed), so RLOCs
/// are IPv4-only here; the *overlay* is the multi-family side.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rloc(pub Ipv4Addr);

impl Rloc {
    /// Builds the conventional underlay address for router index `i`:
    /// `10.255.(i >> 8).(i & 0xff)` — a loopback-style /32 per router.
    pub const fn for_router_index(i: u16) -> Self {
        Rloc(Ipv4Addr::new(10, 255, (i >> 8) as u8, (i & 0xff) as u8))
    }

    /// The underlying IPv4 address.
    pub const fn addr(self) -> Ipv4Addr {
        self.0
    }
}

impl From<Ipv4Addr> for Rloc {
    fn from(a: Ipv4Addr) -> Self {
        Rloc(a)
    }
}

impl fmt::Display for Rloc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_is_colon_hex() {
        let m = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn mac_from_seed_is_unicast_locally_administered() {
        for seed in [0u32, 1, 0xffff_ffff, 12345] {
            let m = MacAddr::from_seed(seed);
            assert_eq!(m.octets()[0] & 0x01, 0, "{m} must be unicast");
            assert_eq!(m.octets()[0], 0x02);
        }
    }

    #[test]
    fn mac_from_seed_is_injective_on_distinct_seeds() {
        let a = MacAddr::from_seed(1);
        let b = MacAddr::from_seed(2);
        assert_ne!(a, b);
    }

    #[test]
    fn eid_roundtrips_through_bytes() {
        let cases = [
            Eid::V4(Ipv4Addr::new(10, 1, 2, 3)),
            Eid::V6("2001:db8::1".parse::<Ipv6Addr>().unwrap()),
            Eid::Mac(MacAddr::from_seed(99)),
        ];
        for eid in cases {
            let octets = eid.octets();
            let (bytes, pad) = octets.split_at(eid.kind().byte_len());
            assert_eq!(bytes.len() as u16 * 8, eid.kind().bit_len());
            assert!(pad.iter().all(|&b| b == 0), "{eid}: padding is zero");
            let back = Eid::from_bytes(eid.kind(), bytes).unwrap();
            assert_eq!(back, eid);
        }
    }

    #[test]
    fn eid_from_bytes_rejects_wrong_length() {
        assert!(Eid::from_bytes(EidKind::V4, &[1, 2, 3]).is_err());
        assert!(Eid::from_bytes(EidKind::Mac, &[0; 7]).is_err());
        assert!(Eid::from_bytes(EidKind::V6, &[0; 4]).is_err());
    }

    #[test]
    fn rloc_for_router_index_unique_and_stable() {
        let a = Rloc::for_router_index(1);
        let b = Rloc::for_router_index(256);
        assert_ne!(a, b);
        assert_eq!(a.addr(), Ipv4Addr::new(10, 255, 0, 1));
        assert_eq!(b.addr(), Ipv4Addr::new(10, 255, 1, 0));
    }
}
