//! Overlay address allocation (Fig. 3 step 3).
//!
//! The paper's onboarding obtains the overlay IP from a DHCP server.
//! Scenarios mint endpoint identities ahead of time through this
//! allocator so addresses are unique per VN and deterministic.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use sda_types::{Ipv4Prefix, VnId};

/// A per-VN IPv4 pool allocator.
#[derive(Debug)]
pub struct DhcpPool {
    /// Per-VN: (subnet, next host index).
    pools: BTreeMap<VnId, (Ipv4Prefix, u32)>,
}

impl DhcpPool {
    /// Creates an allocator with no pools.
    pub fn new() -> Self {
        DhcpPool {
            pools: BTreeMap::new(),
        }
    }

    /// Declares the overlay subnet of `vn`.
    ///
    /// # Panics
    /// Panics if the prefix is longer than /30 (no allocatable hosts).
    pub fn add_pool(&mut self, vn: VnId, subnet: Ipv4Prefix) {
        assert!(subnet.len() <= 30, "subnet too small to allocate from");
        self.pools.insert(vn, (subnet, 1));
    }

    /// Allocates the next address in `vn`'s pool.
    /// Returns `None` when the pool is unknown or exhausted.
    pub fn allocate(&mut self, vn: VnId) -> Option<Ipv4Addr> {
        let (subnet, next) = self.pools.get_mut(&vn)?;
        let host_bits = 32 - subnet.len();
        let capacity = (1u64 << host_bits) - 2; // network + broadcast
        if u64::from(*next) > capacity {
            return None;
        }
        let base = u32::from(subnet.addr());
        let addr = Ipv4Addr::from(base + *next);
        *next += 1;
        Some(addr)
    }
}

impl Default for DhcpPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    #[test]
    fn sequential_unique_allocation() {
        let mut d = DhcpPool::new();
        d.add_pool(
            vn(1),
            Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap(),
        );
        let a = d.allocate(vn(1)).unwrap();
        let b = d.allocate(vn(1)).unwrap();
        assert_eq!(a, Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(b, Ipv4Addr::new(10, 1, 0, 2));
    }

    #[test]
    fn per_vn_pools_independent() {
        let mut d = DhcpPool::new();
        d.add_pool(
            vn(1),
            Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap(),
        );
        d.add_pool(
            vn(2),
            Ipv4Prefix::new(Ipv4Addr::new(10, 2, 0, 0), 16).unwrap(),
        );
        assert_eq!(d.allocate(vn(1)).unwrap(), Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(d.allocate(vn(2)).unwrap(), Ipv4Addr::new(10, 2, 0, 1));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut d = DhcpPool::new();
        d.add_pool(
            vn(1),
            Ipv4Prefix::new(Ipv4Addr::new(192, 168, 0, 0), 30).unwrap(),
        );
        assert!(d.allocate(vn(1)).is_some());
        assert!(d.allocate(vn(1)).is_some());
        assert!(d.allocate(vn(1)).is_none(), "/30 has 2 usable hosts");
    }

    #[test]
    fn unknown_vn_returns_none() {
        let mut d = DhcpPool::new();
        assert!(d.allocate(vn(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_subnet_panics() {
        let mut d = DhcpPool::new();
        d.add_pool(
            vn(1),
            Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 31).unwrap(),
        );
    }
}
