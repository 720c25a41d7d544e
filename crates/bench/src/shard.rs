//! Horizontal map-server scaling (§4.1):
//!
//! > "the architecture scales horizontally and can deploy more routing
//! > servers. Then, we load balance across edge routers by grouping them
//! > and pointing each group to a different routing server for the route
//! > requests, and perform route updates on all servers."
//!
//! [`ShardedMapServer`] is what [`crate::figures::ablation_sharding`]
//! needs of that deployment: the grouping rule that sends each edge's
//! requests to one of N servers. The figure models every update landing
//! on all N as a queue, so no register runs here. The fabric's routing
//! server is `sda-ctrl`'s `PartitionedMapServer`, which partitions EID
//! space so each register lands on exactly one shard instead.

use sda_types::Rloc;

/// A group of routing servers acting as one, reduced to its request
/// routing.
pub struct ShardedMapServer {
    shards: usize,
}

impl ShardedMapServer {
    /// One shard per locator in `rlocs`.
    ///
    /// # Panics
    /// Panics if `rlocs` is empty.
    pub fn new(rlocs: Vec<Rloc>) -> Self {
        assert!(!rlocs.is_empty(), "need at least one shard");
        ShardedMapServer {
            shards: rlocs.len(),
        }
    }

    /// Which shard serves requests from `requester` (stable hash of the
    /// edge's RLOC — the "grouping edge routers" rule).
    pub fn shard_for(&self, requester: Rloc) -> usize {
        let ip = u32::from(requester.addr());
        (ip.wrapping_mul(2_654_435_761) >> 16) as usize % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(n: u16) -> ShardedMapServer {
        ShardedMapServer::new((0..n).map(|i| Rloc::for_router_index(1000 + i)).collect())
    }

    #[test]
    fn requests_spread_across_shards() {
        let s = sharded(4);
        let mut dist = [0u32; 4];
        for i in 0..200 {
            dist[s.shard_for(Rloc::for_router_index(i))] += 1;
        }
        for (i, count) in dist.iter().enumerate() {
            assert!(*count > 20, "shard {i} got only {count}/200 requests");
        }
    }

    #[test]
    fn same_requester_always_same_shard() {
        let s = sharded(3);
        let r = Rloc::for_router_index(42);
        let first = s.shard_for(r);
        for _ in 0..10 {
            assert_eq!(s.shard_for(r), first);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardedMapServer::new(vec![]);
    }
}
