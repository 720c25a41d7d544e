//! Prefix-aligned partitioning of EID space across shards.
//!
//! The partition key is the top [`PARTITION_BITS`] bits of
//! [`Eid::key_bits`] (the left-aligned address word), tagged by address
//! family so IPv4, IPv6 and MAC EIDs partition independently. Two
//! properties make this routing **exact** rather than approximate:
//!
//! 1. [`MappingDb`](sda_lisp::MappingDb) only ever stores *host*
//!    registrations (`Message::MapRegister` carries an [`Eid`], and the
//!    database is an exact-match table keyed by it), so a register and
//!    every later request for the same EID share the full key — they
//!    can never straddle a partition boundary.
//! 2. The partition is aligned at `/PARTITION_BITS`: any future
//!    aggregate registration with a prefix at least that long would
//!    still map wholly into one block.
//!
//! `owner = block % shards` keeps the map stable under any shard count
//! without a directory.

use sda_types::Eid;

/// Partition granularity in key bits. 16 splits a typical campus
/// 10.0.0.0/8 EID plan across 256 blocks (the second octet), fine
/// enough to balance 1/2/4-shard deployments; coarser (8) would park an
/// entire /8 on one shard.
pub(crate) const PARTITION_BITS: u32 = 16;

/// The partition block of `eid`: its address family tag plus the top
/// [`PARTITION_BITS`] of its left-aligned [`Eid::key_bits`].
pub(crate) fn block_of(eid: &Eid) -> u32 {
    let family = match eid {
        Eid::V4(_) => 0u32,
        Eid::V6(_) => 1,
        Eid::Mac(_) => 2,
    };
    let top = (eid.key_bits() >> (128 - PARTITION_BITS)) as u32;
    (family << PARTITION_BITS) | top
}

/// The shard owning `eid` among `shards` shards.
///
/// # Panics
/// Panics if `shards` is zero.
pub(crate) fn owner_of(eid: &Eid, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    block_of(eid) as usize % shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_types::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn owner_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for i in 0..1000u32 {
                let eid = Eid::V4(Ipv4Addr::from(0x0A00_0000 | (i * 65_537)));
                let o = owner_of(&eid, shards);
                assert!(o < shards);
                assert_eq!(o, owner_of(&eid, shards), "stable");
            }
        }
    }

    #[test]
    fn campus_plan_spreads_across_shards() {
        // A 10.0.0.0/8 plan with /16 spread (the second octet varies):
        // every shard must own a fair share.
        let shards = 4;
        let mut counts = [0usize; 4];
        for i in 0..100_000u32 {
            let eid = Eid::V4(Ipv4Addr::from(0x0A00_0000 | (i << 4)));
            counts[owner_of(&eid, shards)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                *c > 100_000 / shards / 2,
                "shard {i} owns only {c}/100000 EIDs"
            );
        }
    }

    #[test]
    fn families_partition_independently() {
        let v4 = Eid::V4(Ipv4Addr::new(10, 0, 0, 1));
        let mac = Eid::Mac(MacAddr::from_seed(1));
        assert_ne!(block_of(&v4), block_of(&mac));
    }

    #[test]
    fn same_top_bits_same_block() {
        // Hosts inside one /16 always share a block (prefix alignment).
        let a = Eid::V4(Ipv4Addr::new(10, 7, 0, 1));
        let b = Eid::V4(Ipv4Addr::new(10, 7, 255, 254));
        assert_eq!(block_of(&a), block_of(&b));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        owner_of(&Eid::V4(Ipv4Addr::new(10, 0, 0, 1)), 0);
    }
}
