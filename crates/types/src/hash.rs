//! The one hasher of the fabric's exact-match tables, and their size
//! accounting.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::{Eid, Rloc};

/// One widening multiply, high half folded onto the low half: hashbrown
/// indexes with the low bits and tags with the top seven, the registry's
/// linear-probed table takes its home slot from the low bits alone, and
/// the fold puts every key bit into both ends.
///
/// Deterministic (no per-process seed), so a table's layout and iteration
/// order repeat from run to run, and **not** hardened against crafted
/// keys: use it only where keys are *inserted* by the control plane and
/// packets merely probe. Key types fold themselves into one
/// [`Hasher::write_u64`] call; the byte-wise `write` is the slow fallback
/// the trait demands.
#[derive(Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let wide = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `eid` in one word, for keys of tables hashed with [`KeyHasher`]: the
/// two halves of [`Eid::key_bits`] folded together with the family in
/// bits 24–25 (bits 0–23 stay free for a table that keys by VN as well).
/// An IPv4 key folds without overlap; MAC and IPv6 bits overlap the tag,
/// which only costs collisions.
#[inline]
pub fn fold_eid(eid: &Eid) -> u64 {
    let bits = eid.key_bits();
    (bits >> 64) as u64 ^ bits as u64 ^ (eid.kind() as u64) << 24
}

/// One `(eid, rloc)` row's term of a **slice digest**, the wrapping sum
/// of the terms of a set of rows: order-independent and updated in O(1)
/// (subtract a displaced row's term, add its replacement's). The routing
/// server's registry and a pub/sub border's synced slice agree on it
/// when they hold the same rows. Hashes the whole 128-bit
/// [`Eid::key_bits`], the family and the RLOC through [`KeyHasher`] —
/// not [`fold_eid`], under which MAC and IPv6 keys collide. Checks that
/// two fabric nodes agree, not integrity: [`KeyHasher`] has no secret.
pub fn row_digest(eid: &Eid, rloc: Rloc) -> u64 {
    let bits = eid.key_bits();
    let mut h = KeyHasher::default();
    h.write_u64(bits as u64);
    h.write_u64((bits >> 64) as u64);
    h.write_u64((u64::from(u32::from(rloc.addr())) << 8) | (eid.kind() as u64 + 1));
    h.finish()
}

/// A host [`Eid`] as the key of an exact-match table. `Eq` compares the
/// whole EID; `Hash` hands [`KeyHasher`] one word, [`fold_eid`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EidKey(pub Eid);

impl Hash for EidKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fold_eid(&self.0));
    }
}

/// Bytes a `std` map has reserved, as a lower bound: slot payload and
/// control byte for every slot it can fill before growing (its
/// load-factor slack is not visible from outside). For the map-cache's
/// and the VRF's host tables; the routing server's registry owns its
/// slots and reports them exactly.
pub fn reserved_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// What a table has reserved — what the map-cache, the VRF and the
/// registry report, and what their memory-budget tests bound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes reserved by the table's slots and buffers.
    pub capacity_bytes: usize,
    /// Always 0: no table has stride slots. Kept only because the
    /// benchmark of record (`e2e`, frozen to cleanup PRs) still prints
    /// `trie.stride_fill_share` from it; ROADMAP item 1(b) retires the
    /// metric and, with it, this field and `stride_filled`.
    pub stride_slots: usize,
    /// Always 0; see `stride_slots`.
    pub stride_filled: usize,
}

impl MemStats {
    /// Adds another table's stats to this one.
    pub fn merge(&mut self, other: &MemStats) {
        self.capacity_bytes += other.capacity_bytes;
        self.stride_slots += other.stride_slots;
        self.stride_filled += other.stride_filled;
    }
}

impl std::fmt::Display for MemStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} KiB reserved", self.capacity_bytes / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    #[test]
    fn row_digest_separates_what_fold_eid_merges() {
        // Swapping an IPv6 address's halves keeps `fold_eid` and must
        // not keep the row's term.
        let a = Eid::V6(Ipv6Addr::from(
            0x2001_0db8_0000_0001_0000_0000_0000_0005_u128,
        ));
        let b = Eid::V6(Ipv6Addr::from(
            0x0000_0000_0000_0005_2001_0db8_0000_0001_u128,
        ));
        assert_eq!(fold_eid(&a), fold_eid(&b));
        let r = Rloc(Ipv4Addr::new(192, 168, 0, 1));
        assert_ne!(row_digest(&a, r), row_digest(&b, r));
        // Same bits, other family; same EID, other RLOC.
        let v4 = Eid::V4(Ipv4Addr::new(10, 0, 0, 1));
        let mac = Eid::Mac(crate::MacAddr([10, 0, 0, 1, 0, 0]));
        assert_ne!(row_digest(&v4, r), row_digest(&mac, r));
        assert_ne!(
            row_digest(&v4, r),
            row_digest(&v4, Rloc(Ipv4Addr::new(192, 168, 0, 2)))
        );
    }

    #[test]
    fn slice_digest_is_order_independent_and_incremental() {
        let r = |n: u8| Rloc(Ipv4Addr::new(192, 168, 0, n));
        let rows: Vec<(Eid, Rloc)> = (0..8u8)
            .map(|n| (Eid::V4(Ipv4Addr::new(10, 0, 0, n)), r(n % 3)))
            .collect();
        let sum = |rows: &[(Eid, Rloc)]| {
            rows.iter()
                .fold(0u64, |d, (e, r)| d.wrapping_add(row_digest(e, *r)))
        };
        let forward = sum(&rows);
        let mut reversed = rows.clone();
        reversed.reverse();
        assert_eq!(forward, sum(&reversed));
        // Move row 2: subtract its term, add the new one.
        let moved = forward
            .wrapping_sub(row_digest(&rows[2].0, rows[2].1))
            .wrapping_add(row_digest(&rows[2].0, r(9)));
        let mut after = rows.clone();
        after[2].1 = r(9);
        assert_eq!(moved, sum(&after));
        assert_ne!(moved, forward);
    }
}
