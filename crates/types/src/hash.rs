//! The one hasher of the fabric's exact-match tables, and their size
//! accounting.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::Eid;

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
/// registry report, and what the `lpm_hot_path` bench budgets.
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
