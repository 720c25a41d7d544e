//! The one hasher of the fabric's exact-match tables, and their size
//! accounting.

use std::collections::HashMap;
use std::hash::Hasher;

/// One widening multiply, high half folded onto the low half: hashbrown
/// indexes with the low bits and tags with the top seven, and the fold
/// puts every key bit into both.
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

/// Bytes `map` has reserved, as a lower bound: slot payload and control
/// byte for every slot it can fill before growing (its load-factor slack
/// is not visible from outside).
pub fn reserved_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}
