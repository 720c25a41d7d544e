//! # sda-trie
//!
//! A Patricia (path-compressed binary radix) trie, the data structure the
//! paper credits for the routing server's flat lookup latency:
//!
//! > "it makes it easy to implement the routing server with a Patricia
//! > Trie. The delay of this data structure depends on the number of bits
//! > of the keys, not the number of elements" (§4.1, citing Morrison 1968).
//!
//! In this fabric it is the map-cache's cold covering-prefix table; the
//! registry, the VRF and the map-cache's host routes are hash tables.
//! Two layers:
//!
//! * [`PatriciaTrie`] — the generic bit-keyed trie: exact match, one
//!   filtered longest-prefix match through `&self`, `retain`, and a DFS
//!   re-layout of its 32-byte-node arena (see the `trie` module docs).
//! * [`EidTrie`] — an address-family-aware wrapper keyed by
//!   [`sda_types::EidPrefix`], with one inner trie per family so IPv4,
//!   IPv6 and MAC keys never collide.
//!
//! Keys are inline `(u128, u8)` bit strings ([`BitStr`]) — every key in
//! the system is at most 128 bits (IPv6), so the lookup path is
//! zero-allocation word arithmetic.

#![forbid(unsafe_code)]

mod bits;
mod map;
mod trie;

pub use bits::BitStr;
pub use map::EidTrie;
pub use trie::{MemStats, PatriciaTrie};
