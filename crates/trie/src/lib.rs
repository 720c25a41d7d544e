//! # sda-trie
//!
//! A Patricia (path-compressed binary radix) trie, the data structure the
//! paper credits for the routing server's flat lookup latency:
//!
//! > "it makes it easy to implement the routing server with a Patricia
//! > Trie. The delay of this data structure depends on the number of bits
//! > of the keys, not the number of elements" (§4.1, citing Morrison 1968).
//!
//! No table of the running fabric holds one: the registry, the VRF and
//! the map-cache are hash tables and sorted vectors, and no production
//! crate depends on this one. What is left of its users: the benchmark
//! of record (`e2e`'s `trie.*` probes build stand-alone tries) and the
//! trie-backed reference registry `sda-lisp`'s property tests hold the
//! production registry to; `tests/mem_budget.rs` holds a 1M-route trie
//! to 128 MiB. Two layers:
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
//!
//! ## Surface
//!
//! The crate **is** its root: [`PatriciaTrie`], [`EidTrie`], the
//! [`BitStr`] key and the [`MemStats`] report (defined in `sda-types`,
//! re-exported here). Every module is private. It **is not** on any hot
//! path of the running fabric, and it has no stride tables:
//! `MemStats::{stride_slots, stride_filled}` always read 0.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod bits;
mod map;
mod trie;

pub use bits::BitStr;
pub use map::EidTrie;
pub use sda_types::MemStats;
pub use trie::PatriciaTrie;
