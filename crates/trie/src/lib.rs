//! # sda-trie
//!
//! A Patricia (path-compressed binary radix) trie, the data structure the
//! paper credits for the routing server's flat lookup latency:
//!
//! > "it makes it easy to implement the routing server with a Patricia
//! > Trie. The delay of this data structure depends on the number of bits
//! > of the keys, not the number of elements" (§4.1, citing Morrison 1968).
//!
//! Two layers:
//!
//! * [`trie::PatriciaTrie`] — the generic bit-keyed trie with exact-match,
//!   longest-prefix-match (plain and filtered, both through `&self`)
//!   and `retain` operations.
//! * [`map::EidTrie`] — an address-family-aware wrapper keyed by
//!   [`sda_types::EidPrefix`], with one inner trie per family so IPv4,
//!   IPv6 and MAC keys never collide.
//!
//! Keys are inline `(u128, u8)` bit strings ([`bits::BitStr`]) — every
//! key in the system is at most 128 bits (IPv6), so the lookup path is
//! zero-allocation word arithmetic. Nodes live in a contiguous arena
//! (`u32`-indexed, DFS-compacted after bulk loads, with dense upper
//! levels promoted to multibit stride fanout tables — see the `trie`
//! module docs for the layout rationale and the promotion/demotion
//! rules). See the `bits` module docs for
//! the key representation and `benches/lpm_hot_path.rs` in `sda-bench`
//! for the measured effect (`BENCH_lpm.json` at the repo root).
//!
//! The benchmark `fig7_routing_server` measures these operations directly
//! to reproduce Fig. 7a/7b.

pub mod bits;
pub mod map;
pub mod trie;

pub use bits::BitStr;
pub use map::EidTrie;
pub use trie::{MemStats, PatriciaTrie};
