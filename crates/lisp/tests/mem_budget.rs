//! The map-cache's memory budget: a million host routes reserve at most
//! 192 MiB. Host routes live in the exact-match table alone (key plus
//! `CacheEntry` per slot), which [`MapCache::mem_stats`] reports in
//! `capacity_bytes`. The layout is deterministic, so this is a byte
//! count, not a timing, and holds on any machine. It reads 85.8 MiB.

use sda_lisp::MapCache;
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, Rloc, VnId};
use std::net::Ipv4Addr;

const ROUTES: u32 = 1_000_000;
const BUDGET_MIB: f64 = 192.0;

#[test]
fn a_million_host_routes_fit_192_mib() {
    let vn = VnId::new(7).unwrap();
    let ttl = SimDuration::from_days(365);
    let mut cache = MapCache::new();
    for i in 0..ROUTES {
        let eid = Eid::V4(Ipv4Addr::from(0x0A00_0000 | i));
        let rloc = Rloc::for_router_index((i % 200) as u16);
        cache.install(vn, EidPrefix::host(eid), rloc, ttl, SimTime::ZERO);
    }
    assert_eq!(cache.len(), ROUTES as usize);
    let mib = cache.mem_stats().capacity_bytes as f64 / (1024.0 * 1024.0);
    eprintln!("1M-entry map-cache: {mib:.1} MiB (budget {BUDGET_MIB})");
    assert!(
        mib <= BUDGET_MIB,
        "1M-entry map-cache reserves {mib:.1} MiB"
    );
}
