//! The routing server's memory budgets at a million IPv4 endpoints,
//! registered as the metro workload lays them out: 64 VNs round-robin,
//! consecutive endpoints in different /16 partition blocks (a prime
//! stride of 251 over the second octet), so every shard of a
//! partitioned server owns a share of every VN.
//!
//! * One shard's registry tables reserve at most 36 MiB. They read 32.0:
//!   16-byte narrow slots at 7/16–7/8 load, so a field added to the
//!   narrow slot fails here before it reaches `ctrl_resolve`'s resident
//!   set.
//! * Four shards reserve at most 1.25× one shard (they read 1.00×):
//!   shards partition the world, they must not replicate it.
//!
//! Both are byte counts ([`PartitionedMapServer::mem_stats`]), not
//! timings, so they hold on any machine.

use sda_ctrl::PartitionedMapServer;
use sda_simnet::SimTime;
use sda_types::{Eid, Rloc, VnId};
use sda_wire::lisp::Message;
use std::net::Ipv4Addr;

const ENDPOINTS: u32 = 1_000_000;
const MIB: f64 = 1024.0 * 1024.0;

/// Registry bytes of a `shards`-shard server holding every endpoint.
fn registry_bytes(shards: usize) -> usize {
    let mut server = PartitionedMapServer::new(Rloc::for_router_index(1000), shards);
    for i in 0..ENDPOINTS {
        let (block, host) = (i % 251, i / 251);
        server.handle(
            Message::MapRegister {
                nonce: u64::from(i) + 1,
                vn: VnId::new(1 + i % 64).unwrap(),
                eid: Eid::V4(Ipv4Addr::from(0x0A00_0000 | (block << 16) | host)),
                rloc: Rloc::for_router_index(1 + (i % 256) as u16),
                ttl_secs: 48 * 3600,
                want_notify: false,
            },
            SimTime::ZERO,
        );
    }
    assert_eq!(server.db_len(), ENDPOINTS as usize);
    if shards == 4 {
        assert!(
            server.shard_lens().iter().all(|&n| n > 0),
            "every shard owns a share"
        );
    }
    server.mem_stats().capacity_bytes
}

#[test]
fn one_shard_registry_for_a_million_endpoints_fits_36_mib() {
    let mib = registry_bytes(1) as f64 / MIB;
    eprintln!("1-shard registry at 1M: {mib:.1} MiB (budget 36)");
    assert!(mib <= 36.0, "1-shard registry reserves {mib:.1} MiB");
}

#[test]
fn four_shards_reserve_at_most_a_quarter_more_than_one() {
    let ratio = registry_bytes(4) as f64 / registry_bytes(1) as f64;
    eprintln!("4-shard vs 1-shard registry bytes at 1M: {ratio:.2} (budget 1.25)");
    assert!(ratio <= 1.25, "4 shards reserve {ratio:.2}× one shard");
}
