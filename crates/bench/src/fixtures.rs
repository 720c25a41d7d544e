//! Fixtures the per-layer benches and the figures share: one VN, one
//! attached host, the EID spaces, near-MTU host frames and the edge
//! configuration `mt_fwd` forwards them under, and the preloaded
//! routing server of Fig. 7.

use sda_ctrl::PartitionedMapServer;
use sda_dataplane::{LocalEndpoint, Switch, SwitchConfig};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, MacAddr, PortId, Rloc, VnId};
use sda_wire::lisp::Message;
use sda_wire::{ethernet, ipv4, EtherType};
use std::net::Ipv4Addr;

/// Inner payload of every frame: the conventional full-size data packet,
/// where a zero-copy engine earns its keep.
const PAYLOAD: usize = 1400;

/// Lifetime of every installed host route: outlives any run.
pub const ROUTE_TTL: SimDuration = SimDuration::from_days(365);

/// The VN everything is registered, attached and forwarded in.
pub fn vn() -> VnId {
    VnId::new(7).expect("24-bit VN id")
}

/// Deterministic, distinct registry / map-cache EIDs ("each query
/// requested or updated a different route", §4.1).
pub fn eid(i: u32) -> Eid {
    Eid::V4(Ipv4Addr::from(0x0A00_0000 | (i & 0x00FF_FFFF)))
}

/// The server the fabric runs (one shard) with [`eid`]`(0..routes)`
/// registered in [`vn`], spread over 200 RLOCs: Fig. 7's starting point.
pub fn preloaded_server(routes: u32) -> PartitionedMapServer {
    let mut s = PartitionedMapServer::new(Rloc::for_router_index(65_000), 1);
    for i in 0..routes {
        s.handle(
            Message::MapRegister {
                nonce: u64::from(i),
                vn: vn(),
                eid: eid(i),
                rloc: Rloc::for_router_index((i % 200) as u16),
                ttl_secs: 0,
                want_notify: false,
            },
            SimTime::ZERO,
        );
    }
    s
}

/// Address of the `i`-th remote endpoint of the forwarding benches.
fn remote_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0A09_0000 | (i & 0x00FF_FFFF))
}

/// The one locally attached endpoint: source of every frame.
pub fn host() -> LocalEndpoint {
    LocalEndpoint {
        port: PortId(1),
        group: GroupId(10),
        mac: MacAddr::from_seed(1),
        ipv4: Ipv4Addr::new(10, 0, 0, 1),
    }
}

/// An edge with a border default route and an allow-all default action.
pub fn switch_config() -> SwitchConfig {
    let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
    cfg.border = Some(Rloc::for_router_index(999));
    cfg.default_action = sda_policy::Action::Allow;
    cfg
}

/// Host routes to the first `routes` remote endpoints, spread over 200
/// RLOCs: what a forwarding bench installs before it measures.
pub fn host_routes(routes: u32) -> impl Iterator<Item = (EidPrefix, Rloc)> {
    (0..routes).map(|i| {
        let rloc = Rloc::for_router_index(2 + (i % 200) as u16);
        (EidPrefix::host(Eid::V4(remote_ip(i))), rloc)
    })
}

/// The single-threaded engine with [`host`] attached and
/// [`host_routes`]`(routes)` installed.
pub fn populated_switch(routes: u32) -> Switch {
    let mut sw = Switch::new(switch_config());
    sw.attach(vn(), host());
    for (prefix, rloc) in host_routes(routes) {
        sw.install_mapping(vn(), prefix, rloc, ROUTE_TTL, SimTime::ZERO);
    }
    sw
}

/// A host frame from [`host`] toward `dst`, [`PAYLOAD`] bytes inside.
fn frame(dst: Ipv4Addr) -> Vec<u8> {
    let h = host();
    let inner = ipv4::Repr {
        src: h.ipv4,
        dst,
        protocol: ipv4::Protocol::Unknown(253),
        payload_len: PAYLOAD,
        ttl: 64,
    };
    let mut buf = vec![0u8; ethernet::HEADER_LEN + inner.buffer_len()];
    ethernet::Repr {
        dst: MacAddr::BROADCAST,
        src: h.mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
    inner.emit(&mut ipv4::Packet::new_unchecked(
        &mut buf[ethernet::HEADER_LEN..],
    ));
    buf
}

/// `batches` batches of `len` frames, frame `n` overall toward `pick(n)`
/// — cycled per iteration so a row sweeps the FIB instead of hammering
/// one hot entry.
pub fn frame_batches(
    batches: usize,
    len: usize,
    pick: impl Fn(u32) -> Ipv4Addr,
) -> Vec<Vec<Vec<u8>>> {
    let batch = |b: usize| {
        (0..len)
            .map(|i| frame(pick((b * len + i) as u32)))
            .collect()
    };
    (0..batches).map(batch).collect()
}

/// Deterministic FIB sweep for [`frame_batches`]: a stride-97 walk over
/// the installed routes, every destination a hit.
pub fn hit_dst(routes: u32) -> impl Fn(u32) -> Ipv4Addr {
    move |i| remote_ip(i.wrapping_mul(97) % routes)
}
