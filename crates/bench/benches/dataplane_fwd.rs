//! The dataplane forwarding benchmark: batched zero-copy engine vs. the
//! per-packet Vec-assembling byte path the repo used before the engine
//! landed.
//!
//! Run with: `cargo bench -p sda-bench --bench dataplane_fwd`
//! Smoke mode (CI): `SDA_BENCH_SMOKE=1 cargo bench -p sda-bench --bench
//! dataplane_fwd` — tiny sample sizes, JSON goes to `target/`, and the
//! perf assertion is skipped (shared CI runners are too noisy to gate).
//!
//! Emits `BENCH_dataplane.json` at the workspace root. Schema:
//! `[{group, id, median_ns, mean_ns, p95_ns, iterations}]`, where one
//! *iteration* of every `*_batch32` entry processes **32 packets**
//! (divide by 32 for ns/pkt) and one iteration of the `single`/
//! `baseline` entries processes one.
//!
//! Measured surfaces, per FIB size where it matters:
//!
//! * `encap_batch32/{1k,10k,100k,1M}` — ingress hits: parse +
//!   classify + map-cache resolve (host routes: one exact-match probe
//!   per packet) + in-place VXLAN-GPO encap. The
//!   1M row is the metro-tier FIB (`ctrl_plane`'s endpoint count).
//! * `encap_single/10k` — the same engine called with 1-packet batches
//!   (what batching itself buys).
//! * `miss_batch32/10k` — every packet misses, rides the border default
//!   route and punts a Map-Request.
//! * `decap_batch32/10k` — egress: validate stack, enforce policy,
//!   in-place decap + delivery rewrite.
//! * `baseline_encap/10k` / `baseline_decap/10k` — the frozen
//!   pre-engine per-packet path (the `seed_baseline` module below, the
//!   same freezing discipline as `lpm_hot_path`): parse + classify +
//!   per-packet map-cache lookup, then the seed `encode_packet`
//!   algorithm — one heap `Vec` per layer, each copied into the next,
//!   full UDP checksum — and the reference codec's `decode_packet`
//!   (`sda_bench::pipeline`) for the reverse direction.
//!
//! Frames carry a near-MTU [`PAYLOAD`] (1400 B, the conventional
//! full-size data packet of dataplane benchmarking): that is where the
//! zero-copy design earns its keep — the engine moves start pointers
//! while the per-packet baseline re-copies the payload once per layer
//! and checksums it once more.
//!
//! Acceptance bars asserted below (non-smoke): batched engine encap
//! must be at least **2x** faster per packet than the per-packet
//! baseline, and at least **1.5x** faster than the committed PR-5
//! median (set when the LPM descent gained stride tables; the resolve
//! has since become an exact-match probe).

use criterion::{black_box, BenchmarkId, Criterion};
use sda_bench::pipeline::{decode_packet, encode_packet, InnerPacket, OverlayPacket};
use sda_dataplane::{encap, LocalEndpoint, PacketBuf, Switch, SwitchConfig, BATCH_SIZE};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, MacAddr, PortId, Rloc, VnId};
use sda_wire::{ethernet, ipv4, EtherType};
use std::net::Ipv4Addr;

const ROUTE_COUNTS: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];
const MID_ROUTES: u32 = 10_000;
/// Pre-built distinct batches cycled per iteration, so measurements
/// sweep the FIB instead of hammering one hot entry.
const PREBUILT_BATCHES: usize = 32;
const PAYLOAD: usize = 1400;

/// The committed PR-5 `encap_batch32/10000` median (BENCH_dataplane.json
/// as of the RSS-sharding PR) — whole-batch ns. The stride tentpole's
/// acceptance bar: the batched encap path must beat it by at least 1.5x.
const PR5_ENCAP_BATCH32_10K_NS: f64 = 9147.20;

fn vn() -> VnId {
    VnId::new(7).unwrap()
}

fn remote_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0A09_0000 | (i & 0x00FF_FFFF))
}

fn host() -> LocalEndpoint {
    LocalEndpoint {
        port: PortId(1),
        group: GroupId(10),
        mac: MacAddr::from_seed(1),
        ipv4: Ipv4Addr::new(10, 0, 0, 1),
    }
}

fn build_switch(routes: u32) -> Switch {
    let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
    cfg.border = Some(Rloc::for_router_index(999));
    cfg.default_action = sda_policy::Action::Allow;
    let mut sw = Switch::new(cfg);
    sw.attach(vn(), host());
    for i in 0..routes {
        sw.install_mapping(
            vn(),
            EidPrefix::host(Eid::V4(remote_ip(i))),
            Rloc::for_router_index(2 + (i % 200) as u16),
            SimDuration::from_days(365),
            SimTime::ZERO,
        );
    }
    // Population done: re-lay the table arenas in DFS order (the
    // bulk-load hook the arena trie adds).
    sw.compact_tables();
    sw
}

/// A host frame from the attached endpoint toward `dst`.
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

/// `PREBUILT_BATCHES` batches of `BATCH_SIZE` frames toward
/// pseudo-random destinations drawn by `pick`.
fn frame_batches(pick: impl Fn(u32) -> Ipv4Addr) -> Vec<Vec<Vec<u8>>> {
    (0..PREBUILT_BATCHES)
        .map(|b| {
            (0..BATCH_SIZE)
                .map(|i| frame(pick((b * BATCH_SIZE + i) as u32)))
                .collect()
        })
        .collect()
}

/// Deterministic FIB sweep: stride-97 walk over the installed routes.
fn hit_dst(routes: u32) -> impl Fn(u32) -> Ipv4Addr {
    move |i| remote_ip(i.wrapping_mul(97) % routes)
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataplane_fwd");
    let now = SimTime::ZERO + SimDuration::from_secs(1);

    // Ingress hits across FIB sizes, batches of 32.
    for routes in ROUTE_COUNTS {
        let mut sw = build_switch(routes);
        let batches = frame_batches(hit_dst(routes));
        let mut bufs: Vec<PacketBuf> = (0..BATCH_SIZE).map(|_| PacketBuf::new()).collect();
        let mut which = 0usize;
        group.bench_with_input(
            BenchmarkId::new("encap_batch32", routes),
            &routes,
            |b, _| {
                b.iter(|| {
                    let batch = &batches[which];
                    which = (which + 1) % PREBUILT_BATCHES;
                    for (buf, f) in bufs.iter_mut().zip(batch) {
                        buf.load(f);
                    }
                    black_box(sw.process_ingress(&mut bufs, now));
                    sw.clear_punts();
                });
            },
        );
    }

    // The same engine driven one packet at a time (batching ablation).
    {
        let mut sw = build_switch(MID_ROUTES);
        let batches = frame_batches(hit_dst(MID_ROUTES));
        let mut bufs: Vec<PacketBuf> = vec![PacketBuf::new()];
        let (mut which, mut idx) = (0usize, 0usize);
        group.bench_with_input(
            BenchmarkId::new("encap_single", MID_ROUTES),
            &MID_ROUTES,
            |b, _| {
                b.iter(|| {
                    bufs[0].load(&batches[which][idx]);
                    idx += 1;
                    if idx == BATCH_SIZE {
                        idx = 0;
                        which = (which + 1) % PREBUILT_BATCHES;
                    }
                    black_box(sw.process_ingress(&mut bufs, now));
                    sw.clear_punts();
                });
            },
        );
    }

    // Ingress misses: ride the default route, punt Map-Requests.
    {
        let mut sw = build_switch(MID_ROUTES);
        let batches = frame_batches(|i| Ipv4Addr::from(0x0AFF_0000 | (i & 0xFFFF)));
        let mut bufs: Vec<PacketBuf> = (0..BATCH_SIZE).map(|_| PacketBuf::new()).collect();
        let mut which = 0usize;
        group.bench_with_input(
            BenchmarkId::new("miss_batch32", MID_ROUTES),
            &MID_ROUTES,
            |b, _| {
                b.iter(|| {
                    let batch = &batches[which];
                    which = (which + 1) % PREBUILT_BATCHES;
                    for (buf, f) in bufs.iter_mut().zip(batch) {
                        buf.load(f);
                    }
                    black_box(sw.process_ingress(&mut bufs, now));
                    sw.clear_punts();
                });
            },
        );
    }

    // Egress decap + delivery.
    {
        let mut sw = build_switch(MID_ROUTES);
        let h = host();
        let wires: Vec<Vec<Vec<u8>>> = (0..PREBUILT_BATCHES)
            .map(|b| {
                (0..BATCH_SIZE)
                    .map(|i| {
                        let src = remote_ip((b * BATCH_SIZE + i) as u32 % MID_ROUTES);
                        let inner = ipv4::Repr {
                            src,
                            dst: h.ipv4,
                            protocol: ipv4::Protocol::Unknown(253),
                            payload_len: PAYLOAD,
                            ttl: 64,
                        };
                        let mut w = vec![0u8; encap::UNDERLAY_OVERHEAD + inner.buffer_len()];
                        inner.emit(&mut ipv4::Packet::new_unchecked(
                            &mut w[encap::UNDERLAY_OVERHEAD..],
                        ));
                        encap::write_underlay(
                            &mut w,
                            &encap::EncapParams {
                                outer_src: Rloc::for_router_index(7),
                                outer_dst: Rloc::for_router_index(1),
                                vn: vn(),
                                group: GroupId(10),
                                policy_applied: false,
                                ttl: 8,
                                src_port: 50_000,
                                udp_checksum: encap::OuterChecksum::Zero,
                                inner_proto: encap::InnerProto::Ipv4,
                            },
                        )
                        .unwrap();
                        w
                    })
                    .collect()
            })
            .collect();
        let mut bufs: Vec<PacketBuf> = (0..BATCH_SIZE).map(|_| PacketBuf::new()).collect();
        let mut which = 0usize;
        group.bench_with_input(
            BenchmarkId::new("decap_batch32", MID_ROUTES),
            &MID_ROUTES,
            |b, _| {
                b.iter(|| {
                    let batch = &wires[which];
                    which = (which + 1) % PREBUILT_BATCHES;
                    for (buf, w) in bufs.iter_mut().zip(batch) {
                        buf.load(w);
                    }
                    black_box(sw.process_egress(&mut bufs, now));
                    sw.clear_punts();
                });
            },
        );
    }

    group.finish();
}

/// The frozen pre-engine per-packet forwarding path, kept in the bench
/// (not the library) so the speedup claim stays reproducible from one
/// command — the same discipline as `lpm_hot_path`'s `seed_baseline`.
mod seed_baseline {
    use super::*;
    use sda_dataplane::VrfTable;
    use sda_lisp::{CacheOutcome, MapCache};
    use sda_wire::{udp, vxlan};

    /// Forwards one host frame the way the repo did before the engine:
    /// parse and classify per packet, one map-cache lookup, then the
    /// seed `encode_packet` shape — every layer assembled in its own
    /// heap `Vec` and copied into the next, full UDP checksum.
    pub fn forward(
        vrf: &VrfTable,
        cache: &MapCache,
        self_rloc: Rloc,
        bytes: &[u8],
        now: SimTime,
    ) -> Vec<u8> {
        let eth = ethernet::Frame::new_checked(bytes).expect("valid frame");
        let (vn, src_ep) = vrf.classify(eth.src_addr()).expect("onboarded source");
        let src_group = src_ep.group;
        let ip = ipv4::Packet::new_checked(eth.payload()).expect("valid inner");
        assert_eq!(ip.src_addr(), src_ep.ipv4, "source guard");
        let CacheOutcome::Hit(to) = cache.lookup_shared(vn, Eid::V4(ip.dst_addr()), now) else {
            panic!("installed route must hit");
        };

        // Layer 1: the inner packet, copied out of the frame.
        let inner: Vec<u8> = eth.payload()[..ip.total_len() as usize].to_vec();

        // Layer 2: VXLAN-GPO.
        let vx_repr = vxlan::Repr {
            vn,
            group: Some(src_group),
            policy_applied: false,
            dont_learn: false,
            inner_proto: vxlan::InnerProto::Ipv4,
            payload_len: inner.len(),
        };
        let mut vx = vec![0u8; vx_repr.buffer_len()];
        {
            let mut p = vxlan::Packet::new_unchecked(&mut vx[..]);
            vx_repr.emit(&mut p);
            p.payload_mut().copy_from_slice(&inner);
        }

        // Layer 3: UDP, checksummed over the whole datagram.
        let udp_repr = udp::Repr {
            src_port: 49152,
            dst_port: udp::VXLAN_PORT,
            payload_len: vx.len(),
        };
        let mut dgram = vec![0u8; udp_repr.buffer_len()];
        {
            let mut p = udp::Packet::new_unchecked(&mut dgram[..]);
            udp_repr.emit(&mut p);
            p.payload_mut().copy_from_slice(&vx);
            p.fill_checksum(self_rloc.addr(), to.addr());
        }

        // Layer 4: outer IPv4.
        let outer_repr = ipv4::Repr {
            src: self_rloc.addr(),
            dst: to.addr(),
            protocol: ipv4::Protocol::Udp,
            payload_len: dgram.len(),
            ttl: 8,
        };
        let mut outer = vec![0u8; outer_repr.buffer_len()];
        {
            let mut p = ipv4::Packet::new_unchecked(&mut outer[..]);
            outer_repr.emit(&mut p);
            p.payload_mut().copy_from_slice(&dgram);
        }
        outer
    }
}

fn bench_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataplane_fwd");
    let now = SimTime::ZERO + SimDuration::from_secs(1);

    // Per-packet baseline: same frames, same tables, seed idiom.
    {
        let mut vrf = sda_dataplane::VrfTable::new();
        vrf.attach(vn(), host());
        let mut cache = sda_lisp::MapCache::new();
        for i in 0..MID_ROUTES {
            cache.install(
                vn(),
                EidPrefix::host(Eid::V4(remote_ip(i))),
                Rloc::for_router_index(2 + (i % 200) as u16),
                SimDuration::from_days(365),
                SimTime::ZERO,
            );
        }
        let batches = frame_batches(hit_dst(MID_ROUTES));
        let frames: Vec<&Vec<u8>> = batches.iter().flatten().collect();
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("baseline_encap", MID_ROUTES),
            &MID_ROUTES,
            |b, _| {
                b.iter(|| {
                    let f = frames[i];
                    i = (i + 1) % frames.len();
                    black_box(seed_baseline::forward(
                        &vrf,
                        &cache,
                        Rloc::for_router_index(1),
                        f,
                        now,
                    ))
                });
            },
        );
    }

    // Per-packet decode baseline on bytes the engine would receive.
    {
        let h = host();
        let wires: Vec<Vec<u8>> = (0..PREBUILT_BATCHES * BATCH_SIZE)
            .map(|i| {
                let pkt = OverlayPacket {
                    vn: vn(),
                    src_group: GroupId(10),
                    policy_applied: false,
                    hops_left: 8,
                    origin: Rloc::for_router_index(7),
                    inner: InnerPacket {
                        src: Eid::V4(remote_ip(i as u32 % MID_ROUTES)),
                        dst: Eid::V4(h.ipv4),
                        payload_len: PAYLOAD as u16,
                        flow: i as u64,
                        track: false,
                    },
                };
                encode_packet(
                    Rloc::for_router_index(7),
                    Rloc::for_router_index(1),
                    &pkt,
                    encap::OuterChecksum::Full,
                )
                .unwrap()
            })
            .collect();
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("baseline_decap", MID_ROUTES),
            &MID_ROUTES,
            |b, _| {
                b.iter(|| {
                    let w = &wires[i];
                    i = (i + 1) % wires.len();
                    black_box(decode_packet(w).unwrap())
                });
            },
        );
    }

    group.finish();
}

fn main() {
    let smoke = std::env::var("SDA_BENCH_SMOKE").is_ok();
    let mut criterion = if smoke {
        Criterion::default()
            .sample_size(10)
            .measurement_time(std::time::Duration::from_millis(60))
            .warm_up_time(std::time::Duration::from_millis(20))
    } else {
        Criterion::default()
            .sample_size(40)
            .measurement_time(std::time::Duration::from_millis(600))
            .warm_up_time(std::time::Duration::from_millis(200))
    };
    bench_engine(&mut criterion);
    bench_baseline(&mut criterion);

    let out = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_dataplane.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dataplane.json")
    };
    criterion
        .write_json(out)
        .expect("write BENCH_dataplane.json");
    eprintln!("wrote {out}");

    let results = criterion.results();
    let median = |id: &str| {
        results
            .iter()
            .find(|r| r.group == "dataplane_fwd" && r.id == id)
            .map(|r| r.median_ns)
            .expect("bench result present")
    };
    let per_pkt = |id: &str| median(id) / BATCH_SIZE as f64;

    let batch = per_pkt("encap_batch32/10000");
    let single = median("encap_single/10000");
    let baseline = median("baseline_encap/10000");
    let decap = per_pkt("decap_batch32/10000");
    let decap_baseline = median("baseline_decap/10000");
    eprintln!(
        "encap: batched {batch:.0} ns/pkt ({:.2} Mpps) vs single {single:.0} ns/pkt vs \
         per-packet baseline {baseline:.0} ns/pkt -> {:.1}x (batch), {:.1}x (single)",
        1e3 / batch,
        baseline / batch,
        baseline / single,
    );
    eprintln!(
        "decap: batched {decap:.0} ns/pkt ({:.2} Mpps) vs per-packet baseline \
         {decap_baseline:.0} ns/pkt -> {:.1}x",
        1e3 / decap,
        decap_baseline / decap,
    );

    let pr5_ratio = PR5_ENCAP_BATCH32_10K_NS / median("encap_batch32/10000");
    eprintln!(
        "encap batch vs committed PR-5 median: {pr5_ratio:.2}x ({:.0} ns -> {:.0} ns)",
        PR5_ENCAP_BATCH32_10K_NS,
        median("encap_batch32/10000")
    );

    if smoke {
        eprintln!("smoke mode: skipping the perf assertions");
        return;
    }
    // The PR-4 acceptance bar: batched engine encap at 10k routes must
    // be at least 2x the per-packet Vec-assembling baseline.
    assert!(
        baseline / batch >= 2.0,
        "batched encap fell below the 2x acceptance bar: {:.2}x",
        baseline / batch
    );
    // The PR-6 acceptance bar: batched encap at least 1.5x under the
    // committed PR-5 whole-batch median.
    assert!(
        pr5_ratio >= 1.5,
        "batched encap fell below the 1.5x bar vs the committed PR-5 median: {pr5_ratio:.2}x"
    );
}
