//! The dataplane forwarding benchmark: the batched zero-copy engine per
//! FIB size and per direction. `BENCH_dataplane.json`, group
//! `dataplane_fwd`.
//!
//! One *iteration* of every `*_batch32` row processes **32 packets**
//! (divide by 32 for ns/pkt); one iteration of `encap_single` processes
//! one. Frames carry a near-MTU 1400 B payload, where a zero-copy
//! engine earns its keep.
//!
//! * `encap_batch32/{1k,10k,100k,1M}` — ingress hits: parse +
//!   classify + map-cache resolve (host routes: one exact-match probe
//!   per packet) + in-place VXLAN-GPO encap. The 1M row is the
//!   metro-tier FIB (`ctrl_plane`'s endpoint count).
//! * `encap_single/10k` — the same engine called with 1-packet batches
//!   (what batching itself buys; the ratio is printed).
//! * `miss_batch32/10k` — every packet misses, rides the border default
//!   route and punts a Map-Request.
//! * `decap_batch32/10k` — egress: validate stack, enforce policy,
//!   in-place decap + delivery rewrite.
//!
//! No bar: every row times the one engine there is, so there is nothing
//! in the run to hold it against; the ≤ 125 ns/pkt aim (ROADMAP item 4)
//! becomes one only once met. `e2e edge_steady` gates the same path end
//! to end.

use criterion::{black_box, BenchmarkId, Criterion};
use sda_bench::fixtures::{frame_batches, hit_dst, host, populated_switch, remote_ip, vn, PAYLOAD};
use sda_bench::harness::Harness;
use sda_dataplane::{encap, PacketBuf, BATCH_SIZE};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{GroupId, Rloc};
use sda_wire::ipv4;
use std::net::Ipv4Addr;

const ROUTE_COUNTS: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];
const MID_ROUTES: u32 = 10_000;
/// Pre-built distinct batches cycled per iteration.
const PREBUILT_BATCHES: usize = 32;

const ROWS: [(&str, &str); 7] = [
    ("dataplane_fwd", "encap_batch32/1000"),
    ("dataplane_fwd", "encap_batch32/10000"),
    ("dataplane_fwd", "encap_batch32/100000"),
    ("dataplane_fwd", "encap_batch32/1000000"),
    ("dataplane_fwd", "encap_single/10000"),
    ("dataplane_fwd", "miss_batch32/10000"),
    ("dataplane_fwd", "decap_batch32/10000"),
];

/// [`frame_batches`] at this bench's shape: 32 batches of 32.
fn prebuilt(pick: impl Fn(u32) -> Ipv4Addr) -> Vec<Vec<Vec<u8>>> {
    frame_batches(PREBUILT_BATCHES, BATCH_SIZE, pick)
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataplane_fwd");
    let now = SimTime::ZERO + SimDuration::from_secs(1);

    // Ingress hits across FIB sizes, batches of 32.
    for routes in ROUTE_COUNTS {
        let mut sw = populated_switch(routes);
        let batches = prebuilt(hit_dst(routes));
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
        let mut sw = populated_switch(MID_ROUTES);
        let batches = prebuilt(hit_dst(MID_ROUTES));
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
        let mut sw = populated_switch(MID_ROUTES);
        let batches = prebuilt(|i| Ipv4Addr::from(0x0AFF_0000 | (i & 0xFFFF)));
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
        let mut sw = populated_switch(MID_ROUTES);
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

fn main() {
    let mut h = Harness::new("dataplane");
    bench_engine(&mut h.criterion);

    let batch = h.median("dataplane_fwd", "encap_batch32/10000") / BATCH_SIZE as f64;
    let single = h.median("dataplane_fwd", "encap_single/10000");
    let decap = h.median("dataplane_fwd", "decap_batch32/10000") / BATCH_SIZE as f64;
    eprintln!(
        "ns/pkt at 10k routes: encap batched {batch:.0} ({:.2} Mpps), single {single:.0}; \
         decap batched {decap:.0} ({:.2} Mpps)",
        1e3 / batch,
        1e3 / decap,
    );
    h.ratio("encap_single vs encap_batch32 ns/pkt", single / batch);
    h.finish(&ROWS);
}
