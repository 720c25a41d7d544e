//! Proof, not promise: the steady-state forwarding path — batched
//! ingress encap (hit, stale and miss→default-route) and egress decap —
//! performs **zero heap allocations per packet** once the engine's
//! scratch vectors and the buffer pool have warmed up: first with a
//! host-routes-only map-cache (every resolve one hash probe), then with
//! a covering prefix and TTL-dead host routes installed, so misses and
//! dead hits scan the VN's covers for a live one as well (installs
//! allocate; they run between the measured windows).
//!
//! Since the multi-core split, `Switch::process_ingress`/`process_egress`
//! *are* the per-worker path: the same `ingress_batch`/`egress_batch`
//! over `&SharedTables` + `&mut WorkerCtx` that every `MtSwitch` worker
//! runs — so these windows prove the shared-read lookup
//! (`MapCache::lookup_batch_shared`: table probe, filtered `&self` cover
//! scan, atomic metadata refresh) allocates nothing per packet. A
//! third window below additionally measures the shared map-cache entry
//! point in isolation, and a fourth drives the *fused* lookup+enforce
//! pass — compiled-ACL verdicts (allow, explicit deny, default-action
//! deny) on the §5.3 ingress-hint path, the always-on local-delivery
//! sites and the egress memo path, counters ticking on shared atomics —
//! and proves it allocates nothing either. A fifth probes the VRF hash
//! table directly (`classify`/`lookup`, hit and miss) and drives the
//! engine one packet per call.
//!
//! This file deliberately holds a single `#[test]` — the counter is
//! process-global, and a concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use sda_dataplane::{
    encap, DropReason, LocalEndpoint, PacketBuf, Switch, SwitchConfig, Verdict, BATCH_SIZE,
};
use sda_policy::{Action, ConnectivityMatrix, EnforcementPoint};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, Ipv4Prefix, MacAddr, PortId, Rloc, VnId};
use sda_wire::{ethernet, ipv4, EtherType};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn frame(src: &LocalEndpoint, dst_ip: Ipv4Addr, payload_len: usize) -> Vec<u8> {
    let inner = ipv4::Repr {
        src: src.ipv4,
        dst: dst_ip,
        protocol: ipv4::Protocol::Unknown(253),
        payload_len,
        ttl: 64,
    };
    let mut buf = vec![0u8; ethernet::HEADER_LEN + inner.buffer_len()];
    ethernet::Repr {
        dst: MacAddr::BROADCAST,
        src: src.mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
    inner.emit(&mut ipv4::Packet::new_unchecked(
        &mut buf[ethernet::HEADER_LEN..],
    ));
    buf
}

#[test]
fn steady_state_forwarding_allocates_nothing() {
    const ROUTES: u32 = 10_000;
    let vn = VnId::new(1).unwrap();
    let remote_ip = |i: u32| Ipv4Addr::from(0x0A09_0000 | (i & 0xFFFF));
    let ttl = SimDuration::from_secs(3600);
    let now = SimTime::ZERO + SimDuration::from_secs(1);

    let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
    cfg.border = Some(Rloc::for_router_index(99));
    let mut sw = Switch::new(cfg);
    let host = LocalEndpoint {
        port: PortId(1),
        group: GroupId(10),
        mac: MacAddr::from_seed(1),
        ipv4: Ipv4Addr::new(10, 0, 0, 1),
    };
    sw.attach(vn, host);
    for i in 0..ROUTES {
        sw.install_mapping(
            vn,
            EidPrefix::host(Eid::V4(remote_ip(i))),
            Rloc::for_router_index(2 + (i % 200) as u16),
            ttl,
            SimTime::ZERO,
        );
    }
    // Half the FIB is SMR'd so the stale path is exercised too.
    for i in 0..ROUTES / 2 {
        sw.receive_smr(vn, Eid::V4(remote_ip(i)), SimTime::ZERO);
    }

    // Pre-built wire images: hits/stales, misses, and underlay packets
    // for the egress direction (all built before measurement starts).
    let hit_frames: Vec<Vec<u8>> = (0..BATCH_SIZE as u32)
        .map(|i| frame(&host, remote_ip(i * 97 % ROUTES), 256))
        .collect();
    let miss_frames: Vec<Vec<u8>> = (0..BATCH_SIZE as u32)
        .map(|i| frame(&host, Ipv4Addr::from(0x0AFF_0000 | i), 256))
        .collect();
    let egress_wire: Vec<Vec<u8>> = (0..BATCH_SIZE as u32)
        .map(|i| {
            let f = frame(
                &LocalEndpoint {
                    ipv4: remote_ip(i),
                    ..host
                },
                host.ipv4,
                256,
            );
            let inner = &f[ethernet::HEADER_LEN..];
            let mut w = vec![0u8; encap::UNDERLAY_OVERHEAD + inner.len()];
            w[encap::UNDERLAY_OVERHEAD..].copy_from_slice(inner);
            encap::write_underlay(
                &mut w,
                &encap::EncapParams {
                    outer_src: Rloc::for_router_index(7),
                    outer_dst: Rloc::for_router_index(1),
                    vn,
                    group: GroupId(10),
                    policy_applied: true,
                    ttl: 8,
                    src_port: 50_000,
                    udp_checksum: encap::OuterChecksum::Zero,
                    inner_proto: encap::InnerProto::Ipv4,
                },
            )
            .unwrap();
            w
        })
        .collect();

    let mut bufs: Vec<PacketBuf> = (0..BATCH_SIZE).map(|_| PacketBuf::new()).collect();

    let mut run = |sw: &mut Switch, frames: &[Vec<u8>], ingress: bool| -> (u64, u64, u64) {
        let (mut fwd, mut deliver, mut drop) = (0u64, 0u64, 0u64);
        for (buf, f) in bufs.iter_mut().zip(frames) {
            assert!(buf.load(f));
        }
        let verdicts = if ingress {
            sw.process_ingress(&mut bufs, now)
        } else {
            sw.process_egress(&mut bufs, now)
        };
        for v in verdicts {
            match v {
                Verdict::Forward { .. } => fwd += 1,
                Verdict::Deliver { .. } => deliver += 1,
                Verdict::DeliverExternal => unreachable!("no external routes installed"),
                Verdict::Drop(r) => {
                    assert_eq!(*r, DropReason::Policy, "only policy drops expected");
                    drop += 1;
                }
            }
        }
        sw.clear_punts();
        (fwd, deliver, drop)
    };

    // Warm-up: lets every scratch vector reach its high-water capacity.
    run(&mut sw, &hit_frames, true);
    run(&mut sw, &miss_frames, true);
    run(&mut sw, &egress_wire, false);

    const ROUNDS: u64 = 200;
    let batch = BATCH_SIZE as u64;

    // Window 1: host routes only.
    let before = allocations();
    let (mut fwd, mut deliver) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let (f, _, _) = run(&mut sw, &hit_frames, true);
        fwd += f;
        let (f, _, _) = run(&mut sw, &miss_frames, true);
        fwd += f;
        let (_, d, _) = run(&mut sw, &egress_wire, false);
        deliver += d;
    }
    let after = allocations();

    assert_eq!(fwd, 2 * ROUNDS * batch, "hits + misses all forwarded");
    assert_eq!(deliver, ROUNDS * batch, "egress all delivered");
    assert_eq!(
        after - before,
        0,
        "steady-state forwarding performed {} heap allocations over {} packets",
        after - before,
        3 * ROUNDS * batch
    );

    // Window 2: both halves of the map-cache at work. Window 1 never
    // left the host-route table (no cover installed, so a miss answers
    // from the empty cover list). One live covering prefix changes that:
    // hits and stales still ride the table, while of the 32 "miss" frames
    // the first 8 meet a TTL-dead host route and fall through to the cover,
    // the next 8 miss the table and find the cover, and the last 16 scan
    // the covers to a real miss. All forward; the installs happen outside
    // the window.
    sw.install_mapping(
        vn,
        Ipv4Prefix::new(Ipv4Addr::from(0x0AFF_0000), 28)
            .unwrap()
            .into(),
        Rloc::for_router_index(3),
        ttl,
        SimTime::ZERO,
    );
    for i in 0..8 {
        sw.install_mapping(
            vn,
            EidPrefix::host(Eid::V4(Ipv4Addr::from(0x0AFF_0000 | i))),
            Rloc::for_router_index(4),
            SimDuration::ZERO,
            SimTime::ZERO,
        );
    }
    let before = allocations();
    let (mut fwd, mut deliver) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let (f, _, _) = run(&mut sw, &hit_frames, true);
        fwd += f;
        let (f, _, _) = run(&mut sw, &miss_frames, true);
        fwd += f;
        let (_, d, _) = run(&mut sw, &egress_wire, false);
        deliver += d;
    }
    let after = allocations();

    assert_eq!(fwd, 2 * ROUNDS * batch, "forwarding over a cover intact");
    assert_eq!(deliver, ROUNDS * batch, "egress over a cover intact");
    assert_eq!(
        after - before,
        0,
        "forwarding over a cover performed {} heap allocations over {} packets",
        after - before,
        3 * ROUNDS * batch
    );

    // Window 3: the shared-read lookup entry point in isolation — the
    // exact call every MtSwitch worker makes per same-VN run — on a run
    // longer than a batch, with misses mixed in.
    let probes: Vec<Eid> = (0..96u32)
        .map(|i| {
            if i % 5 == 4 {
                Eid::V4(Ipv4Addr::from(0x0AFF_0000 | i)) // miss
            } else {
                Eid::V4(remote_ip(i * 97 % ROUTES))
            }
        })
        .collect();
    let mut out = Vec::new();
    sw.map_cache()
        .lookup_batch_shared(vn, &probes, now, &mut out); // warm `out`
    let before = allocations();
    for _ in 0..ROUNDS {
        sw.map_cache()
            .lookup_batch_shared(vn, &probes, now, &mut out);
        assert_eq!(out.len(), probes.len());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "shared-read batched lookup performed {} heap allocations",
        after - before
    );

    // Window 4: the fused lookup+enforce pass. Three destination
    // classes — explicit allow, explicit deny, and no-rule (the deny
    // default decides) — hit every compiled-ACL enforcement site:
    //
    //   * local L3 delivery on the egress-enforcement switch (always
    //     enforced, counting),
    //   * the egress decap path with the A bit clear (one-entry per-VN
    //     view memo),
    //   * the §5.3 ingress-hint check inside the same per-VN run as
    //     the map-cache resolve (per-run `vn_view`, hint known/deny/
    //     unknown), on a second ingress-enforcement switch.
    //
    // Exact verdict accounting per class, exact allowed/dropped deltas
    // on the shared atomics, and zero heap allocations.
    let allow_ep = LocalEndpoint {
        port: PortId(2),
        group: GroupId(20),
        mac: MacAddr::from_seed(2),
        ipv4: Ipv4Addr::new(10, 0, 0, 2),
    };
    let deny_ep = LocalEndpoint {
        port: PortId(3),
        group: GroupId(30),
        mac: MacAddr::from_seed(3),
        ipv4: Ipv4Addr::new(10, 0, 0, 3),
    };
    let default_ep = LocalEndpoint {
        port: PortId(4),
        group: GroupId(40),
        mac: MacAddr::from_seed(4),
        ipv4: Ipv4Addr::new(10, 0, 0, 4),
    };
    let mut m = ConnectivityMatrix::new();
    m.set_rule(vn, GroupId(10), GroupId(20), Action::Allow);
    m.set_rule(vn, GroupId(10), GroupId(30), Action::Deny);
    // GroupId(40): no rule — the compiled-in deny default decides.
    sw.attach(vn, allow_ep);
    sw.attach(vn, deny_ep);
    sw.attach(vn, default_ep);
    sw.install_matrix(&m);

    let classes = [allow_ep, deny_ep, default_ep];
    let per_batch_allow = (BATCH_SIZE as u64).div_ceil(3);
    let per_batch_deny = BATCH_SIZE as u64 - per_batch_allow;

    // Local delivery frames (host → same-edge endpoint, all enforced).
    let local_frames: Vec<Vec<u8>> = (0..BATCH_SIZE)
        .map(|i| frame(&host, classes[i % 3].ipv4, 256))
        .collect();
    // Egress wires with the A bit clear: decap must enforce via the
    // per-VN view memo.
    let enforce_wire: Vec<Vec<u8>> = (0..BATCH_SIZE)
        .map(|i| {
            let f = frame(
                &LocalEndpoint {
                    ipv4: remote_ip(i as u32),
                    ..host
                },
                classes[i % 3].ipv4,
                256,
            );
            let inner = &f[ethernet::HEADER_LEN..];
            let mut w = vec![0u8; encap::UNDERLAY_OVERHEAD + inner.len()];
            w[encap::UNDERLAY_OVERHEAD..].copy_from_slice(inner);
            encap::write_underlay(
                &mut w,
                &encap::EncapParams {
                    outer_src: Rloc::for_router_index(7),
                    outer_dst: Rloc::for_router_index(1),
                    vn,
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
        .collect();

    // A second switch with §5.3 ingress enforcement: remote
    // destinations resolve in the lockstep run and the hint check rides
    // the same pass. Classes cycle known-allow / known-deny / no hint
    // (the signaling gap: travels unenforced).
    let mut hint_cfg = SwitchConfig::new(Rloc::for_router_index(1));
    hint_cfg.border = Some(Rloc::for_router_index(99));
    hint_cfg.enforcement = EnforcementPoint::Ingress;
    let mut sw_hint = Switch::new(hint_cfg);
    sw_hint.attach(vn, host);
    sw_hint.install_matrix(&m);
    for i in 0..BATCH_SIZE as u32 {
        sw_hint.install_mapping(
            vn,
            EidPrefix::host(Eid::V4(remote_ip(i))),
            Rloc::for_router_index(2 + (i % 8) as u16),
            ttl,
            SimTime::ZERO,
        );
        match i as usize % 3 {
            0 => sw_hint.install_dst_hint(vn, Eid::V4(remote_ip(i)), GroupId(20)),
            1 => sw_hint.install_dst_hint(vn, Eid::V4(remote_ip(i)), GroupId(30)),
            _ => {} // unknown destination group
        }
    }
    let hint_frames: Vec<Vec<u8>> = (0..BATCH_SIZE)
        .map(|i| frame(&host, remote_ip(i as u32), 256))
        .collect();
    // Hinted-deny packets drop; known-allow and unknown-hint forward.
    let per_batch_hint_fwd = (BATCH_SIZE as u64).div_ceil(3) + BATCH_SIZE as u64 / 3;
    let per_batch_hint_drop = BATCH_SIZE as u64 - per_batch_hint_fwd;

    // Warm-up, then snapshot the shared counters for the delta check.
    run(&mut sw, &local_frames, true);
    run(&mut sw, &enforce_wire, false);
    run(&mut sw_hint, &hint_frames, true);
    let (base_allow, base_deny) = sw.acl().counters();
    let (hint_base_allow, hint_base_deny) = sw_hint.acl().counters();

    let before = allocations();
    let (mut deliver, mut drop, mut hint_fwd, mut hint_drop) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..ROUNDS {
        let (_, dv, dr) = run(&mut sw, &local_frames, true);
        deliver += dv;
        drop += dr;
        let (_, dv, dr) = run(&mut sw, &enforce_wire, false);
        deliver += dv;
        drop += dr;
        let (f, _, dr) = run(&mut sw_hint, &hint_frames, true);
        hint_fwd += f;
        hint_drop += dr;
    }
    let after = allocations();

    assert_eq!(
        deliver,
        2 * ROUNDS * per_batch_allow,
        "allow class delivered"
    );
    assert_eq!(
        drop,
        2 * ROUNDS * per_batch_deny,
        "deny + default classes dropped"
    );
    assert_eq!(
        hint_fwd,
        ROUNDS * per_batch_hint_fwd,
        "allow + unknown hints forwarded"
    );
    assert_eq!(
        hint_drop,
        ROUNDS * per_batch_hint_drop,
        "hinted denies dropped"
    );
    // Every enforced packet tallied into the shared Relaxed atomics —
    // the counting discipline survives the fused fast path.
    assert_eq!(
        sw.acl().counters(),
        (
            base_allow + ROUNDS * 2 * per_batch_allow,
            base_deny + ROUNDS * 2 * per_batch_deny
        ),
        "egress-enforcement switch: fused pass must count every verdict"
    );
    assert_eq!(
        sw_hint.acl().counters(),
        (
            hint_base_allow + ROUNDS * (BATCH_SIZE as u64).div_ceil(3),
            hint_base_deny + ROUNDS * per_batch_hint_drop
        ),
        "ingress-enforcement switch: only hinted packets count"
    );
    assert_eq!(
        after - before,
        0,
        "fused lookup+enforce performed {} heap allocations over {} packets",
        after - before,
        3 * ROUNDS * batch
    );

    // Window 5: the VRF hash table alone — `classify` and `lookup`, hit
    // and miss, every key family — and the engine driven one packet per
    // call, the shape the fabric's routers use.
    let other_vn = VnId::new(2).unwrap();
    let stranger = MacAddr::from_seed(999);
    let mut one = [PacketBuf::new()];
    let mut one_packet = |sw: &mut Switch, wire: &[u8], ingress: bool| -> Verdict {
        assert!(one[0].load(wire));
        let v = if ingress {
            sw.process_ingress(&mut one, now)[0]
        } else {
            sw.process_egress(&mut one, now)[0]
        };
        sw.clear_punts();
        v
    };
    one_packet(&mut sw, &hit_frames[0], true);
    one_packet(&mut sw, &miss_frames[0], true);
    one_packet(&mut sw, &egress_wire[0], false);

    let before = allocations();
    let (mut hits, mut misses, mut fwd, mut deliver) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..ROUNDS {
        let vrf = sw.tables().vrf();
        hits += u64::from(vrf.classify(host.mac) == Some((vn, &host)));
        hits += u64::from(vrf.lookup(vn, Eid::V4(allow_ep.ipv4)) == Some(&allow_ep));
        hits += u64::from(vrf.lookup(vn, Eid::Mac(deny_ep.mac)) == Some(&deny_ep));
        misses += u64::from(vrf.classify(stranger).is_none());
        misses += u64::from(vrf.lookup(other_vn, Eid::V4(host.ipv4)).is_none());
        misses += u64::from(vrf.lookup(other_vn, Eid::Mac(host.mac)).is_none());
        misses += u64::from(
            vrf.lookup(vn, Eid::V6("2001:db8::1".parse().unwrap()))
                .is_none(),
        );
        for (wire, ingress) in [
            (&hit_frames[0], true),
            (&miss_frames[0], true),
            (&egress_wire[0], false),
        ] {
            match one_packet(&mut sw, wire, ingress) {
                Verdict::Forward { .. } => fwd += 1,
                Verdict::Deliver { .. } => deliver += 1,
                v => panic!("unexpected one-packet verdict {v:?}"),
            }
        }
    }
    let after = allocations();
    assert_eq!((hits, misses), (3 * ROUNDS, 4 * ROUNDS));
    assert_eq!((fwd, deliver), (2 * ROUNDS, ROUNDS));
    assert_eq!(
        after - before,
        0,
        "VRF probes and one-packet calls performed {} heap allocations",
        after - before
    );
}
