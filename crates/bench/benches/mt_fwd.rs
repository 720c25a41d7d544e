//! The multi-core forwarding benchmark: RSS-sharded [`MtSwitch`]
//! workers vs. the single-threaded PR-3 [`Switch`] on the same batched
//! encap workload.
//!
//! Run with: `cargo bench -p sda-bench --bench mt_fwd`
//! Smoke mode (CI): `SDA_BENCH_SMOKE=1 cargo bench -p sda-bench --bench
//! mt_fwd` — tiny sample sizes, JSON goes to `target/`, and the perf
//! assertions are skipped (shared CI runners are too noisy to gate);
//! the schema assertion still runs so the emitter can't rot.
//!
//! Emits `BENCH_mt.json` at the workspace root. Schema:
//! `[{group, id, median_ns, mean_ns, p95_ns, iterations}]` under group
//! `mt_fwd`; **one iteration processes a burst of [`BURST`] packets**
//! (32 shuttle batches of 32 — divide `median_ns` by 1024 for ns/pkt;
//! pkts/s = 1e9 ÷ ns/pkt). Frames carry a 1400 B payload toward 10k
//! installed host routes, the same workload as
//! `BENCH_dataplane.json`'s `encap_batch32/10000`.
//!
//! Ids:
//! * `encap_st_batch32/10000` — the single-threaded [`Switch`] driven
//!   with 32-packet batches (the PR-3 engine, measured in-run so the
//!   parity ratio compares like with like).
//! * `encap_w{1,2,4}_batch32/10000` — the [`MtSwitch`] front with 1, 2
//!   and 4 workers: per-packet RSS on the inner flow hash, buffers
//!   swapped into per-worker 32-packet shuttles, verdicts returned in
//!   burst order.
//!
//! Acceptance bar (skipped in smoke mode) — **parity**: the 1-worker
//! path must stay within 1.15x of the single-threaded switch per packet
//! — the fan-out machinery (hash, swap, channel hop) must not tax the
//! uniprocessor deployment. The w2/w4 rows are reported with the host's
//! CPU count and not asserted: scaling needs ≥ 4 cores, which neither
//! the reference box nor CI has.

use criterion::{black_box, BenchmarkId, Criterion};
use sda_dataplane::{LocalEndpoint, MtSwitch, PacketBuf, Switch, SwitchConfig, BATCH_SIZE};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, MacAddr, PortId, Rloc, VnId};
use sda_wire::{ethernet, ipv4, EtherType};
use std::net::Ipv4Addr;

const ROUTES: u32 = 10_000;
/// Packets per measured iteration: 32 shuttle batches of [`BATCH_SIZE`].
const BURST: usize = 32 * BATCH_SIZE;
/// Pre-built distinct bursts cycled per iteration, so measurements
/// sweep the FIB instead of hammering one hot entry.
const PREBUILT_BURSTS: usize = 4;
const PAYLOAD: usize = 1400;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

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

fn cfg() -> SwitchConfig {
    let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
    cfg.border = Some(Rloc::for_router_index(999));
    cfg.default_action = sda_policy::Action::Allow;
    cfg
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

/// `PREBUILT_BURSTS` bursts of `BURST` frames sweeping the FIB
/// (stride-97 walk, every destination a hit).
fn bursts() -> Vec<Vec<Vec<u8>>> {
    (0..PREBUILT_BURSTS)
        .map(|b| {
            (0..BURST)
                .map(|i| {
                    frame(remote_ip(
                        ((b * BURST + i) as u32).wrapping_mul(97) % ROUTES,
                    ))
                })
                .collect()
        })
        .collect()
}

fn populate_st() -> Switch {
    let mut sw = Switch::new(cfg());
    sw.attach(vn(), host());
    for i in 0..ROUTES {
        sw.install_mapping(
            vn(),
            EidPrefix::host(Eid::V4(remote_ip(i))),
            Rloc::for_router_index(2 + (i % 200) as u16),
            SimDuration::from_days(365),
            SimTime::ZERO,
        );
    }
    sw.compact_tables();
    sw
}

fn populate_mt(workers: usize) -> MtSwitch {
    let mut mt = MtSwitch::spawn(cfg(), workers);
    mt.attach(vn(), host());
    for i in 0..ROUTES {
        mt.install_mapping(
            vn(),
            EidPrefix::host(Eid::V4(remote_ip(i))),
            Rloc::for_router_index(2 + (i % 200) as u16),
            SimDuration::from_days(365),
            SimTime::ZERO,
        );
    }
    mt.compact_tables();
    // Population done: clone-and-swap once so the measured phase only
    // ever takes the wait-free epoch-check path.
    mt.publish();
    mt
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("mt_fwd");
    let now = SimTime::ZERO + SimDuration::from_secs(1);
    let bursts = bursts();

    // Single-threaded reference: the same 1024 packets per iteration,
    // processed as 32 batches of 32 on the PR-3 Switch.
    {
        let mut sw = populate_st();
        let mut bufs: Vec<PacketBuf> = (0..BURST).map(|_| PacketBuf::new()).collect();
        let mut which = 0usize;
        group.bench_with_input(
            BenchmarkId::new("encap_st_batch32", ROUTES),
            &ROUTES,
            |b, _| {
                b.iter(|| {
                    let burst = &bursts[which];
                    which = (which + 1) % PREBUILT_BURSTS;
                    for (buf, f) in bufs.iter_mut().zip(burst) {
                        buf.load(f);
                    }
                    for chunk in bufs.chunks_mut(BATCH_SIZE) {
                        black_box(sw.process_ingress(chunk, now));
                    }
                    sw.clear_punts();
                });
            },
        );
        let stats = sw.stats();
        assert_eq!(stats.forwarded, stats.rx, "every packet a FIB hit");
    }

    // The RSS-sharded front at 1, 2 and 4 workers.
    for workers in WORKER_COUNTS {
        let mut mt = populate_mt(workers);
        let mut bufs: Vec<PacketBuf> = (0..BURST).map(|_| PacketBuf::new()).collect();
        let mut which = 0usize;
        group.bench_with_input(
            BenchmarkId::new(format!("encap_w{workers}_batch32"), ROUTES),
            &ROUTES,
            |b, _| {
                b.iter(|| {
                    let burst = &bursts[which];
                    which = (which + 1) % PREBUILT_BURSTS;
                    for (buf, f) in bufs.iter_mut().zip(burst) {
                        buf.load(f);
                    }
                    black_box(mt.process_ingress(&mut bufs, now));
                    mt.clear_punts();
                });
            },
        );
        // Satellite: merged stats + per-worker arena diagnostics, the
        // way lpm_hot_path prints the trie layout.
        let stats = mt.stats();
        assert_eq!(stats.forwarded, stats.rx, "every packet a FIB hit");
        eprintln!(
            "mt_fwd w{workers}: merged stats {} batches, {} rx, {} forwarded",
            stats.batches, stats.rx, stats.forwarded
        );
        for (w, mem) in mt.worker_mem_stats().iter().enumerate() {
            eprintln!("mt_fwd w{workers} worker {w} tables: {mem}");
        }
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
    bench(&mut criterion);

    let out = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_mt.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mt.json")
    };
    criterion.write_json(out).expect("write BENCH_mt.json");
    eprintln!("wrote {out}");

    // Schema guard (runs even in smoke mode).
    let results = criterion.results();
    let got: Vec<(&str, &str)> = results
        .iter()
        .map(|r| (r.group.as_str(), r.id.as_str()))
        .collect();
    let want = [
        ("mt_fwd", "encap_st_batch32/10000"),
        ("mt_fwd", "encap_w1_batch32/10000"),
        ("mt_fwd", "encap_w2_batch32/10000"),
        ("mt_fwd", "encap_w4_batch32/10000"),
    ];
    assert_eq!(got, want, "BENCH_mt.json schema drifted");

    let median = |id: &str| {
        results
            .iter()
            .find(|r| r.group == "mt_fwd" && r.id == id)
            .map(|r| r.median_ns)
            .expect("bench result present")
    };
    let per_pkt = |id: &str| median(id) / BURST as f64;
    let st = per_pkt("encap_st_batch32/10000");
    let w1 = per_pkt("encap_w1_batch32/10000");
    let w2 = per_pkt("encap_w2_batch32/10000");
    let w4 = per_pkt("encap_w4_batch32/10000");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "encap ns/pkt: st {st:.0} | w1 {w1:.0} ({:.2}x st) | w2 {w2:.0} | w4 {w4:.0} \
         ({:.2}x w1, {:.2} Mpps) on {cpus} CPUs",
        w1 / st,
        w1 / w4,
        1e3 / w4,
    );

    if smoke {
        eprintln!("smoke mode: skipping the perf assertions");
        return;
    }
    // Parity bar: the fan-out machinery must not tax the 1-worker path
    // beyond 15% of the single-threaded engine.
    assert!(
        w1 / st <= 1.15,
        "1-worker MtSwitch exceeded the 1.15x parity bar vs the single-threaded \
         Switch: {:.2}x ({w1:.0} vs {st:.0} ns/pkt)",
        w1 / st
    );
}
