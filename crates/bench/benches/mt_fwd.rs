//! The multi-core forwarding benchmark: RSS-sharded [`MtSwitch`]
//! workers vs. the single-threaded [`Switch`] on the same batched encap
//! workload. `BENCH_mt.json`, group `mt_fwd`.
//!
//! **One iteration processes a burst of [`BURST`] packets** (32 shuttle
//! batches of 32 — divide `median_ns` by 1024 for ns/pkt; pkts/s =
//! 1e9 ÷ ns/pkt). Frames carry a 1400 B payload toward 10k installed
//! host routes, the same workload as `BENCH_dataplane.json`'s
//! `encap_batch32/10000`.
//!
//! * `encap_st_batch32/10000` — the single-threaded [`Switch`] driven
//!   with 32-packet batches, measured in-run so the parity ratio
//!   compares like with like.
//! * `encap_w{1,2,4}_batch32/10000` — the [`MtSwitch`] front with 1, 2
//!   and 4 workers: per-packet RSS on the inner flow hash, buffers
//!   swapped into per-worker 32-packet shuttles, verdicts returned in
//!   burst order.
//!
//! Bar — **parity**: the 1-worker path must stay within 1.15x of the
//! single-threaded switch per packet — the fan-out machinery (hash,
//! swap, channel hop) must not tax the uniprocessor deployment. The
//! w2/w4 rows are printed with the host's CPU count and held to
//! nothing: scaling needs ≥ 4 cores, which neither the reference box
//! nor CI has.

use criterion::{black_box, BenchmarkId};
use sda_bench::fixtures::{
    frame_batches, hit_dst, host, host_routes, populated_switch, switch_config, vn, ROUTE_TTL,
};
use sda_bench::harness::Harness;
use sda_dataplane::{MtSwitch, PacketBuf, BATCH_SIZE};
use sda_simnet::{SimDuration, SimTime};

const ROUTES: u32 = 10_000;
/// Packets per measured iteration: 32 shuttle batches of [`BATCH_SIZE`].
const BURST: usize = 32 * BATCH_SIZE;
/// Pre-built distinct bursts cycled per iteration.
const PREBUILT_BURSTS: usize = 4;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

const ROWS: [(&str, &str); 4] = [
    ("mt_fwd", "encap_st_batch32/10000"),
    ("mt_fwd", "encap_w1_batch32/10000"),
    ("mt_fwd", "encap_w2_batch32/10000"),
    ("mt_fwd", "encap_w4_batch32/10000"),
];

fn populate_mt(workers: usize) -> MtSwitch {
    let mut mt = MtSwitch::spawn(switch_config(), workers);
    mt.attach(vn(), host());
    for (prefix, rloc) in host_routes(ROUTES) {
        mt.install_mapping(vn(), prefix, rloc, ROUTE_TTL, SimTime::ZERO);
    }
    mt.compact_tables();
    // Population done: clone-and-swap once so the measured phase only
    // ever takes the wait-free epoch-check path.
    mt.publish();
    mt
}

fn bench(c: &mut criterion::Criterion) {
    let mut group = c.benchmark_group("mt_fwd");
    let now = SimTime::ZERO + SimDuration::from_secs(1);
    let bursts = frame_batches(PREBUILT_BURSTS, BURST, hit_dst(ROUTES));

    // Single-threaded reference: the same 1024 packets per iteration,
    // processed as 32 batches of 32 on the `Switch`.
    {
        let mut sw = populated_switch(ROUTES);
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
        let stats = mt.stats();
        assert_eq!(stats.forwarded, stats.rx, "every packet a FIB hit");
        eprintln!(
            "mt_fwd w{workers}: merged stats {} batches, {} rx, {} forwarded",
            stats.batches, stats.rx, stats.forwarded
        );
    }

    group.finish();
}

fn main() {
    let mut h = Harness::new("mt");
    bench(&mut h.criterion);

    let per_pkt = |id: &str| h.median("mt_fwd", id) / BURST as f64;
    let st = per_pkt("encap_st_batch32/10000");
    let w1 = per_pkt("encap_w1_batch32/10000");
    let w2 = per_pkt("encap_w2_batch32/10000");
    let w4 = per_pkt("encap_w4_batch32/10000");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "encap ns/pkt: st {st:.0} | w1 {w1:.0} | w2 {w2:.0} | w4 {w4:.0} ({:.2} Mpps) on {cpus} CPUs",
        1e3 / w4,
    );
    h.ratio("w4 vs w1 throughput", w1 / w4);
    h.bar("w1 vs st ns/pkt (parity)", w1 / st, ..=1.15);
    h.finish(&ROWS);
}
