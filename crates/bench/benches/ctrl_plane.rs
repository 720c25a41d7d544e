//! The partitioned control-plane benchmark: `sda-ctrl`'s
//! `PartitionedMapServer` driven by the metro workload (100k and 1M
//! endpoints) across 1/2/4 shards, against the paper-faithful
//! replicate-all `ShardedMapServer`.
//!
//! `BENCH_ctrl.json`, group `ctrl_plane`.
//!
//! * `register_s{1,2,4}/{100k,1M}` — one churn move-register against a
//!   preloaded server (owner-shard routing; the per-register cost must
//!   not grow with shard count — the replicate-all deployment's does).
//! * `register_legacy_s4/100000` — the same churn through the
//!   replicate-all `ShardedMapServer` (every register applied 4×).
//! * `register_admitted_s4/100000` — the same churn through an
//!   admission-guarded server with a never-shedding budget: the cost
//!   of the token-bucket probe on the accept path (bar: ≤ 1.15× the
//!   unguarded `register_s4` median — the gate stays off the hot path).
//! * `request_s{1,2,4}/{100k,1M}` — one Map-Request resolution.
//! * `sweep_s4/{100k,1M}` — a full zero-victim expiry traversal of all
//!   shards.
//! * `pubsub_delta_s4/{100k,1M}` — one move fanned out to 4 borders
//!   subscribed to every VN, plus the flush: must stay flat across
//!   world size (O(changes × subscribers), never O(world)).
//!
//! Budgets: the 4-shard 1M-endpoint registry tables sum to at most 1.25×
//! the single-shard footprint (shards partition the world, they must
//! not replicate it), and the single-shard footprint itself is at most
//! 36 MiB — 32.0 with the 16-byte slots that hold the metro workload's
//! IPv4 EIDs, so a field added to the narrow slot fails here before it
//! reaches `ctrl_resolve`'s resident set. Bar: `pubsub_delta_s4` grows from 100k to 1M by
//! at most 1.5× what the bare `register_s4` row grows — an iteration is
//! one register plus the flush, and the register's probe goes from
//! cache-resident at 100k to DRAM-bound at 1M (3-4x on its own), so the
//! bar is growth beyond the bare register's in the same run; an
//! O(world) walk per change would be thousands of times over it.

use criterion::{black_box, BenchmarkId};
use sda_bench::harness::Harness;
use sda_bench::shard::ShardedMapServer;
use sda_ctrl::PartitionedMapServer;
use sda_simnet::{SimDuration, SimTime};
use sda_types::Rloc;
use sda_wire::lisp::Message;
use sda_workloads::{MetroParams, MetroWorkload};

const SCALES: [u32; 2] = [100_000, 1_000_000];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn params_for(scale: u32) -> MetroParams {
    match scale {
        100_000 => MetroParams::hundred_k(),
        1_000_000 => MetroParams::full(),
        other => panic!("no metro tier for {other} endpoints"),
    }
}

/// A metro-preloaded partitioned server (every endpoint onboarded).
fn preloaded(w: &MetroWorkload, shards: usize) -> PartitionedMapServer {
    let mut s = PartitionedMapServer::new(Rloc::for_router_index(1000), shards);
    for m in w.initial_registers() {
        s.handle(m, SimTime::ZERO);
    }
    s
}

/// The rows in emission order: per scale, per shard count, the 4-shard
/// extras inline; the replicate-all row last.
const ROWS: [(&str, &str); 18] = [
    ("ctrl_plane", "register_s1/100000"),
    ("ctrl_plane", "request_s1/100000"),
    ("ctrl_plane", "register_s2/100000"),
    ("ctrl_plane", "request_s2/100000"),
    ("ctrl_plane", "register_s4/100000"),
    ("ctrl_plane", "register_admitted_s4/100000"),
    ("ctrl_plane", "request_s4/100000"),
    ("ctrl_plane", "sweep_s4/100000"),
    ("ctrl_plane", "pubsub_delta_s4/100000"),
    ("ctrl_plane", "register_s1/1000000"),
    ("ctrl_plane", "request_s1/1000000"),
    ("ctrl_plane", "register_s2/1000000"),
    ("ctrl_plane", "request_s2/1000000"),
    ("ctrl_plane", "register_s4/1000000"),
    ("ctrl_plane", "request_s4/1000000"),
    ("ctrl_plane", "sweep_s4/1000000"),
    ("ctrl_plane", "pubsub_delta_s4/1000000"),
    ("ctrl_plane", "register_legacy_s4/100000"),
];

/// Median of `ctrl_plane` row `<row>/<scale>`.
fn median(h: &Harness, row: &str, scale: u32) -> f64 {
    h.median("ctrl_plane", &format!("{row}/{scale}"))
}

fn main() {
    let mut h = Harness::new("ctrl");
    let now = SimTime::ZERO;
    // Steady state for the zero-victim sweeps: well before any TTL.
    let sweep_at = SimTime::ZERO + SimDuration::from_secs(1);

    // Partition-memory budget: captured while the 1M-endpoint servers
    // are alive below.
    let mut mem_1m_s1: Option<usize> = None;
    let mut mem_1m_s4: Option<usize> = None;

    {
        let mut group = h.criterion.benchmark_group("ctrl_plane");
        for scale in SCALES {
            let w = MetroWorkload::new(params_for(scale));
            let churn: Vec<Message> = w.churn().collect();
            let requests: Vec<Message> = w.requests().collect();
            // One server per shard count, built (and dropped) in turn to
            // bound peak memory on small hosts.
            for shards in SHARD_COUNTS {
                let mut server = preloaded(&w, shards);
                if scale == 1_000_000 {
                    let bytes = server.mem_stats().capacity_bytes;
                    match shards {
                        1 => mem_1m_s1 = Some(bytes),
                        4 => mem_1m_s4 = Some(bytes),
                        _ => {}
                    }
                }

                let mut k = 0usize;
                group.bench_with_input(
                    BenchmarkId::new(format!("register_s{shards}"), scale),
                    &scale,
                    |b, _| {
                        b.iter(|| {
                            let m = churn[k].clone();
                            k = (k + 1) % churn.len();
                            black_box(server.handle(m, now));
                        });
                    },
                );

                if shards == 4 && scale == 100_000 {
                    // Admission-control overhead on the *accept* path:
                    // the same churn on the same server, guarded by a
                    // budget that never sheds — back-to-back with the
                    // unguarded row so the comparison sees identical
                    // memory and identical load, isolating the one
                    // token-bucket probe per register. The bench clock
                    // is pinned, so the bucket never refills — the
                    // burst must outlast every iteration.
                    server.set_admission(Some(sda_ctrl::AdmissionConfig::uniform(
                        1e12,
                        1e12,
                        SimDuration::from_millis(300),
                    )));
                    let mut k = 0usize;
                    group.bench_with_input(
                        BenchmarkId::new("register_admitted_s4", scale),
                        &scale,
                        |b, _| {
                            b.iter(|| {
                                let m = churn[k].clone();
                                k = (k + 1) % churn.len();
                                black_box(server.handle(m, now));
                            });
                        },
                    );
                    assert_eq!(
                        server.overload_stats().shed_registers,
                        0,
                        "admitted bench must never shed"
                    );
                    server.set_admission(None);
                }

                let mut k = 0usize;
                group.bench_with_input(
                    BenchmarkId::new(format!("request_s{shards}"), scale),
                    &scale,
                    |b, _| {
                        b.iter(|| {
                            let m = requests[k].clone();
                            k = (k + 1) % requests.len();
                            black_box(server.handle(m, now));
                        });
                    },
                );

                if shards == 4 {
                    // Zero-victim pass over every shard's tables:
                    // repeatable, measures pure sweep wall time.
                    group.bench_with_input(BenchmarkId::new("sweep_s4", scale), &scale, |b, _| {
                        b.iter(|| black_box(server.expire(sweep_at)));
                    });

                    // Incremental fan-out: borders subscribe to every
                    // VN; each iteration is one move + the flush that
                    // delivers its deltas. Stays flat across world size.
                    for m in w.subscriptions() {
                        server.handle(m, now);
                    }
                    server.flush_publishes(); // initial snapshots, off the clock
                    let mut k = 0usize;
                    group.bench_with_input(
                        BenchmarkId::new("pubsub_delta_s4", scale),
                        &scale,
                        |b, _| {
                            b.iter(|| {
                                let m = churn[k].clone();
                                k = (k + 1) % churn.len();
                                server.handle(m, now);
                                black_box(server.flush_publishes());
                            });
                        },
                    );
                    assert_eq!(server.pubsub_gaps(), 0, "bench flushes every change");
                }
            }
        }

        // The paper-faithful replicate-all deployment at the smaller
        // tier (4 shards × 100k endpoints each hold the whole world).
        {
            let w = MetroWorkload::new(params_for(100_000));
            let churn: Vec<Message> = w.churn().collect();
            let mut legacy =
                ShardedMapServer::new((0..4).map(|i| Rloc::for_router_index(2000 + i)).collect());
            for m in w.initial_registers() {
                legacy.handle(m, SimTime::ZERO);
            }
            let mut k = 0usize;
            group.bench_with_input(
                BenchmarkId::new("register_legacy_s4", 100_000u32),
                &100_000u32,
                |b, _| {
                    b.iter(|| {
                        let m = churn[k].clone();
                        k = (k + 1) % churn.len();
                        black_box(legacy.handle(m, now));
                    });
                },
            );
        }

        group.finish();
    }

    let (s1, s4) = (
        mem_1m_s1.expect("1M single-shard footprint captured") as f64,
        mem_1m_s4.expect("1M 4-shard footprint captured") as f64,
    );
    const MIB: f64 = 1024.0 * 1024.0;
    h.budget("1-shard registry MiB at 1M", s1 / MIB, ..=36.0);
    h.budget("4-shard vs 1-shard registry bytes at 1M", s4 / s1, ..=1.25);

    for scale in SCALES {
        let m = |row: &str| median(&h, row, scale);
        eprintln!(
            "{scale} endpoints: register s1/s2/s4 {:.0}/{:.0}/{:.0} ns, request s1/s2/s4 \
             {:.0}/{:.0}/{:.0} ns",
            m("register_s1"),
            m("register_s2"),
            m("register_s4"),
            m("request_s1"),
            m("request_s2"),
            m("request_s4"),
        );
        eprintln!(
            "{scale} endpoints: sweep {:.2} ms, pubsub delta {:.0} ns",
            m("sweep_s4") / 1e6,
            m("pubsub_delta_s4"),
        );
    }
    let register = median(&h, "register_s4", 100_000);
    let legacy = median(&h, "register_legacy_s4", 100_000);
    let admitted = median(&h, "register_admitted_s4", 100_000);
    let growth = |row: &str| median(&h, row, 1_000_000) / median(&h, row, 100_000);
    let delta_vs_register = growth("pubsub_delta_s4") / growth("register_s4");
    h.ratio(
        "replicate-all vs partitioned register (4 shards, 100k)",
        legacy / register,
    );
    h.bar(
        "admitted vs unguarded register (4 shards, 100k)",
        admitted / register,
        ..=1.15,
    );
    h.bar(
        "pubsub delta growth vs register growth, 100k to 1M",
        delta_vs_register,
        ..=1.5,
    );
    h.finish(&ROWS);
}
