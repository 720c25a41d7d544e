//! The partitioned control-plane benchmark: `sda-ctrl`'s
//! `PartitionedMapServer` on 4 shards, driven by the metro workload at
//! 100k and 1M endpoints. `BENCH_ctrl.json`, group `ctrl_plane`.
//!
//! * `register_s4/{100k,1M}` — one churn move-register against a
//!   preloaded server (owner-shard routing).
//! * `register_admitted_s4/100000` — the same churn through an
//!   admission-guarded server with a never-shedding budget: the cost
//!   of the token-bucket probe on the accept path.
//! * `pubsub_delta_s4/{100k,1M}` — one move fanned out to 4 borders
//!   subscribed to every VN, plus the flush: must stay flat across
//!   world size (O(changes × subscribers), never O(world)).
//!
//! Bars: admission ≤ 1.15× the unguarded `register_s4` median — the gate
//! stays off the hot path; and `pubsub_delta_s4` grows from 100k to 1M
//! by at most 1.5× what the bare `register_s4` row grows — an iteration
//! is one register plus the flush, and the register's probe goes from
//! cache-resident at 100k to DRAM-bound at 1M (3-4x on its own), so the
//! bar is growth beyond the bare register's in the same run; an
//! O(world) walk per change would be thousands of times over it.
//!
//! The request, sweep and register costs `e2e --trace 1` prints
//! (`ctrl.{request,register}_ns_per_msg`, `ctrl.expire_ms_per_sweep`)
//! have no row here; the registry's memory budgets are tier-1 tests
//! (`crates/ctrl/tests/mem_budget.rs`).

use criterion::{black_box, BenchmarkId};
use sda_bench::harness::Harness;
use sda_ctrl::PartitionedMapServer;
use sda_simnet::{SimDuration, SimTime};
use sda_types::Rloc;
use sda_wire::lisp::Message;
use sda_workloads::{MetroParams, MetroWorkload};

const SCALES: [u32; 2] = [100_000, 1_000_000];
const SHARDS: usize = 4;

fn params_for(scale: u32) -> MetroParams {
    match scale {
        100_000 => MetroParams::hundred_k(),
        1_000_000 => MetroParams::full(),
        other => panic!("no metro tier for {other} endpoints"),
    }
}

/// A metro-preloaded partitioned server (every endpoint onboarded).
fn preloaded(w: &MetroWorkload) -> PartitionedMapServer {
    let mut s = PartitionedMapServer::new(Rloc::for_router_index(1000), SHARDS);
    for m in w.initial_registers() {
        s.handle(m, SimTime::ZERO);
    }
    s
}

/// The rows in emission order: per scale, the admitted row inline.
const ROWS: [(&str, &str); 5] = [
    ("ctrl_plane", "register_s4/100000"),
    ("ctrl_plane", "register_admitted_s4/100000"),
    ("ctrl_plane", "pubsub_delta_s4/100000"),
    ("ctrl_plane", "register_s4/1000000"),
    ("ctrl_plane", "pubsub_delta_s4/1000000"),
];

/// Median of `ctrl_plane` row `<row>/<scale>`.
fn median(h: &Harness, row: &str, scale: u32) -> f64 {
    h.median("ctrl_plane", &format!("{row}/{scale}"))
}

fn main() {
    let mut h = Harness::new("ctrl");
    let now = SimTime::ZERO;

    {
        let mut group = h.criterion.benchmark_group("ctrl_plane");
        for scale in SCALES {
            let w = MetroWorkload::new(params_for(scale));
            let churn: Vec<Message> = w.churn().collect();
            // One server per scale, built (and dropped) in turn to bound
            // peak memory on small hosts.
            let mut server = preloaded(&w);

            let mut k = 0usize;
            group.bench_with_input(BenchmarkId::new("register_s4", scale), &scale, |b, _| {
                b.iter(|| {
                    let m = churn[k].clone();
                    k = (k + 1) % churn.len();
                    black_box(server.handle(m, now));
                });
            });

            if scale == 100_000 {
                // Admission-control overhead on the *accept* path: the
                // same churn on the same server, guarded by a budget
                // that never sheds — back-to-back with the unguarded row
                // so the comparison sees identical memory and identical
                // load, isolating the one token-bucket probe per
                // register. The bench clock is pinned, so the bucket
                // never refills — the burst must outlast every iteration.
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

            // Incremental fan-out: borders subscribe to every VN; each
            // iteration is one move + the flush that delivers its
            // deltas. Stays flat across world size.
            for m in w.subscriptions() {
                server.handle(m, now);
            }
            server.flush_publishes(); // whatever the subscribes queued, off the clock
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
        group.finish();
    }

    for scale in SCALES {
        eprintln!(
            "{scale} endpoints: register {:.0} ns, pubsub delta {:.0} ns",
            median(&h, "register_s4", scale),
            median(&h, "pubsub_delta_s4", scale),
        );
    }
    let register = median(&h, "register_s4", 100_000);
    let admitted = median(&h, "register_admitted_s4", 100_000);
    let growth = |row: &str| median(&h, row, 1_000_000) / median(&h, row, 100_000);
    let delta_vs_register = growth("pubsub_delta_s4") / growth("register_s4");
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
