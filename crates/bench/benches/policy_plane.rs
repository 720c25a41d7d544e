//! Policy-plane benchmarks: the compiled bitset SGACL against the
//! per-pair-map reference at production scale (1k groups, 100k rules).
//! `BENCH_policy.json`, group `policy_plane`.
//!
//! Two costs, each against the reference it replaced:
//!
//! * `verdict_batch32/{compiled,baseline}` — 32 verdicts per iteration,
//!   the lockstep lane width. The compiled path hoists one `vn_view`
//!   per run (exactly what the forwarding pass does) so each verdict is
//!   a shift + mask + `Relaxed` counter tick; the baseline is the
//!   frozen per-pair `BTreeMap` `GroupAcl` the fabric shipped before
//!   the compiled form existed (`sda_bench::enforce`, the reference of
//!   `policy/tests/reference/group_acl.rs`).
//! * `publish/{compiled,baseline}` — the epoch publish alone: `Arc`
//!   pointer copies vs. deep-copying the 100k-entry rule map.
//!
//! Bars: compiled verdicts ≥ 2x the per-pair map, and the `Arc`'d epoch
//! publish ≥ 2x the deep copy — the two things the compiled form exists
//! for. Compilation and delta install have no row here: `e2e --trace 1`
//! prints them as `policy.compile_ms` and `policy.delta_install_us`. The
//! compiled VN's 320 KiB memory budget is a tier-1 test
//! (`crates/policy/tests/mem_budget.rs`).

use std::hint::black_box;

use criterion::{BenchmarkId, Criterion};
use sda_bench::enforce::GroupAcl;
use sda_bench::fixtures::vn;
use sda_bench::harness::Harness;
use sda_policy::{Action, CompiledAcl, ConnectivityMatrix};
use sda_types::GroupId;

/// Groups in the benchmark VN (the paper's 1k-group tier).
const GROUPS: u32 = 1_000;
/// Explicit cells in the matrix: 100 destinations per source group.
const RULES_PER_SRC: u32 = 100;
/// Lockstep lane width — one iteration is one lane batch of verdicts.
const BATCH: usize = 32;
/// Prebuilt probe tuples cycled through so the map walk cannot train on
/// a single hot pair.
const PROBES: usize = 1_024;

const ROWS: [(&str, &str); 4] = [
    ("policy_plane", "verdict_batch32/compiled"),
    ("policy_plane", "verdict_batch32/baseline"),
    ("policy_plane", "publish/compiled"),
    ("policy_plane", "publish/baseline"),
];

/// The 1k-group / 100k-rule deny-default matrix. 919 is coprime to
/// 1000, so each source's 100 destinations are distinct and the cell
/// count is exact.
fn build_matrix() -> ConnectivityMatrix {
    let mut m = ConnectivityMatrix::new();
    for src in 0..GROUPS {
        for k in 0..RULES_PER_SRC {
            let dst = (src * 13 + k * 919) % GROUPS;
            let action = if (src + k) % 7 == 0 {
                Action::Deny
            } else {
                Action::Allow
            };
            m.set_rule(vn(), GroupId(src as u16), GroupId(dst as u16), action);
        }
    }
    assert_eq!(m.len(), (GROUPS * RULES_PER_SRC) as usize);
    m
}

/// Probe tuples spread over the whole group space: roughly 10% hit an
/// explicit cell, the rest fall through to the deny default — the mix
/// that exercises both the bit probe and the map miss path.
fn build_probes() -> Vec<(GroupId, GroupId)> {
    (0..PROBES)
        .map(|i| {
            let src = (i * 97) % GROUPS as usize;
            let dst = (i * 389 + 7) % GROUPS as usize;
            (GroupId(src as u16), GroupId(dst as u16))
        })
        .collect()
}

fn bench_verdicts(
    c: &mut Criterion,
    acl: &CompiledAcl,
    reference: &mut GroupAcl,
    probes: &[(GroupId, GroupId)],
) {
    let mut group = c.benchmark_group("policy_plane");

    let view = acl.vn_view(vn());
    let mut cursor = 0usize;
    group.bench_with_input(
        BenchmarkId::new("verdict_batch32", "compiled"),
        &BATCH,
        |b, _| {
            b.iter(|| {
                let mut dropped = 0u32;
                for _ in 0..BATCH {
                    let (s, d) = probes[cursor];
                    cursor = (cursor + 1) % probes.len();
                    if matches!(view.enforce(s, d, Action::Deny), Action::Deny) {
                        dropped += 1;
                    }
                }
                black_box(dropped)
            });
        },
    );

    let mut cursor = 0usize;
    group.bench_with_input(
        BenchmarkId::new("verdict_batch32", "baseline"),
        &BATCH,
        |b, _| {
            b.iter(|| {
                let mut dropped = 0u32;
                for _ in 0..BATCH {
                    let (s, d) = probes[cursor];
                    cursor = (cursor + 1) % probes.len();
                    if matches!(reference.enforce(vn(), s, d, Action::Deny), Action::Deny) {
                        dropped += 1;
                    }
                }
                black_box(dropped)
            });
        },
    );

    group.finish();
}

fn bench_publish(c: &mut Criterion, acl: &CompiledAcl, reference: &GroupAcl) {
    let mut group = c.benchmark_group("policy_plane");
    group.bench_with_input(BenchmarkId::new("publish", "compiled"), &0usize, |b, _| {
        b.iter(|| black_box(acl.clone()).version());
    });
    group.bench_with_input(BenchmarkId::new("publish", "baseline"), &0usize, |b, _| {
        b.iter(|| black_box(reference.clone()).version());
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("policy");

    let matrix = build_matrix();
    let mut acl = CompiledAcl::new();
    acl.install_matrix(&matrix);
    let mut reference = GroupAcl::new();
    reference.install_matrix(&matrix);
    let probes = build_probes();

    bench_verdicts(&mut h.criterion, &acl, &mut reference, &probes);
    bench_publish(&mut h.criterion, &acl, &reference);

    let median = |id: &str| h.median("policy_plane", id);
    let compiled = median("verdict_batch32/compiled");
    let baseline = median("verdict_batch32/baseline");
    let pub_compiled = median("publish/compiled");
    let pub_baseline = median("publish/baseline");
    eprintln!(
        "verdicts (batch of {BATCH}): compiled {:.1} ns ({:.2} ns/verdict), \
         baseline {:.1} ns ({:.2} ns/verdict)",
        compiled,
        compiled / BATCH as f64,
        baseline,
        baseline / BATCH as f64,
    );
    eprintln!("epoch publish: compiled {pub_compiled:.1} ns vs deep map copy {pub_baseline:.1} ns");
    h.bar(
        "per-pair map vs compiled verdicts",
        baseline / compiled,
        2.0..,
    );
    h.bar(
        "deep copy vs Arc'd epoch publish",
        pub_baseline / pub_compiled,
        2.0..,
    );
    h.finish(&ROWS);
}
