//! Policy-plane benchmarks: the compiled bitset SGACL against the
//! per-pair-map reference at production scale (1k groups, 100k rules).
//! `BENCH_policy.json`, group `policy_plane`.
//!
//! Four costs, matching the compile-time/enforce-time split:
//!
//! * `verdict_batch32/{compiled,baseline}` — 32 verdicts per iteration,
//!   the lockstep lane width. The compiled path hoists one `vn_view`
//!   per run (exactly what the forwarding pass does) so each verdict is
//!   a shift + mask + `Relaxed` counter tick; the baseline is the
//!   frozen per-pair `BTreeMap` `GroupAcl` the fabric shipped before
//!   the compiled form existed (`sda_bench::enforce`, the reference of
//!   `policy/tests/reference/group_acl.rs`).
//! * `compile/100000` — full matrix → `CompiledAcl` compilation.
//! * `delta_install/64` — publish a snapshot (`clone`) and install a
//!   64-rule SXP delta into it: the epoch-update path, including the
//!   copy-on-write of the touched VN.
//! * `publish/{compiled,baseline}` — the epoch publish alone: `Arc`
//!   pointer copies vs. deep-copying the 100k-entry rule map.
//!
//! Budget: the compiled 1k-group deny-default VN within 320 KiB — a
//! smoke run must still catch a representation regression that blows
//! the compiled size. The two bitset planes alone are 2 x 1000 rows x
//! 16 words x 8 B = 250 KiB; interners and headers ride on top; a
//! per-pair `BTreeMap` at 100k entries costs several times this before
//! node overhead. Bars: compiled verdicts ≥ 2x the per-pair map, and the
//! `Arc`'d epoch publish ≥ 2x the deep copy — the two things the
//! compiled form exists for.

use std::hint::black_box;

use criterion::{BenchmarkId, Criterion};
use sda_bench::enforce::GroupAcl;
use sda_bench::fixtures::vn;
use sda_bench::harness::Harness;
use sda_policy::{Action, CompiledAcl, ConnectivityMatrix, RuleSubset};
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

const ROWS: [(&str, &str); 6] = [
    ("policy_plane", "verdict_batch32/compiled"),
    ("policy_plane", "verdict_batch32/baseline"),
    ("policy_plane", "compile/100000"),
    ("policy_plane", "delta_install/64"),
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

/// A 64-rule SXP delta against one source row, version one past the
/// matrix — the shape of a single operator edit fanned out to an edge.
fn build_delta(matrix: &ConnectivityMatrix) -> RuleSubset {
    let src = GroupId(500);
    RuleSubset {
        version: matrix.version() + 1,
        rules: (0..64u16)
            .map(|d| {
                let action = if d % 2 == 0 {
                    Action::Allow
                } else {
                    Action::Deny
                };
                (
                    vn(),
                    sda_policy::GroupRule {
                        src,
                        dst: GroupId(d),
                        action,
                    },
                )
            })
            .collect(),
    }
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

fn bench_compile(c: &mut Criterion, matrix: &ConnectivityMatrix) {
    let mut group = c.benchmark_group("policy_plane");
    let rules = matrix.len();
    group.bench_with_input(BenchmarkId::new("compile", rules), &rules, |b, _| {
        b.iter(|| black_box(CompiledAcl::compile(matrix)).len());
    });
    group.finish();
}

fn bench_delta_install(c: &mut Criterion, base: &CompiledAcl, delta: &RuleSubset) {
    let mut group = c.benchmark_group("policy_plane");
    group.bench_with_input(
        BenchmarkId::new("delta_install", delta.len()),
        &delta.len(),
        |b, _| {
            b.iter(|| {
                // Publish a snapshot, then install the delta into it: the
                // `Arc::make_mut` copy-on-write of the touched VN is the
                // real epoch-update cost.
                let mut next = base.clone();
                next.install(delta);
                black_box(next.version())
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
    let delta = build_delta(&matrix);

    let stats = acl.mem_stats();
    let map_payload =
        matrix.len() * (std::mem::size_of::<(sda_types::VnId, GroupId, GroupId)>() + 1);
    eprintln!(
        "compiled 1k-group VN: {} B total ({} B rows + {} B interners), {} rules; \
         per-pair map payload alone ≥ {} B before node overhead",
        stats.total_bytes, stats.row_bytes, stats.interner_bytes, stats.rules, map_payload
    );
    let kib = stats.total_bytes as f64 / 1024.0;
    h.budget("compiled 1k-group VN KiB", kib, ..=320.0);

    bench_verdicts(&mut h.criterion, &acl, &mut reference, &probes);
    bench_compile(&mut h.criterion, &matrix);
    bench_delta_install(&mut h.criterion, &acl, &delta);
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
    eprintln!(
        "compile 100k rules: {:.2} ms; delta-install 64 rules into a snapshot: {:.1} us",
        median("compile/100000") / 1e6,
        median("delta_install/64") / 1e3
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
