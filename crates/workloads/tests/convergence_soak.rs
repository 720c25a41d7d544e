//! Convergence soak for pub/sub resume: campaigns whose borders resume
//! live streams on every refresh they can prove in sync must still end
//! at the fault-free fixed point and deliver every probe, and each
//! border's maintained slice digest must equal the digest of the rows
//! its map-cache holds at every simulated second of the campaign (the
//! incremental bookkeeping never drifts, moves and withdrawals
//! included).
//!
//! The tier-1 test sweeps 16 seeds of the reduced overload campaign.
//! The soak is `#[ignore]`d — 200 shard-storm campaigns, seconds in
//! release:
//!
//! ```text
//! cargo test --release -p sda-workloads --test convergence_soak -- --ignored --nocapture
//! ```

use sda_simnet::SimTime;
use sda_types::row_digest;
use sda_workloads::{ChaosParams, ChaosScenario};

/// Every border's maintained digest against its map-cache's rows.
fn digests_hold(s: &ChaosScenario, seed: u64) {
    for &b in &s.borders {
        let border = s.fabric.border(b);
        let rows = border.switch().map_cache().iter();
        let held = rows
            .filter(|(vn, _, _, _)| *vn == s.vn)
            .fold(0u64, |d, (_, p, rloc, _)| {
                d.wrapping_add(row_digest(&p.as_host().unwrap(), rloc))
            });
        assert_eq!(
            border.slice_digest(s.vn),
            held,
            "seed {seed:#x}: maintained digest drifted from the slice at {:?}",
            s.fabric.now()
        );
    }
}

/// Runs one campaign and checks it; returns the resumes it made.
fn converges(params: ChaosParams) -> u64 {
    let seed = params.seed;
    let mut s = ChaosScenario::build(params);
    // Second by second up to the convergence check (`run` resumes
    // from there), then once more at the end.
    for t in 1..89 {
        s.fabric.run_until(SimTime::from_nanos(t * 1_000_000_000));
        digests_hold(&s, seed);
    }
    let outcome = s.run();
    assert!(
        outcome.report.converged(),
        "seed {seed:#x}: {:?}",
        outcome.report
    );
    assert_eq!(
        outcome.probes_delivered, outcome.probes_sent,
        "seed {seed:#x}: healed fabric must deliver every probe"
    );
    digests_hold(&s, seed);
    let counter = |name: &str| {
        outcome
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    counter("border.stream_resumes")
}

#[test]
fn reduced_overload_campaigns_converge_over_16_seeds() {
    let resumes: u64 = (1..=16)
        .map(|seed| {
            converges(ChaosParams {
                seed,
                ..ChaosParams::reduced().with_overload(4)
            })
        })
        .sum();
    assert!(resumes > 0, "the sweep never took the resume path");
}

/// `e2e`'s campaign seeds (SplitMix64 over `(seed, k)`), so a campaign
/// the benchmark of record ran can be replayed here by its seed.
fn campaign_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
#[ignore = "soak: 200 shard-storm campaigns; run with --release --ignored"]
fn shard_storm_campaigns_converge_over_200_seeds() {
    // The four campaigns of each `e2e --seed 4201..=4250` run; campaign
    // 0 of seed 4201 is the one a row-count resume rule left with
    // `border_diffs: 3`.
    let seeds: Vec<u64> = (4201..=4250)
        .flat_map(|seed| (0..4).map(move |k| campaign_seed(seed, k)))
        .collect();
    assert!(seeds.contains(&0xb61d_015f_aab5_e56e));
    let mut resumes = 0;
    for &seed in &seeds {
        resumes += converges(ChaosParams {
            seed,
            ..ChaosParams::shard_storm()
        });
    }
    println!(
        "shard-storm soak: {n}/{n} converged, every probe delivered, {resumes} resumes",
        n = seeds.len()
    );
}
