//! Differential test of the in-place [`check_convergence`] against the
//! map-building checker it replaced, frozen in
//! `reference/convergence.rs`: a reduced chaos campaign is stepped one
//! simulated second at a time and the two reports must be equal field
//! for field at every step.
//!
//! The other campaigns only ever assert `converged()` — eight zeros at
//! the end of the quiet tail. Mid-storm every field is non-zero
//! (asserted below), and that is where a miscounted `db_missing`
//! (derived as `expected − rows found`) or `border_diffs` (derived as
//! `db − same + extra`) would show.

use sda_core::{check_convergence, ConvergenceReport, ExpectedPlacement};
use sda_simnet::SimTime;
use sda_workloads::chaos::{ChaosParams, ChaosScenario};

#[path = "reference/convergence.rs"]
mod reference;

/// End of the campaign's run (`sda_workloads::chaos`'s `t::END`).
const END_SECS: u64 = 99;
/// Its roam window (`t::ROAM_FROM..t::ROAM_TO`).
const ROAM_SECS: (u64, u64) = (33, 39);

fn reports_agree_at_every_second(params: ChaosParams) {
    let mut scenario = ChaosScenario::build(params);
    let expected = scenario.expected();
    // The campaign never registers anything its placement lacks, so
    // `db_extra` needs a placement with holes in it.
    let thinned: ExpectedPlacement = expected
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, (key, rloc))| (*key, *rloc))
        .collect();
    // Which fields were ever non-zero, in declaration order.
    let mut seen = [false; 8];
    let mut last = ConvergenceReport::default();
    // One simulated second at a time — and one millisecond at a time
    // through the roam window, where a border row that maps an EID to
    // its *old* edge (the database already moved on, the publish is in
    // flight) lives for well under a second.
    let millis = |from: u64, to: u64, step: usize| (from * 1_000..to * 1_000).step_by(step);
    let instants = millis(0, ROAM_SECS.0, 1_000)
        .chain(millis(ROAM_SECS.0, ROAM_SECS.1, 1))
        .chain(millis(ROAM_SECS.1, END_SECS + 1, 1_000));
    for ms in instants {
        scenario
            .fabric
            .run_until(SimTime::from_nanos(ms * 1_000_000));
        for placement in [&thinned, &expected] {
            let got = check_convergence(&scenario.fabric, placement);
            let want = reference::check_convergence(&scenario.fabric, placement);
            assert_eq!(got, want, "at t = {ms} ms");
            let fields = [
                got.stuck_resolving,
                got.stuck_registers,
                got.stuck_subscribes,
                got.db_missing,
                got.db_wrong_rloc,
                got.db_extra,
                got.border_diffs,
                got.edge_cache_mismatches,
            ];
            for (seen, value) in seen.iter_mut().zip(fields) {
                *seen |= value != 0;
            }
            last = got;
        }
    }
    // Every field was exercised away from zero, or the equality above
    // is hollow.
    assert_eq!(seen, [true; 8], "a field stayed 0 all campaign");
    assert!(last.converged(), "campaign ends converged: {last:?}");
}

#[test]
fn single_server_campaign() {
    reports_agree_at_every_second(ChaosParams::reduced());
}

#[test]
fn four_shard_overload_campaign() {
    reports_agree_at_every_second(ChaosParams {
        name: "shard-reduced",
        ..ChaosParams::reduced().with_overload(4)
    });
}
