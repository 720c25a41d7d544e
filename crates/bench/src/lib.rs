//! # sda-bench
//!
//! The paper's evaluation (§4–§5) as code: per-layer criterion benches,
//! figure/table reproductions, and the benchmark of record.
//!
//! * [`harness`] — smoke mode, sample sizes, the JSON out path, the
//!   row-set check and the ratio / bar checks, decided once for every
//!   bench below; [`fixtures`] — the VN, host, EIDs, frames, edge
//!   configuration and preloaded routing server they share.
//! * Criterion benches (`benches/`, each a row list over the harness;
//!   each keeps the rows its in-run bars read, and the memory budgets
//!   are tier-1 `tests/mem_budget.rs` files beside the code they bound):
//!   - `mt_fwd` — `BENCH_mt.json`: `MtSwitch` at 1/2/4 workers vs. the
//!     single-threaded `Switch`.
//!   - `ctrl_plane` — `BENCH_ctrl.json`: the partitioned map-server's
//!     register, admission and pub/sub delta costs under the metro
//!     workload.
//!   - `policy_plane` — `BENCH_policy.json`: compiled SGACL vs. the
//!     per-pair map.
//!   - `fig7_routing_server` — Fig. 7a/7b: the routing server's own
//!     request/update latency vs. stored-route count.
//! * [`figures`] — Fig. 7a/7b/7c, 9, 11, 12, Tables 3–5 and the
//!   §3.2.2/§4.1/§5.3/§5.4 design studies, each a function returning
//!   rows plus its printer; `tests/figures.rs` is their shape gate.
//! * Binaries (`src/bin/`):
//!   - `e2e` — the benchmark of record (`BENCHMARK.json`).
//!   - `bench_check` — CI's exact-count budgets (allocations, storm
//!     events per op), read off traced quick `e2e` runs.
//!   - `figs <name>` — prints one figure at the paper's scale: `fig7a`,
//!     `fig7b`, `fig7c`, `fig9`, `table3`, `table5`, `fig11 [--quick]`,
//!     `fig12`, `ablation_border_sync`, `ablation_enforcement_point`,
//!     `ablation_policy_update`, `ablation_sharding`.
//!
//! The library also hosts the queueing and averaging helpers the
//! figures share, [`shard::ShardedMapServer`] — the request routing of
//! §4.1's replicate-all deployment, for [`figures::ablation_sharding`]
//! — and the one implementation no node runs that rows are measured
//! against: [`enforce`], for `policy_plane`'s per-pair-map rows,
//! `#[path]`-included below from the `tests/reference/` directory that
//! owns it.

pub mod figures;
pub mod fixtures;
pub mod harness;
pub mod shard;

// Each reference sits at the crate root under the module name it had in
// its production crate, so `cargo test` still prints its unit tests as
// `enforce::tests::…`, `map_server::tests::…`, `pubsub::tests::…` and
// `pipeline::tests::…`.
#[path = "../../policy/tests/reference/group_acl.rs"]
pub mod enforce;
// No bench links the single map-server, its subscriber table or the
// structured pipeline model any more; their unit tests keep running
// here, for the test build only, under the names they have always
// printed (`map_server` names its subscriber table as its sibling
// `pubsub`, `pipeline` the ACL as its sibling `group_acl`).
#[cfg(test)]
#[path = "../../ctrl/tests/reference/map_server.rs"]
pub mod map_server;
#[cfg(test)]
#[path = "../../ctrl/tests/reference/pubsub.rs"]
pub mod pubsub;
#[cfg(test)]
use enforce as group_acl;
#[cfg(test)]
#[path = "../../core/tests/reference/pipeline.rs"]
pub mod pipeline;

/// A mean with the day/night split used by Table 5.
pub struct DayNight {
    /// Mean over all samples.
    pub all: f64,
    /// Mean over working hours (9:00–19:00, paper's definition).
    pub day: f64,
    /// Mean over the rest.
    pub night: f64,
}

/// Splits a series of `(hour, value)` samples — hours counted from a
/// midnight, so `hour % 24` is the hour of day — into Table 5's
/// all/day/night means.
pub fn day_night_split(series: &[(f64, f64)]) -> Option<DayNight> {
    if series.is_empty() {
        return None;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let all: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
    let day: Vec<f64> = series
        .iter()
        .filter(|(h, _)| (9.0..19.0).contains(&(h % 24.0)))
        .map(|(_, v)| *v)
        .collect();
    let night: Vec<f64> = series
        .iter()
        .filter(|(h, _)| !(9.0..19.0).contains(&(h % 24.0)))
        .map(|(_, v)| *v)
        .collect();
    Some(DayNight {
        all: mean(&all),
        day: if day.is_empty() { 0.0 } else { mean(&day) },
        night: if night.is_empty() { 0.0 } else { mean(&night) },
    })
}

/// Simulates a single-server FIFO queue: for each arrival instant
/// (seconds), draws a service time and returns the sojourn time
/// (wait + service). This is exactly how the simulator's per-node
/// control CPU behaves; the standalone form lets Fig. 7 and the §4.1
/// sharding study sweep offered load without building a whole fabric.
pub fn fifo_sojourns(arrivals: &[f64], mut service: impl FnMut() -> f64) -> Vec<f64> {
    let mut free_at = 0.0f64;
    arrivals
        .iter()
        .map(|&t| {
            let start = free_at.max(t);
            let s = service();
            free_at = start + s;
            free_at - t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_sojourn_accounts_waiting() {
        // Three arrivals at t=0, fixed 1s service: sojourns 1, 2, 3.
        let s = fifo_sojourns(&[0.0, 0.0, 0.0], || 1.0);
        assert_eq!(s, vec![1.0, 2.0, 3.0]);
        // Spaced-out arrivals never wait.
        let s = fifo_sojourns(&[0.0, 10.0, 20.0], || 1.0);
        assert_eq!(s, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn day_night_split_respects_hours() {
        // Value 100 during 9–19, 10 otherwise.
        let series: Vec<(f64, f64)> = (0..48)
            .map(|h| {
                let hour = h as f64;
                let v = if (9.0..19.0).contains(&(hour % 24.0)) {
                    100.0
                } else {
                    10.0
                };
                (hour, v)
            })
            .collect();
        let dn = day_night_split(&series).unwrap();
        assert_eq!(dn.day, 100.0);
        assert_eq!(dn.night, 10.0);
        assert!(dn.all > 10.0 && dn.all < 100.0);
    }

    #[test]
    fn empty_series_yields_none() {
        assert!(day_night_split(&[]).is_none());
    }
}
