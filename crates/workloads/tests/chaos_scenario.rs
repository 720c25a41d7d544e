//! The chaos scenario pack as a test: the full campaign (or the CI
//! scale when `SDA_CHAOS_REDUCED` is set) must end converged, deliver
//! every probe on the healed fabric, and replay byte-identically.

use sda_workloads::{ChaosParams, ChaosScenario};

/// [`ChaosParams::reduced`] when `SDA_CHAOS_REDUCED` is set (CI),
/// [`ChaosParams::storm`] otherwise; `SDA_CHAOS_SHARDS=<n>` (n > 1)
/// layers the overload campaign ([`ChaosParams::with_overload`]) on top.
fn from_env() -> ChaosParams {
    let base = if std::env::var_os("SDA_CHAOS_REDUCED").is_some() {
        ChaosParams::reduced()
    } else {
        ChaosParams::storm()
    };
    match std::env::var("SDA_CHAOS_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 1 => ChaosParams {
            name: if base.ctrl_shards == 1 && base.edges >= 100 {
                "shard-storm"
            } else {
                "shard-reduced"
            },
            ..base.with_overload(n)
        },
        _ => base,
    }
}

fn run(params: ChaosParams) -> sda_workloads::ChaosOutcome {
    let mut s = ChaosScenario::build(params);
    s.run()
}

#[test]
fn chaos_campaign_converges_and_probes_deliver() {
    let params = from_env();
    let label = params.name;
    let outcome = run(params);
    outcome.print(label);
    assert!(
        outcome.report.converged(),
        "post-chaos fixed point: {:?}",
        outcome.report
    );
    assert_eq!(
        outcome.probes_delivered, outcome.probes_sent,
        "healed fabric must deliver every probe"
    );
    // The campaign actually hurt: faults fired, messages died, the
    // retry/self-healing machinery did real work.
    let counter = |name: &str| {
        outcome
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert!(counter("simnet.node_crashes") >= 2, "storm + server reboot");
    assert!(
        counter("simnet.link_drops") > 0,
        "lossy window dropped messages"
    );
    assert!(counter("ctrl.server_restarts") == 1);
    assert!(counter("fabric.edge_restarts") as usize >= 1);
    assert!(
        counter("fabric.register_retries") > 0,
        "registers retransmitted under loss"
    );
    assert!(
        counter("border.resyncs_completed") >= 1,
        "borders resynced after the server restart"
    );
}

/// The overload campaign: the full storm against a 4-shard,
/// admission-guarded, bounded-queue control plane with one shard
/// crashed mid-storm. Degradation must be graceful — sheds happen, but
/// the fabric converges, every bounded structure stays within its cap,
/// and no resolution is left permanently wedged.
#[test]
fn shard_storm_degrades_gracefully_and_converges() {
    let params = if std::env::var_os("SDA_CHAOS_REDUCED").is_some() {
        sda_workloads::ChaosParams {
            name: "shard-reduced",
            ..ChaosParams::reduced().with_overload(4)
        }
    } else {
        ChaosParams::shard_storm()
    };
    let cap = params.ingress_cap.unwrap();
    let max_pending = 4096; // FabricConfig default, asserted below
    let mut s = ChaosScenario::build(params.clone());
    let outcome = s.run();
    outcome.print(params.name);

    assert!(
        outcome.report.converged(),
        "overload campaign must still reach the fixed point: {:?}",
        outcome.report
    );
    assert_eq!(outcome.probes_delivered, outcome.probes_sent);

    let counter = |name: &str| {
        outcome
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap()
    };
    // The admission gate actually fired, the shard outage actually
    // happened, and shed senders honored the retry-after hint.
    assert!(counter("ctrl.shed_replies") > 0, "admission never shed");
    assert_eq!(counter("simnet.shard_crashes"), 1);
    assert_eq!(counter("simnet.shard_restarts"), 1);
    assert!(
        counter("fabric.server_busy_backoffs") > 0,
        "no sender honored a retry-after hint"
    );
    assert!(counter("fabric.jittered_retries") > 0, "jitter never used");

    // Bounded-queue proofs: every capped structure stayed within cap.
    assert!(
        outcome.server_queue_peak as usize <= cap,
        "server ingress queue peak {} exceeded cap {cap}",
        outcome.server_queue_peak
    );
    let dir_params = &s.fabric.directory().params;
    assert_eq!(dir_params.max_pending, max_pending);
    for &e in &s.edges {
        let edge = s.fabric.edge(e);
        assert!(
            edge.resolving_peak() <= dir_params.max_pending,
            "resolving map exceeded its cap"
        );
        assert!(
            edge.pending_registers_peak() <= dir_params.max_pending,
            "pending-register map exceeded its cap"
        );
        // Zero permanently-wedged resolutions on the healed fabric.
        assert_eq!(
            edge.resolving_len(),
            0,
            "edge left with wedged resolving entries"
        );
    }
    assert!(
        s.fabric.routing_server().server().pubsub_peak_depth() <= sda_ctrl::DEFAULT_QUEUE_CAP,
        "delta fan-out queue exceeded its cap"
    );
}

#[test]
fn chaos_campaign_replays_identically() {
    let params = ChaosParams::reduced();
    let a = run(params.clone());
    let b = run(params);
    assert_eq!(
        a.counters, b.counters,
        "same seed, same campaign, same trace"
    );
    assert_eq!(a.probes_delivered, b.probes_delivered);
}
