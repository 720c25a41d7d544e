//! The metro workload at laptop scale, driven end-to-end through the
//! partitioned map-server: onboard → subscribe → churn → resolve →
//! expire, checking partition balance, move accounting, pub/sub
//! delivery, and the expiry sweep — the same phases the full-tier
//! `ctrl_plane` bench times.

use sda_ctrl::PartitionedMapServer;
use sda_simnet::{SimDuration, SimTime};
use sda_types::Rloc;
use sda_wire::lisp::Message;
use sda_workloads::{MetroParams, MetroWorkload};

const SHARDS: usize = 4;

#[test]
fn small_metro_through_partitioned_server() {
    let w = MetroWorkload::new(MetroParams::small());
    let p = w.params().clone();
    // Queue sized for the mass-expiry finale: the whole population ages
    // out at once, and this test asserts exact delta fan-out rather
    // than the overflow's compaction (covered in `sda-ctrl`'s tests).
    let mut server = PartitionedMapServer::with_queue_capacity(
        Rloc::for_router_index(1000),
        SHARDS,
        p.endpoints as usize * 2,
    );
    let now = SimTime::ZERO;

    // Onboard: every endpoint lands on exactly one shard, and the
    // prime-stride EID plan keeps the partition balanced.
    for m in w.initial_registers() {
        server.handle(m, now);
    }
    assert_eq!(server.db_len(), p.endpoints as usize);
    let lens = server.shard_lens();
    let (min, max) = (*lens.iter().min().unwrap(), *lens.iter().max().unwrap());
    assert!(
        max <= min + min / 2,
        "partition imbalance: {lens:?} (min {min}, max {max})"
    );
    server.flush_publishes(); // nobody subscribed yet

    // Borders subscribe to every VN; each answer (a snapshot behind the
    // ack, or the VN's history from the delta log in the flush) brings
    // the whole world, each entry exactly once per subscriber.
    let mut snapshot = Vec::new();
    for m in w.subscriptions() {
        let out = server.handle(m, now);
        snapshot.extend(out.into_iter().skip(1));
    }
    snapshot.extend(server.flush_publishes());
    assert_eq!(
        snapshot.len(),
        p.endpoints as usize * usize::from(p.borders),
        "snapshot must carry every mapping once per border"
    );

    // Churn: every message is a move — notify to the previous edge, and
    // one delta per subscriber of that VN.
    let mut notifies = 0usize;
    for m in w.churn() {
        let out = server.handle(m, now);
        notifies += out
            .iter()
            .filter(|(_, m)| matches!(m, Message::MapNotify { .. }))
            .count();
    }
    // Churn may revisit an endpoint; every churn register still changes
    // its RLOC (the generator never picks the current home... but a
    // second visit can land it back), so moves ≤ churn_moves and most
    // churn is a genuine move.
    let stats = server.stats();
    assert!(stats.moves as u32 >= p.churn_moves * 9 / 10);
    assert_eq!(notifies, stats.moves as usize);
    let deltas = server.flush_publishes();
    assert_eq!(
        deltas.len(),
        stats.moves as usize * usize::from(p.borders),
        "each move fans out once per subscriber of its VN"
    );
    assert_eq!(server.pubsub_gaps(), 0, "default queue must not overflow");

    // Resolve: the workload only asks for onboarded endpoints, so every
    // request gets a positive reply, spread across shards.
    for m in w.requests() {
        let out = server.handle(m, now);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].1,
            Message::MapReply {
                negative: false,
                ..
            }
        ));
    }
    let dist = server.request_distribution();
    assert_eq!(dist.iter().sum::<u64>(), u64::from(p.requests));
    assert!(
        dist.iter().all(|&c| c > 0),
        "every shard must answer requests: {dist:?}"
    );

    // Expire: past the TTL the whole population ages out (the parallel
    // sweep), withdrawals fan out, and the database drains.
    let later = now + SimDuration::from_secs(u64::from(p.register_ttl_secs) + 1);
    let dead = server.expire(later);
    assert_eq!(dead, p.endpoints as usize);
    assert!(server.is_empty());
    let withdrawals = server.flush_publishes();
    assert_eq!(
        withdrawals.len(),
        p.endpoints as usize * usize::from(p.borders)
    );
    assert!(withdrawals
        .iter()
        .all(|(_, m)| matches!(m, Message::Publish { withdraw: true, .. })));
}

/// The workload's deterministic streams replayed twice produce the same
/// server state — the property the bench's re-derived slices rely on.
#[test]
fn metro_replay_is_reproducible() {
    let run = || {
        let w = MetroWorkload::new(MetroParams::small());
        let mut s = PartitionedMapServer::new(Rloc::for_router_index(1000), SHARDS);
        for m in w.initial_registers().chain(w.churn()) {
            s.handle(m, SimTime::ZERO);
        }
        (s.shard_lens(), s.stats())
    };
    let (lens_a, stats_a) = run();
    let (lens_b, stats_b) = run();
    assert_eq!(lens_a, lens_b);
    assert_eq!(stats_a.moves, stats_b.moves);
    assert_eq!(stats_a.registers, stats_b.registers);
}
