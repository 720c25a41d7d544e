//! The control-plane differential oracle: generated
//! register/request/move/expiry/subscribe interleavings are replayed
//! through **both** implementations — the single `MapServer` frozen in
//! `reference/map_server.rs` and the 4-shard `PartitionedMapServer` —
//! and the observable behavior must agree (the same discipline as
//! `sda-core`'s data-plane `differential_oracle.rs`):
//!
//! * **Reply-for-reply / notify-for-notify**: each handled message's
//!   outbox, publishes set aside, must match exactly (destinations,
//!   nonces, prefixes, TTLs, negatives, move-notify targets).
//! * **Subscriber views converge**: applying the single server's
//!   publishes and the partitioned server's snapshots (behind a
//!   Subscribe's ack) and flushed deltas must leave every subscriber
//!   with the same `(vn, eid) → rloc` view — and with the partitioned
//!   server's per-VN delta streams contiguous (no silent gaps at the
//!   default queue bound).
//! * **Databases agree** after every expiry sweep (which runs the
//!   *parallel* path on the partitioned side).
//! * **Resumes agree**: a Subscribe states a watermark and a slice
//!   digest. The generator reads honest ones off each side's subscriber
//!   model (the two servers number their streams differently — the
//!   single one per publish, the partitioned one per change — so each
//!   gets its own honest watermark; the digests are of equal views) or
//!   forges one of the two, and both servers must answer `resumed` or
//!   reset alike, ack for ack. A `Lose` step darkens one border: its
//!   deltas are lost on both sides until its next Subscribe, and each
//!   model drops a stream's deltas after a loss the way a border does
//!   past a hole, until the next ack — so an honest claim is often
//!   behind the watermark, and a resume must replay exactly what was
//!   lost.
//! * The partitioned model applies publishes as a border does (a reset
//!   slice takes any first publish; then the watermark or its successor
//!   only) and asserts it never meets a hole the test did not make: a
//!   replay, a rebuild from the log and a snapshot all arrive whole.
//!
//! The overflow path (bounded queues compacting to a hole the border
//! heals) is deterministic, not generated:
//! `gap_resync_restores_consistency` overflows a capacity-4 queue twice
//! and asserts that the border's resubscribes — one answered by a
//! snapshot, one by a replay — restore the exact view.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use sda_ctrl::PartitionedMapServer;
use sda_simnet::{SimDuration, SimTime};
use sda_types::{row_digest, Eid, EidPrefix, MacAddr, Rloc, VnId};
use sda_wire::lisp::Message;
use std::net::Ipv4Addr;

// The reference keeps its whole API; this test calls part of it.
#[allow(dead_code)]
#[path = "reference/map_server.rs"]
mod reference;
// The reference's subscriber table, mounted beside it (it names it as
// its sibling `pubsub`).
#[allow(dead_code)]
#[path = "reference/pubsub.rs"]
mod pubsub;
use reference::MapServer;

const SHARDS: usize = 4;
const TTL_SECS: u32 = 300;

fn vn(n: u32) -> VnId {
    VnId::new(1 + n % 3).unwrap()
}

/// EIDs spread across /16 blocks so all 4 partitions participate; one
/// in ten is a MAC, so the registry's wide table takes part too.
fn eid(n: u32) -> Eid {
    if n % 10 == 9 {
        return Eid::Mac(MacAddr::from_seed(n));
    }
    Eid::V4(Ipv4Addr::from(0x0A00_0000 | ((n % 61) << 16) | n))
}

fn edge(n: u32) -> Rloc {
    Rloc::for_router_index(1 + (n % 23) as u16)
}

fn border(n: u32) -> Rloc {
    Rloc::for_router_index(900 + (n % 4) as u16)
}

/// One generated control-plane step.
#[derive(Clone, Debug)]
enum Op {
    /// Register (same `e`+different `r` later = move; same `r` =
    /// refresh).
    Register { v: u32, e: u32, r: u32 },
    /// Map-Request from some ITR.
    Request { v: u32, e: u32, itr: u32 },
    /// Border subscription stating what the border holds: `claim % 4`
    /// 0 or 1 — the honest watermark and digest (a live stream
    /// resumes), 2 — the watermark forged, 3 — the digest forged (both
    /// snapshot).
    Subscribe { v: u32, b: u32, claim: u32 },
    /// Advance the clock and run the expiry sweep on both sides.
    Expire { secs: u32 },
    /// Explicit withdraw.
    Withdraw { v: u32, e: u32 },
    /// Deltas to border `b` are lost until its next Subscribe (snapshots
    /// and rebuilds of a stream a step resets arrive whole).
    Lose { b: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..3, 0u32..200, 0u32..8).prop_map(|(v, e, r)| Op::Register { v, e, r }),
        (0u32..3, 0u32..200, 0u32..8).prop_map(|(v, e, itr)| Op::Request { v, e, itr }),
        (0u32..3, 0u32..4, 0u32..64).prop_map(|(v, b, claim)| Op::Subscribe { v, b, claim }),
        (1u32..200).prop_map(|secs| Op::Expire { secs }),
        (0u32..3, 0u32..200).prop_map(|(v, e)| Op::Withdraw { v, e }),
        (0u32..4).prop_map(|b| Op::Lose { b }),
    ]
}

/// A subscriber's `(vn, eid-prefix) → rloc` view plus per-VN stream
/// positions.
#[derive(Default, Debug, PartialEq, Eq)]
struct View {
    map: BTreeMap<(VnId, EidPrefix), Rloc>,
}

impl View {
    fn apply(&mut self, vn: VnId, prefix: EidPrefix, rloc: Rloc, withdraw: bool) {
        if withdraw {
            self.map.remove(&(vn, prefix));
        } else {
            self.map.insert((vn, prefix), rloc);
        }
    }

    /// Replaces the whole `vn` slice with snapshot content.
    fn replace_vn(&mut self, vn: VnId, content: &[(EidPrefix, Rloc)]) {
        self.map.retain(|(v, _), _| *v != vn);
        for (p, r) in content {
            self.map.insert((vn, *p), *r);
        }
    }

    /// What a border holding this view says it holds of `vn`.
    fn digest(&self, vn: VnId) -> u64 {
        self.map
            .iter()
            .filter(|((v, _), _)| *v == vn)
            .fold(0, |d, ((_, p), r)| {
                d.wrapping_add(row_digest(&p.as_host().unwrap(), *r))
            })
    }
}

/// The Subscribe `claim` makes from an honest `(watermark, digest)`.
fn claimed(vn: VnId, subscriber: Rloc, honest: (u64, u64), claim: u32) -> Message {
    let forge = 1 + u64::from(claim / 4);
    let (have_seq, digest) = match claim % 4 {
        0 | 1 => honest,
        2 => (honest.0.wrapping_add(forge), honest.1),
        _ => (honest.0, honest.1 ^ forge),
    };
    Message::Subscribe {
        nonce: 0,
        vn,
        subscriber,
        have_seq,
        digest,
    }
}

/// One side's subscriber model: views, per-stream watermarks, streams
/// recovering from a loss, and the borders whose deltas are being lost.
#[derive(Default)]
struct Model {
    views: BTreeMap<Rloc, View>,
    seqs: BTreeMap<(Rloc, VnId), u64>,
    /// Streams that lost a delta: what follows is dropped until an ack.
    holed: BTreeSet<(Rloc, VnId)>,
    dark: BTreeSet<Rloc>,
}

impl Model {
    /// What border `b` says it holds of `vn`.
    fn held(&self, b: Rloc, vn: VnId) -> (u64, u64) {
        let digest = self.views.get(&b).map_or(0, |view| view.digest(vn));
        (self.seqs.get(&(b, vn)).copied().unwrap_or(0), digest)
    }

    /// An ack for `key`: a reset empties the slice and its watermark.
    fn ack(&mut self, key: (Rloc, VnId), resumed: bool) {
        self.holed.remove(&key);
        if !resumed {
            self.views.entry(key.0).or_default().replace_vn(key.1, &[]);
            self.seqs.insert(key, 0);
        }
    }

    /// A delta for `key` unless the step loses it or a hole precedes it.
    fn arrives(&mut self, key: (Rloc, VnId), reset: bool) -> bool {
        if self.dark.contains(&key.0) && !reset {
            self.holed.insert(key);
        }
        !self.holed.contains(&key)
    }

    fn apply(&mut self, to: Rloc, m: &Message) {
        if let Message::Publish {
            vn,
            prefix,
            rloc,
            withdraw,
            ..
        } = m
        {
            (self.views.entry(to).or_default()).apply(*vn, *prefix, *rloc, *withdraw);
        }
    }
}

fn nonce_of(m: &Message) -> u64 {
    match m {
        Message::Publish { nonce, .. } => *nonce,
        other => panic!("not a publish: {other:?}"),
    }
}

/// Applies the single server's outbox to its subscriber model: an ack
/// resets or keeps the slice, a publish lands and raises the watermark
/// (its numbering is per publish across subscribers, so it has no holes
/// to see — the model drops after a loss on its own).
fn apply_single_publishes(model: &mut Model, out: &[(Rloc, Message)]) {
    let mut reset = BTreeSet::new();
    for (to, m) in out {
        match m {
            Message::SubscribeAck { vn, resumed, .. } => {
                model.ack((*to, *vn), *resumed);
                if !resumed {
                    reset.insert((*to, *vn));
                }
            }
            Message::Publish { vn, .. } => {
                let key = (*to, *vn);
                if model.arrives(key, reset.contains(&key)) {
                    model.apply(*to, m);
                    let seq = model.seqs.entry(key).or_insert(0);
                    *seq = (*seq).max(nonce_of(m));
                }
            }
            _ => {}
        }
    }
}

/// Applies one partitioned-server step — its reply (an ack and any
/// snapshot behind it), then its flush — to its subscriber model the way
/// a border does, asserting that no publish ever lands past a hole the
/// step did not make.
fn apply_flush(model: &mut Model, reply: &[(Rloc, Message)], flushed: &[(Rloc, Message)]) {
    let mut reset = BTreeSet::new();
    for (to, m) in reply.iter().chain(flushed) {
        let vn = match m {
            Message::SubscribeAck { vn, resumed, .. } => {
                model.ack((*to, *vn), *resumed);
                if !resumed {
                    reset.insert((*to, *vn));
                }
                continue;
            }
            Message::Publish { vn, .. } => vn,
            _ => continue,
        };
        let key = (*to, *vn);
        if !model.arrives(key, reset.contains(&key)) {
            continue;
        }
        let (nonce, last) = (nonce_of(m), model.seqs.get(&key).copied().unwrap_or(0));
        assert!(
            last == 0 || nonce == last || nonce == last + 1,
            "stream {key:?} at {last} got {nonce}: a hole or a stale delta"
        );
        model.apply(*to, m);
        model.seqs.insert(key, nonce);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitioned_matches_single_server(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let rloc = Rloc::for_router_index(1000);
        let mut single = MapServer::new(rloc);
        let mut part = PartitionedMapServer::new(rloc, SHARDS);

        let mut now = SimTime::ZERO;
        let mut single_model = Model::default();
        let mut part_model = Model::default();
        let mut dark: BTreeSet<Rloc> = BTreeSet::new();
        let mut nonce = 0u64;

        for op in &ops {
            // Each server gets what its own model says the border holds
            // (the two number their streams differently); every other
            // message goes to both as is.
            let same = |m: Message| Some((m.clone(), m));
            let msg = match *op {
                Op::Register { v, e, r } => {
                    nonce += 1;
                    same(Message::MapRegister {
                        nonce,
                        vn: vn(v),
                        eid: eid(e),
                        rloc: edge(r),
                        ttl_secs: TTL_SECS,
                        // Exercise the ack path too.
                        want_notify: e % 5 == 0,
                    })
                }
                Op::Request { v, e, itr } => {
                    nonce += 1;
                    same(Message::MapRequest {
                        nonce,
                        smr: false,
                        vn: vn(v),
                        eid: eid(e),
                        itr_rloc: edge(itr),
                    })
                }
                Op::Subscribe { v, b, claim } => {
                    let (vn, b) = (vn(v), border(b));
                    Some((
                        claimed(vn, b, single_model.held(b, vn), claim),
                        claimed(vn, b, part_model.held(b, vn), claim),
                    ))
                }
                Op::Expire { .. } | Op::Withdraw { .. } | Op::Lose { .. } => None,
            };
            // A border's Subscribe ends its dark window.
            match *op {
                Op::Lose { b } => {
                    dark.insert(border(b));
                }
                Op::Subscribe { b, .. } => {
                    dark.remove(&border(b));
                }
                _ => {}
            }
            single_model.dark = dark.clone();
            part_model.dark = dark.clone();

            match (op, msg) {
                (_, Some((to_single, to_part))) => {
                    let out_single = single.handle(to_single, now);
                    let out_part = part.handle(to_part, now);

                    // Reply-for-reply, notify-for-notify: everything the
                    // two servers transmit except publishes must match
                    // exactly, in order.
                    let non_pub = |out: &[(Rloc, Message)]| -> Vec<(Rloc, Message)> {
                        (out.iter())
                            .filter(|(_, m)| !matches!(m, Message::Publish { .. }))
                            .cloned()
                            .collect()
                    };
                    prop_assert_eq!(non_pub(&out_single), non_pub(&out_part));

                    apply_single_publishes(&mut single_model, &out_single);
                    let flushed = part.flush_publishes();
                    apply_flush(&mut part_model, &out_part, &flushed);
                }
                (Op::Expire { secs }, None) => {
                    now += SimDuration::from_secs(u64::from(*secs));
                    let out_single = single.expire(now);
                    part.expire(now);
                    apply_single_publishes(&mut single_model, &out_single);
                    let flushed = part.flush_publishes();
                    apply_flush(&mut part_model, &[], &flushed);
                }
                (Op::Withdraw { v, e }, None) => {
                    let out_single = single.withdraw(vn(*v), eid(*e));
                    part.withdraw(vn(*v), eid(*e));
                    apply_single_publishes(&mut single_model, &out_single);
                    let flushed = part.flush_publishes();
                    apply_flush(&mut part_model, &[], &flushed);
                }
                (Op::Lose { .. }, None) => {}
                _ => unreachable!(),
            }

            prop_assert_eq!(single.db().len(), part.db_len(), "database sizes diverged");
            // Views agree after every step, so an honest claim is honest
            // on both sides.
            for sub in single_model.views.keys().chain(part_model.views.keys()) {
                let empty = View::default();
                let a = single_model.views.get(sub).unwrap_or(&empty);
                let b = part_model.views.get(sub).unwrap_or(&empty);
                prop_assert_eq!(&a.map, &b.map, "subscriber {:?} view diverged", sub);
            }
        }

        // No silent gaps at the default queue bound: the per-VN cursor
        // checks above already guarantee it, but make the claim explicit.
        prop_assert_eq!(part.pubsub_gaps(), 0);

        // Final registered state agrees entry-for-entry (live records
        // only — both sides may still hold unswept expired entries).
        let mut single_entries: Vec<(VnId, EidPrefix, Rloc)> = single
            .db()
            .iter()
            .filter(|(_, _, r)| !r.expired(now))
            .map(|(v, p, r)| (v, p, r.rloc))
            .collect();
        let mut part_entries: Vec<(VnId, EidPrefix, Rloc)> = Vec::new();
        for v in 0..3 {
            for (p, r) in part_lookup_all(&part, vn(v), now) {
                part_entries.push((vn(v), p, r));
            }
        }
        single_entries.sort();
        part_entries.sort();
        prop_assert_eq!(single_entries, part_entries);

        // Subscriber views converge. (Views the single server never
        // published to stay empty on both sides.)
        for (sub, view) in &single_model.views {
            let empty = View::default();
            let got = part_model.views.get(sub).unwrap_or(&empty);
            prop_assert_eq!(&view.map, &got.map, "subscriber {:?} view diverged", sub);
        }

        // Counters: replies and moves are observable behavior too.
        let s = single.stats();
        let p = part.stats();
        prop_assert_eq!(s.replies, p.replies);
        prop_assert_eq!(s.negative_replies, p.negative_replies);
        prop_assert_eq!(s.registers, p.registers);
        prop_assert_eq!(s.moves, p.moves);
    }
}

/// Every (prefix, rloc) the partitioned server would answer for `v` —
/// reconstructed through the public lookup API so the test exercises
/// owner routing rather than trusting internal iteration.
fn part_lookup_all(part: &PartitionedMapServer, v: VnId, now: SimTime) -> Vec<(EidPrefix, Rloc)> {
    let mut out = Vec::new();
    for e in 0..200 {
        if let Some((p, rec)) = part.lookup(v, eid(e), now) {
            out.push((p, rec.rloc));
        }
    }
    out
}

/// The overflow path, deterministically: a capacity-4 queue overflows
/// under a burst of changes and compacts to the VN's first and newest
/// deltas. A border applies the first, meets a hole and resubscribes from
/// its watermark; the answer — a snapshot behind the ack when the missed
/// range outgrows the queue, a replay when it fits — must restore the
/// exact authoritative view, including a withdrawal that happened inside
/// the dropped window.
#[test]
fn gap_resync_restores_consistency() {
    let rloc = Rloc::for_router_index(1000);
    let mut part = PartitionedMapServer::with_queue_capacity(rloc, SHARDS, 4);
    let b = border(0);
    let v = vn(0);
    let now = SimTime::ZERO;
    let register = |e: u32, r: u32| Message::MapRegister {
        nonce: 1,
        vn: v,
        eid: eid(e),
        rloc: edge(r),
        ttl_secs: TTL_SECS,
        want_notify: false,
    };
    // The border as `sda_core::border` keeps its slice: a reset slice
    // takes any first publish, then only the watermark's successor; a
    // hole drops the rest until the resubscribe's answer.
    let mut view = View::default();
    let mut last = 0u64;
    let apply = |view: &mut View, last: &mut u64, out: &[(Rloc, Message)]| {
        let mut holed = false;
        for (to, m) in out {
            assert_eq!(*to, b);
            match *m {
                Message::SubscribeAck { resumed: false, .. } => {
                    view.replace_vn(v, &[]);
                    (*last, holed) = (0, false);
                }
                Message::SubscribeAck { resumed: true, .. } => holed = false,
                Message::Publish {
                    nonce,
                    prefix,
                    rloc,
                    withdraw,
                    ..
                } => {
                    holed |= *last != 0 && nonce > *last + 1;
                    if !holed && nonce >= *last {
                        view.apply(v, prefix, rloc, withdraw);
                        *last = nonce;
                    }
                }
                ref other => panic!("unexpected {other:?}"),
            }
        }
        holed
    };
    let subscribe = |view: &View, last: u64| Message::Subscribe {
        nonce: 0,
        vn: v,
        subscriber: b,
        have_seq: last,
        digest: view.digest(v),
    };
    let want = |part: &PartitionedMapServer| -> BTreeMap<(VnId, EidPrefix), Rloc> {
        (part.iter_db())
            .filter(|(of, _, _)| *of == v)
            .map(|(of, p, rec)| ((of, p), rec.rloc))
            .collect()
    };

    let out = part.handle(subscribe(&view, last), now);
    assert!(!apply(&mut view, &mut last, &out));
    assert!(part.flush_publishes().is_empty(), "an empty VN");

    // Burst: 8 registrations + 1 withdrawal without a flush. Capacity 4
    // compacts twice: the flush carries seq 1, 8 and 9.
    for e in 0..8 {
        part.handle(register(e, e), now);
    }
    part.withdraw(v, eid(3));
    assert_eq!(part.pubsub_gaps(), 2, "burst must overflow the queue");
    let out = part.flush_publishes();
    assert_eq!(out.len(), 3);
    assert!(apply(&mut view, &mut last, &out), "a hole after seq 1");
    assert_eq!(last, 1);

    // Eight changes behind on a queue of 4: the stream resets and the
    // snapshot rides the ack — 7 live entries, the withdrawn one absent
    // even though its withdrawal delta was dropped.
    let out = part.handle(subscribe(&view, last), now);
    assert!(matches!(
        out[0].1,
        Message::SubscribeAck { resumed: false, .. }
    ));
    assert_eq!(out.len(), 1 + 7);
    assert!(!apply(&mut view, &mut last, &out));
    assert!(part.flush_publishes().is_empty());
    assert_eq!(view.map, want(&part));
    assert!(!view.map.contains_key(&(v, EidPrefix::host(eid(3)))));
    assert_eq!(last, 9, "the snapshot's watermark");

    // A second burst of five compacts once; the four missed fit the
    // queue, so the resubscribe resumes and replays exactly them.
    for e in 10..15 {
        part.handle(register(e, e + 1), now);
    }
    assert_eq!(part.pubsub_gaps(), 3);
    let out = part.flush_publishes();
    assert!(apply(&mut view, &mut last, &out), "a hole after seq 10");
    let out = part.handle(subscribe(&view, last), now);
    assert_eq!(out.len(), 1);
    assert!(matches!(
        out[0].1,
        Message::SubscribeAck { resumed: true, .. }
    ));
    let replayed = part.flush_publishes();
    assert_eq!(replayed.len(), 4);
    assert!(!apply(&mut view, &mut last, &out));
    assert!(!apply(&mut view, &mut last, &replayed));
    assert_eq!(view.map, want(&part));
    assert_eq!((last, part.pubsub_replays()), (14, 1));
}
