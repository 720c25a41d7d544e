//! Incremental pub/sub delta fan-out.
//!
//! The single reference map-server walks the whole VN on every
//! subscribe and touches every subscriber's stream through one global
//! counter. Here every mapping change enqueues one [`Delta`] into the
//! bounded queue of each subscriber of *that VN* — O(changes ×
//! subscribers-of-that-VN), never O(world) — stamped with a **per-VN**
//! sequence number.
//!
//! All per-VN state lives in **one map**, `VnId → VnStream`: the VN's
//! publish sequence and its subscribers, each with the sync state of that
//! `(subscriber, VN)` stream. A publish is one probe of that map and a
//! walk of the entry's subscriber list; a subscriber itself is only its
//! locator and its delta queue.
//!
//! Snapshot resync rides the same path as initial subscription: a
//! `(subscriber, VN)` stream is either `Live` (deltas flow) or pending
//! `Snapshot` (deltas are suppressed; the next
//! [`DeltaFanout::flush`] walks the owner shards' current state for
//! that VN instead). Queue overflow — the subscriber fell too far
//! behind — drops that VN's queued deltas and flips the stream back to
//! `Snapshot`: a gap never delivers a partial view, it re-synchronizes.
//! The fan-out counts its pending snapshots, so a flush with none — every
//! flush of a settled system — only drains the queues.
//!
//! **Resume** (the "deltas if nothing was missed, snapshot otherwise"
//! rule of BGP Enhanced Route Refresh, RFC 7313, and LISP pub/sub, RFC
//! 9437). A Subscribe carries the border's watermark (`have_seq`) and
//! its synced slice's digest (wrapping sum of [`sda_types::row_digest`]).
//! The server acks `resumed` and sends nothing else only when the stream
//! is `Live`, `have_seq` is the VN's sequence and the digest is the up
//! shards' `MappingDb::vn_digest` sum — exactly what a snapshot would
//! send; otherwise it subscribes as above. A watermark alone misses a
//! lost snapshot publish (all carry the same one), a row count a stale
//! slice under a lost ack. No epoch: a restarted server has no live
//! stream, a crashed or partitioned shard changes the server's digest.
//!
//! Sequence semantics on the wire ([`Message::Publish`]'s `nonce`):
//! delta publishes carry the change's own per-VN sequence number;
//! snapshot publishes carry the VN's current watermark (snapshots
//! describe *state as of* that sequence, and must not advance the
//! sequence or live subscribers of the same VN would see phantom gaps).

use std::collections::{BTreeMap, VecDeque};

use sda_types::{Eid, EidPrefix, Rloc, VnId};
use sda_wire::lisp::Message;

/// Default per-subscriber delta queue bound. A subscriber further than
/// this many undelivered changes behind is resynced by snapshot instead.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// One pending mapping change for one subscriber.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delta {
    /// The VN the change belongs to.
    pub vn: VnId,
    /// The (host) EID that changed.
    pub eid: Eid,
    /// The new RLOC (or, for withdrawals, the last one).
    pub rloc: Rloc,
    /// True when the mapping was removed.
    pub withdraw: bool,
    /// Per-VN publish sequence number.
    pub seq: u64,
}

/// Sync state of one `(subscriber, VN)` stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VnSync {
    /// Snapshot pending: deltas suppressed until the next flush walks
    /// the current state (initial subscribe, or gap recovery).
    Snapshot,
    /// Deltas flow.
    Live,
}

struct Sub {
    rloc: Rloc,
    /// Bounded queue of undelivered deltas, across this subscriber's VNs.
    queue: VecDeque<Delta>,
}

/// Everything the fan-out knows about one VN.
#[derive(Default)]
struct VnStream {
    /// Publish sequence (the source of truth for gap detection). Counts
    /// from the first change, subscribers or not.
    seq: u64,
    /// `(index into DeltaFanout::subs, stream state)`, in subscription
    /// order.
    subs: Vec<(usize, VnSync)>,
}

/// Per-subscriber delta queues plus the per-VN sequence authority.
pub(crate) struct DeltaFanout {
    subs: Vec<Sub>,
    streams: BTreeMap<VnId, VnStream>,
    /// `(subscriber, VN)` streams in [`VnSync::Snapshot`] state — what
    /// the next flush has to walk.
    pending_snapshots: usize,
    cap: usize,
    delivered: u64,
    gaps: u64,
    /// High-water mark across all subscriber queues (cap audits).
    peak_depth: usize,
}

impl DeltaFanout {
    /// Empty fan-out with per-subscriber queue bound `cap`.
    ///
    /// # Panics
    /// Panics if `cap` is zero (a zero-length queue could never go live).
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        DeltaFanout {
            subs: Vec::new(),
            streams: BTreeMap::new(),
            pending_snapshots: 0,
            cap,
            delivered: 0,
            gaps: 0,
            peak_depth: 0,
        }
    }

    /// Whether `rloc`'s stream for `vn` is `Live`; `None` when it has
    /// none. A known stream's Subscribe is a resync, not a fresh
    /// subscription: admission lets those self-healing resubscribes
    /// bypass the subscribe budget, and only a live one can resume.
    pub(crate) fn stream_live(&self, vn: VnId, rloc: Rloc) -> Option<bool> {
        let subs = &self.streams.get(&vn)?.subs;
        let &(_, state) = subs.iter().find(|&&(i, _)| self.subs[i].rloc == rloc)?;
        Some(state == VnSync::Live)
    }

    /// `(subscriber, VN)` streams, live or snapshot-pending.
    pub(crate) fn stream_count(&self) -> usize {
        self.streams.values().map(|s| s.subs.len()).sum()
    }

    /// Subscribes `rloc` to `vn`'s stream, marking it for snapshot on
    /// the next flush. Idempotent (re-subscribing forces a resync).
    pub(crate) fn subscribe(&mut self, vn: VnId, rloc: Rloc) {
        let idx = match self.subs.iter().position(|s| s.rloc == rloc) {
            Some(i) => i,
            None => {
                self.subs.push(Sub {
                    rloc,
                    queue: VecDeque::new(),
                });
                self.subs.len() - 1
            }
        };
        // A forced resync makes any queued deltas for this VN redundant.
        self.subs[idx].queue.retain(|d| d.vn != vn);
        let stream = self.streams.entry(vn).or_default();
        match stream.subs.iter_mut().find(|(i, _)| *i == idx) {
            Some((_, VnSync::Snapshot)) => {}
            Some((_, state @ VnSync::Live)) => {
                *state = VnSync::Snapshot;
                self.pending_snapshots += 1;
            }
            None => {
                stream.subs.push((idx, VnSync::Snapshot));
                self.pending_snapshots += 1;
            }
        }
    }

    /// Records one mapping change, enqueueing a delta for every live
    /// subscriber of `vn`. Allocates the change's per-VN sequence number
    /// even when nobody listens (the stream must stay gap-free for
    /// subscribers that join later).
    pub(crate) fn publish(&mut self, vn: VnId, eid: Eid, rloc: Rloc, withdraw: bool) {
        let stream = self.streams.entry(vn).or_default();
        stream.seq += 1;
        let seq = stream.seq;
        for (i, state) in &mut stream.subs {
            // Snapshot pending: the flush-time walk of current state
            // already covers this change; a delta would double it.
            if *state == VnSync::Snapshot {
                continue;
            }
            let queue = &mut self.subs[*i].queue;
            if queue.len() >= self.cap {
                // Gap: this subscriber fell too far behind. Drop the
                // VN's queued deltas and resync by snapshot — never
                // deliver a stream with a hole in it.
                *state = VnSync::Snapshot;
                self.pending_snapshots += 1;
                queue.retain(|d| d.vn != vn);
                self.gaps += 1;
            } else {
                queue.push_back(Delta {
                    vn,
                    eid,
                    rloc,
                    withdraw,
                    seq,
                });
                self.peak_depth = self.peak_depth.max(queue.len());
            }
        }
    }

    /// Drains every subscriber's stream into `(destination, Publish)`
    /// pairs: pending snapshots first (state supplied by `snapshot`,
    /// which must emit every `(prefix, rloc)` currently mapped in the
    /// given VN), then queued deltas. Deterministic: subscribers in
    /// subscription order, snapshot VNs in `VnId` order.
    pub(crate) fn flush<F>(&mut self, mut snapshot: F) -> Vec<(Rloc, Message)>
    where
        F: FnMut(VnId, &mut dyn FnMut(EidPrefix, Rloc)),
    {
        let queued: usize = self.subs.iter().map(|s| s.queue.len()).sum();
        let mut out = Vec::with_capacity(queued);
        for (idx, sub) in self.subs.iter_mut().enumerate() {
            let to = sub.rloc;
            if self.pending_snapshots > 0 {
                for (&vn, stream) in &mut self.streams {
                    let watermark = stream.seq;
                    let pending = stream
                        .subs
                        .iter_mut()
                        .find(|(i, state)| *i == idx && *state == VnSync::Snapshot);
                    let Some((_, state)) = pending else {
                        continue;
                    };
                    snapshot(vn, &mut |prefix, rloc| {
                        out.push((
                            to,
                            Message::Publish {
                                nonce: watermark,
                                vn,
                                prefix,
                                rloc,
                                withdraw: false,
                            },
                        ));
                    });
                    *state = VnSync::Live;
                    self.pending_snapshots -= 1;
                }
            }
            out.extend(sub.queue.drain(..).map(|d| {
                (
                    to,
                    Message::Publish {
                        nonce: d.seq,
                        vn: d.vn,
                        prefix: EidPrefix::host(d.eid),
                        rloc: d.rloc,
                        withdraw: d.withdraw,
                    },
                )
            }));
        }
        self.delivered += out.len() as u64;
        out
    }

    /// The current sequence watermark of `vn` (0 before any change).
    pub(crate) fn current_seq(&self, vn: VnId) -> u64 {
        self.streams.get(&vn).map_or(0, |s| s.seq)
    }

    /// Publishes emitted by flushes so far.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Queue-overflow resyncs forced so far.
    pub(crate) fn gaps(&self) -> u64 {
        self.gaps
    }

    /// High-water mark of any single subscriber queue so far — provably
    /// ≤ the configured cap (overflow resyncs instead of growing).
    pub(crate) fn peak_depth(&self) -> usize {
        self.peak_depth
    }
}

impl Default for DeltaFanout {
    fn default() -> Self {
        DeltaFanout::new(DEFAULT_QUEUE_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn eid(n: u32) -> Eid {
        Eid::V4(Ipv4Addr::from(0x0A00_0000 | n))
    }

    fn rl(n: u16) -> Rloc {
        Rloc::for_router_index(n)
    }

    /// The maintained pending-snapshot count against a recount of the
    /// stream states. Every step of every test below ends with it.
    fn audit(f: &DeltaFanout) {
        let recount = f
            .streams
            .values()
            .flat_map(|s| &s.subs)
            .filter(|(_, state)| *state == VnSync::Snapshot)
            .count();
        assert_eq!(f.pending_snapshots, recount, "pending-snapshot drift");
    }

    fn subscribe(f: &mut DeltaFanout, vn: VnId, rloc: Rloc) {
        f.subscribe(vn, rloc);
        audit(f);
    }

    fn publish(f: &mut DeltaFanout, vn: VnId, eid: Eid, rloc: Rloc) {
        f.publish(vn, eid, rloc, false);
        audit(f);
    }

    /// Flush against `world` as the content of whichever VN is asked for.
    fn flush_world(f: &mut DeltaFanout, world: &[(EidPrefix, Rloc)]) -> Vec<(Rloc, Message)> {
        let out = f.flush(|_, emit| {
            for (p, r) in world {
                emit(*p, *r);
            }
        });
        audit(f);
        assert_eq!(f.pending_snapshots, 0, "a flush serves every snapshot");
        out
    }

    /// Flush against an empty world (no snapshot content).
    fn flush_empty(f: &mut DeltaFanout) -> Vec<(Rloc, Message)> {
        flush_world(f, &[])
    }

    #[test]
    fn each_change_delivered_exactly_once() {
        let mut f = DeltaFanout::new(64);
        subscribe(&mut f, vn(1), rl(9));
        flush_empty(&mut f); // empty snapshot -> Live
        for i in 0..10 {
            publish(&mut f, vn(1), eid(i), rl(1));
        }
        let out = flush_empty(&mut f);
        assert_eq!(out.len(), 10);
        let seqs: Vec<u64> = out
            .iter()
            .map(|(_, m)| match m {
                Message::Publish { nonce, .. } => *nonce,
                other => panic!("expected Publish, got {other:?}"),
            })
            .collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>(), "contiguous per-VN");
        // Nothing left: a second flush is empty.
        assert!(flush_empty(&mut f).is_empty());
        assert_eq!(f.delivered(), 10);
    }

    #[test]
    fn publish_only_reaches_that_vns_subscribers() {
        let mut f = DeltaFanout::new(64);
        subscribe(&mut f, vn(1), rl(9));
        subscribe(&mut f, vn(2), rl(8));
        flush_empty(&mut f);
        publish(&mut f, vn(1), eid(1), rl(1));
        let out = flush_empty(&mut f);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, rl(9), "vn-2 subscriber untouched");
    }

    #[test]
    fn per_vn_sequences_are_independent() {
        let mut f = DeltaFanout::new(64);
        publish(&mut f, vn(1), eid(1), rl(1));
        publish(&mut f, vn(1), eid(2), rl(1));
        publish(&mut f, vn(2), eid(3), rl(1));
        assert_eq!(f.current_seq(vn(1)), 2);
        assert_eq!(
            f.current_seq(vn(2)),
            1,
            "vn-1 traffic must not advance vn-2"
        );
    }

    #[test]
    fn overflow_gap_resyncs_by_snapshot() {
        let mut f = DeltaFanout::new(4);
        subscribe(&mut f, vn(1), rl(9));
        flush_empty(&mut f);
        // 4 fit, the 5th overflows -> gap -> queued deltas dropped.
        for i in 0..5 {
            publish(&mut f, vn(1), eid(i), rl(1));
        }
        assert_eq!(f.gaps(), 1);
        // The flush must deliver a snapshot (here: the authoritative
        // world has entries 0..5) stamped at the watermark, not deltas.
        let world: Vec<(EidPrefix, Rloc)> =
            (0..5).map(|i| (EidPrefix::host(eid(i)), rl(1))).collect();
        let out = flush_world(&mut f, &world);
        assert_eq!(out.len(), 5);
        for (_, m) in &out {
            match m {
                Message::Publish { nonce, .. } => assert_eq!(*nonce, 5, "watermark"),
                other => panic!("expected Publish, got {other:?}"),
            }
        }
        // Stream is live again afterwards.
        publish(&mut f, vn(1), eid(99), rl(1));
        let out = flush_empty(&mut f);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Message::Publish { nonce: 6, .. }));
    }

    #[test]
    fn changes_while_snapshot_pending_are_not_doubled() {
        let mut f = DeltaFanout::new(64);
        subscribe(&mut f, vn(1), rl(9));
        // Change lands before the first flush: covered by the snapshot.
        publish(&mut f, vn(1), eid(1), rl(1));
        let world = [(EidPrefix::host(eid(1)), rl(1))];
        let out = flush_world(&mut f, &world);
        assert_eq!(out.len(), 1, "snapshot only, no duplicate delta");
    }

    #[test]
    fn sequences_advance_even_with_no_subscribers() {
        let mut f = DeltaFanout::new(64);
        publish(&mut f, vn(1), eid(1), rl(1));
        subscribe(&mut f, vn(1), rl(9));
        publish(&mut f, vn(1), eid(2), rl(1));
        let world = [
            (EidPrefix::host(eid(1)), rl(1)),
            (EidPrefix::host(eid(2)), rl(1)),
        ];
        let out = flush_world(&mut f, &world);
        // Snapshot watermark reflects both changes.
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, Message::Publish { nonce: 2, .. })));
        publish(&mut f, vn(1), eid(3), rl(2));
        let out = flush_empty(&mut f);
        assert!(matches!(out[0].1, Message::Publish { nonce: 3, .. }));
    }

    #[test]
    fn flush_orders_by_subscriber_then_vn_and_snapshots_only_the_pending() {
        let mut f = DeltaFanout::new(64);
        // Subscription order: rl(9) then rl(8); VNs out of order.
        subscribe(&mut f, vn(2), rl(9));
        subscribe(&mut f, vn(1), rl(8));
        subscribe(&mut f, vn(1), rl(9));
        assert_eq!(f.subs.len(), 2);
        assert_eq!(f.stream_count(), 3);
        assert_eq!(f.stream_live(vn(2), rl(9)), Some(false), "snapshot pending");
        assert_eq!(f.stream_live(vn(2), rl(8)), None);
        let mut asked = Vec::new();
        let out = f.flush(|v, emit| {
            asked.push(v);
            emit(EidPrefix::host(eid(v.raw())), rl(1));
        });
        audit(&f);
        assert_eq!(
            asked,
            [vn(1), vn(2), vn(1)],
            "per subscriber, in VnId order"
        );
        let to: Vec<Rloc> = out.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, [rl(9), rl(9), rl(8)]);
        // Resubscribing a live stream queues exactly that one snapshot,
        // and drops the deltas it makes redundant; the other streams keep
        // theirs and are not walked again.
        publish(&mut f, vn(1), eid(5), rl(2));
        publish(&mut f, vn(2), eid(6), rl(2));
        subscribe(&mut f, vn(1), rl(9));
        subscribe(&mut f, vn(1), rl(9));
        assert_eq!(f.stream_count(), 3, "a resync is not a new stream");
        let mut asked = Vec::new();
        let out = f.flush(|v, emit| {
            asked.push(v);
            emit(EidPrefix::host(eid(5)), rl(2));
        });
        audit(&f);
        assert_eq!(asked, [vn(1)]);
        let got: Vec<(Rloc, u64, VnId)> = out
            .iter()
            .map(|(to, m)| match m {
                Message::Publish { nonce, vn, .. } => (*to, *nonce, *vn),
                other => panic!("expected Publish, got {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            [
                (rl(9), 1, vn(1)), // the snapshot, at vn 1's watermark
                (rl(9), 1, vn(2)), // rl(9)'s surviving vn-2 delta
                (rl(8), 1, vn(1)), // rl(8) stayed live on vn 1
            ]
        );
        assert_eq!(f.delivered(), 6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DeltaFanout::new(0);
    }
}
