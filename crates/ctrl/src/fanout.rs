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
//! Resync rides the same path as initial subscription: a `(subscriber,
//! VN)` stream is either `Live` (deltas flow) or pending `Snapshot`
//! (deltas are suppressed; the next [`DeltaFanout::flush`] walks the
//! owner shards' current state for that VN instead). The fan-out counts
//! its pending snapshots, so a flush with none — every flush of a
//! settled system — only drains the queues.
//!
//! **Overflow.** A subscriber more than the queue's cap behind drops
//! that VN's queued deltas and the stream flips back to `Snapshot`, with
//! no ack: its rows reach the subscriber at the watermark, after a hole.
//! A border reads them against its own watermark (`sda_core::border`):
//! with an empty slice it takes them as its slice; further behind than
//! one change it drops them as a hole and resubscribes from its
//! watermark, which the resume rule below answers with a replay — the
//! snapshot walk was spent for nothing; exactly one change behind it
//! installs them as that change, so a row the change withdrew stays in
//! its slice until its next claim fails. Overflow needs more than the
//! cap of changes queued for one subscriber between two flushes.
//!
//! **Delta log.** Beside the queues, one bounded log keeps the last
//! [`LOG_CAP`] changes across all VNs, each as `(vn, eid, new, old)` —
//! one write per change, not one per subscriber, allocated by the first
//! change (a server that only answers requests and refreshes never
//! holds one). A change's sequence number is implied: the log holds each
//! VN's last changes, consecutive up to the VN's sequence.
//!
//! **Resume** (the "deltas if nothing was missed, snapshot otherwise"
//! rule of BGP Enhanced Route Refresh, RFC 7313, and LISP pub/sub, RFC
//! 9437). A Subscribe carries the border's watermark (`have_seq`) and
//! its synced slice's digest (wrapping sum of [`sda_types::row_digest`]),
//! and a border keeps its slice a prefix of the stream, so the claim is
//! "I hold the VN as it stood at `have_seq`". The server acks `resumed`
//! when the stream is `Live`, the log still holds every change of the
//! VN in `(have_seq, seq]`, and the digest is the up shards'
//! `MappingDb::vn_digest` sum minus those changes' steps `row(new) −
//! row(old)` — the digest the VN had at `have_seq`. It then re-queues
//! that range to that subscriber as ordinary deltas (its unflushed
//! deltas of the VN dropped first), so `resumed` means "keep your slice;
//! whatever follows `have_seq` arrives as deltas". `have_seq == seq` is
//! the same rule with an empty range: nothing follows.
//!
//! **Reset.** Any other Subscribe — a new stream or a failed claim —
//! resets the stream: the ack tells the subscriber to empty its slice,
//! and the empty slice is itself the claim `(0, 0)` (the VN before its
//! first change), which the same rule answers. When the log still holds
//! the VN's whole history and it sums to the VN's digest, the history is
//! re-queued as deltas; otherwise the stream waits for a snapshot at the
//! next flush. The two rebuild the same rows, but a replayed history is
//! sequenced, so a delta lost on the way is a hole the subscriber sees
//! and asks for, where a lost snapshot row (all carry one watermark) is
//! silent until the next claim fails. A watermark alone misses a lost
//! snapshot publish, a row count a stale slice under a lost ack. No
//! epoch: a restarted server has no live stream, and a crashed,
//! restarted or partitioned shard changes the server's digest without a
//! logged change to account for it, so a claim from before such a fault
//! fails, and so does the empty claim until the log no longer reaches
//! back past the fault — such a reset takes a snapshot.
//!
//! Sequence semantics on the wire ([`Message::Publish`]'s `nonce`):
//! delta publishes carry the change's own per-VN sequence number;
//! snapshot publishes carry the VN's current watermark (snapshots
//! describe *state as of* that sequence, and must not advance the
//! sequence or live subscribers of the same VN would see phantom gaps).

use std::collections::{BTreeMap, VecDeque};

use sda_types::{row_digest, Eid, EidPrefix, Rloc, VnId};
use sda_wire::lisp::Message;

/// Default per-subscriber delta queue bound. A subscriber further than
/// this many undelivered changes behind is resynced by snapshot instead.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Changes the delta log keeps, across all VNs. A claim further behind
/// than the log reaches takes a snapshot. At 1024 the `fabric_storm`
/// campaigns rebuild every reset from the log; at 256 a third of them
/// fall back to snapshots.
const LOG_CAP: usize = 1024;

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

/// One mapping change as the delta log keeps it (32 bytes: the log is
/// written on every change, so its footprint is paid in cache lines).
#[derive(Clone, Copy, Debug)]
struct Change {
    vn: VnId,
    eid: Eid,
    /// The row after the change; `None` for a withdrawal.
    new: Option<Rloc>,
    /// The row before it; `None` when the EID had none.
    old: Option<Rloc>,
}

const _: () = assert!(std::mem::size_of::<Change>() == 32);

impl Change {
    /// The change, numbered `seq`, as a subscriber's queue holds it.
    fn delta(&self, seq: u64) -> Delta {
        Delta {
            vn: self.vn,
            eid: self.eid,
            rloc: self.new.or(self.old).expect("a change has a row"),
            withdraw: self.new.is_none(),
            seq,
        }
    }

    /// What the change added to the VN's slice digest.
    fn step(&self) -> u64 {
        let term = |rloc: Option<Rloc>| rloc.map_or(0, |r| row_digest(&self.eid, r));
        term(self.new).wrapping_sub(term(self.old))
    }
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
    /// The last [`LOG_CAP`] changes, oldest first.
    log: VecDeque<Change>,
    /// `(subscriber, VN)` streams in [`VnSync::Snapshot`] state — what
    /// the next flush has to walk.
    pending_snapshots: usize,
    cap: usize,
    delivered: u64,
    gaps: u64,
    /// Resumes that re-queued a non-empty range (rebuilds of a reset
    /// stream not included).
    replays: u64,
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
            log: VecDeque::new(),
            pending_snapshots: 0,
            cap,
            delivered: 0,
            gaps: 0,
            replays: 0,
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

    /// Answers a Subscribe from `rloc` for `vn` claiming its slice is
    /// the VN as of `have_seq`, with digest `digest`; returns whether it
    /// resumed. `vn_digest` walks the VN's slice digest now (the up
    /// shards' rows); it runs at most once, and only for a range the log
    /// covers.
    ///
    /// A live stream whose claim passes the resume rule (module doc)
    /// resumes: the changes after `have_seq` are re-queued. Any other
    /// claim resets the stream — its queued deltas of the VN dropped, the
    /// subscriber told to empty its slice — and the reset slice, the VN as
    /// of seq 0 with digest 0, is itself a claim the same rule answers: the
    /// VN's whole history is re-queued as deltas when the log still holds
    /// it and it sums to the VN's digest, and a snapshot is pending for
    /// the next flush otherwise. A replayed history is sequenced, so a
    /// lost delta of it is a hole the subscriber sees, where a lost
    /// snapshot row (all carry one watermark) is not.
    pub(crate) fn subscribe(
        &mut self,
        vn: VnId,
        rloc: Rloc,
        have_seq: u64,
        digest: u64,
        vn_digest: impl Fn() -> u64,
    ) -> bool {
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
        let mut now = None;
        let mut digest_now = || *now.get_or_insert_with(&vn_digest);
        let stream = self.streams.entry(vn).or_default();
        let at = stream.subs.iter().position(|&(i, _)| i == idx);
        let live = at.is_some_and(|at| stream.subs[at].1 == VnSync::Live);
        if live && self.replay(idx, vn, have_seq, digest, &mut digest_now) {
            self.replays += u64::from(have_seq < self.current_seq(vn));
            return true;
        }
        // Reset: whatever was queued for the VN is superseded.
        self.subs[idx].queue.retain(|d| d.vn != vn);
        let state = if self.replay(idx, vn, 0, 0, &mut digest_now) {
            VnSync::Live
        } else {
            VnSync::Snapshot
        };
        let stream = self.streams.get_mut(&vn).expect("entered above");
        let was = match at {
            Some(at) => Some(std::mem::replace(&mut stream.subs[at].1, state)),
            None => {
                stream.subs.push((idx, state));
                None
            }
        };
        let pending = |s: Option<VnSync>| usize::from(s == Some(VnSync::Snapshot));
        self.pending_snapshots = self.pending_snapshots + pending(Some(state)) - pending(was);
        false
    }

    /// Re-queues `vn`'s changes after `have_seq` to subscriber `idx` when
    /// the resume rule's conditions hold (module doc): the log holds every
    /// one of them, `digest` is the VN's digest now minus their steps, and
    /// they fit the queue beside its deltas of other VNs. The subscriber's
    /// queued deltas of the VN are dropped first. Changes nothing and
    /// returns false otherwise.
    fn replay(
        &mut self,
        idx: usize,
        vn: VnId,
        have_seq: u64,
        digest: u64,
        digest_now: &mut dyn FnMut() -> u64,
    ) -> bool {
        let Some(missed) = self.current_seq(vn).checked_sub(have_seq) else {
            return false; // ahead of the stream
        };
        // The log holds the VN's last `held` changes; the range is the
        // last `missed` of them, covered when `held` reaches that far.
        let held = self.log.iter().filter(|c| c.vn == vn).count() as u64;
        let Some(older) = held.checked_sub(missed) else {
            return false;
        };
        let range = || {
            (self.log.iter())
                .filter(|c| c.vn == vn)
                .skip(older as usize)
        };
        let steps = range().fold(0u64, |d, c| d.wrapping_add(c.step()));
        if digest != digest_now().wrapping_sub(steps) {
            return false;
        }
        let queue = &mut self.subs[idx].queue;
        let others = queue.iter().filter(|d| d.vn != vn).count();
        if others + missed as usize > self.cap {
            return false;
        }
        queue.retain(|d| d.vn != vn);
        queue.extend(range().zip(have_seq + 1..).map(|(c, seq)| c.delta(seq)));
        self.peak_depth = self.peak_depth.max(queue.len());
        true
    }

    /// Records one mapping change of `eid` from row `old` to row `new`
    /// (`None`: no row), enqueueing a delta for every live subscriber of
    /// `vn` and writing it to the log. Allocates the change's per-VN
    /// sequence number even when nobody listens (the stream must stay
    /// gap-free for subscribers that join later).
    pub(crate) fn publish(&mut self, vn: VnId, eid: Eid, new: Option<Rloc>, old: Option<Rloc>) {
        let stream = self.streams.entry(vn).or_default();
        stream.seq += 1;
        let seq = stream.seq;
        let change = Change { vn, eid, new, old };
        if self.log.len() == LOG_CAP {
            self.log.pop_front();
        } else if self.log.capacity() == 0 {
            self.log.reserve_exact(LOG_CAP);
        }
        self.log.push_back(change);
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
                queue.push_back(change.delta(seq));
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

    /// Resumes so far that re-queued a non-empty range.
    pub(crate) fn replays(&self) -> u64 {
        self.replays
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

    /// A Subscribe that neither resumes nor rebuilds from the log: its
    /// claim is ahead of any stream and the world digest it is given
    /// matches no history, so the stream waits for a snapshot.
    fn subscribe(f: &mut DeltaFanout, vn: VnId, rloc: Rloc) {
        assert!(!f.subscribe(vn, rloc, u64::MAX, 0, || 1));
        audit(f);
    }

    fn publish(f: &mut DeltaFanout, vn: VnId, eid: Eid, rloc: Rloc) {
        f.publish(vn, eid, Some(rloc), None);
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

    /// The rows the fan-out's changes describe, per VN: what a server's
    /// shards would hold, digested as `MappingDb::vn_digest` does.
    #[derive(Default)]
    struct World(BTreeMap<(VnId, Eid), Rloc>);

    impl World {
        /// Applies one change through the fan-out and to the rows.
        fn set(&mut self, f: &mut DeltaFanout, vn: VnId, eid: Eid, new: Option<Rloc>) {
            let old = match new {
                Some(rloc) => self.0.insert((vn, eid), rloc),
                None => self.0.remove(&(vn, eid)),
            };
            f.publish(vn, eid, new, old);
            audit(f);
        }

        fn digest(&self, vn: VnId) -> u64 {
            (self.0.iter())
                .filter(|((of, _), _)| *of == vn)
                .fold(0, |d, ((_, e), r)| d.wrapping_add(row_digest(e, *r)))
        }

        /// A Subscribe claiming `(have_seq, digest)`, answered against
        /// these rows.
        fn subscribe(&self, f: &mut DeltaFanout, vn: VnId, rloc: Rloc, claim: (u64, u64)) -> bool {
            let resumed = f.subscribe(vn, rloc, claim.0, claim.1, || self.digest(vn));
            audit(f);
            resumed
        }
    }

    /// `(vn, seq, withdraw)` of each publish to `to`.
    fn stream_of(out: &[(Rloc, Message)], to: Rloc) -> Vec<(VnId, u64, bool)> {
        let of = |m: &Message| match *m {
            Message::Publish {
                vn,
                nonce,
                withdraw,
                ..
            } => (vn, nonce, withdraw),
            ref other => panic!("expected Publish, got {other:?}"),
        };
        out.iter()
            .filter(|(r, _)| *r == to)
            .map(|(_, m)| of(m))
            .collect()
    }

    #[test]
    fn a_claim_behind_the_watermark_replays_only_that_vns_missed_range() {
        let mut f = DeltaFanout::new(64);
        let mut w = World::default();
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (0, 0)), "a new stream");
        assert!(!w.subscribe(&mut f, vn(2), rl(9), (0, 0)));
        assert!(
            flush_empty(&mut f).is_empty(),
            "empty VNs rebuild to nothing"
        );
        for i in 0..3 {
            w.set(&mut f, vn(1), eid(i), Some(rl(1)));
        }
        let held = (3, w.digest(vn(1)));
        flush_empty(&mut f);
        // Lost on the way: a move and a withdrawal of vn 1. vn 2's change
        // and vn 1's last one are still queued when the claim arrives.
        w.set(&mut f, vn(1), eid(0), Some(rl(2)));
        w.set(&mut f, vn(1), eid(1), None);
        flush_empty(&mut f);
        w.set(&mut f, vn(2), eid(7), Some(rl(1)));
        w.set(&mut f, vn(1), eid(5), Some(rl(1)));
        assert!(w.subscribe(&mut f, vn(1), rl(9), held));
        assert_eq!(f.replays(), 1);
        let got = stream_of(&flush_empty(&mut f), rl(9));
        let want = [
            (vn(2), 1, false),
            (vn(1), 4, false),
            (vn(1), 5, true),
            (vn(1), 6, false),
        ];
        assert_eq!(got, want, "vn 2's delta kept, vn 1's replayed once");

        // The same claim again replays the same range; one digest bit
        // off, or a watermark ahead of the stream, resets it.
        assert!(w.subscribe(&mut f, vn(1), rl(9), held));
        assert_eq!(stream_of(&flush_empty(&mut f), rl(9)).len(), 3);
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (held.0, held.1 ^ 1)));
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (7, w.digest(vn(1)))));
        assert_eq!(f.replays(), 2, "a reset is not a replay");
    }

    #[test]
    fn a_reset_rebuilds_from_the_log_while_it_reaches_back_and_sums() {
        let mut f = DeltaFanout::new(64);
        let mut w = World::default();
        w.set(&mut f, vn(1), eid(1), Some(rl(1)));
        w.set(&mut f, vn(1), eid(2), Some(rl(1)));
        w.set(&mut f, vn(1), eid(1), Some(rl(2)));
        w.set(&mut f, vn(1), eid(2), None);
        // A forged claim resets the stream; its history rebuilds it.
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (4, 99)));
        assert_eq!(f.stream_live(vn(1), rl(9)), Some(true));
        let got = stream_of(&flush_empty(&mut f), rl(9));
        let seqs: Vec<u64> = got.iter().map(|&(_, seq, _)| seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4], "the whole history, in order");
        assert!(got[3].2, "withdrawals included");

        // Rows that left without a logged change (a crashed shard) make
        // the history disagree with the digest: a snapshot instead.
        w.0.clear();
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (4, 99)));
        assert_eq!(f.stream_live(vn(1), rl(9)), Some(false));
        assert!(flush_world(&mut f, &[]).is_empty());
    }

    #[test]
    fn a_snapshot_pending_stream_resets_on_a_true_claim() {
        let mut f = DeltaFanout::new(64);
        let mut w = World::default();
        w.set(&mut f, vn(1), eid(1), Some(rl(1)));
        w.set(&mut f, vn(1), eid(2), Some(rl(1)));
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (0, 0)));
        flush_empty(&mut f);
        let held = (2, w.digest(vn(1)));
        subscribe(&mut f, vn(1), rl(9));
        assert_eq!(f.stream_live(vn(1), rl(9)), Some(false));
        // The claim is the VN as it stands, but the stream is not live:
        // a reset, which the log rebuilds.
        assert!(!w.subscribe(&mut f, vn(1), rl(9), held));
        assert_eq!(f.stream_live(vn(1), rl(9)), Some(true));
        let got = stream_of(&flush_empty(&mut f), rl(9));
        assert_eq!(got, [(vn(1), 1, false), (vn(1), 2, false)]);
        assert_eq!(f.replays(), 0);
    }

    #[test]
    fn a_range_the_log_no_longer_holds_takes_a_snapshot() {
        let mut f = DeltaFanout::new(8);
        let mut w = World::default();
        w.set(&mut f, vn(1), eid(1), Some(rl(1)));
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (0, 0)));
        flush_empty(&mut f);
        let held = (1, w.digest(vn(1)));
        w.set(&mut f, vn(1), eid(2), Some(rl(1)));
        for i in 0..LOG_CAP as u32 {
            w.set(&mut f, vn(2), eid(i), Some(rl(1)));
        }
        assert_eq!(f.log.len(), LOG_CAP);
        // vn 1's seq 2 has left the log: no resume, and its history is
        // gone too.
        assert!(!w.subscribe(&mut f, vn(1), rl(9), held));
        assert_eq!(f.stream_live(vn(1), rl(9)), Some(false));
        let snapshot = flush_world(&mut f, &[(EidPrefix::host(eid(1)), rl(1))]);
        assert_eq!(stream_of(&snapshot, rl(9)), [(vn(1), 2, false)]);
    }

    #[test]
    fn a_range_that_overflows_the_queue_takes_a_reset() {
        let mut f = DeltaFanout::new(2);
        let mut w = World::default();
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (0, 0)));
        flush_empty(&mut f);
        for i in 0..3 {
            w.set(&mut f, vn(1), eid(i), Some(rl(1)));
        }
        assert_eq!(f.gaps(), 1, "the third change overflowed the queue");
        assert!(!w.subscribe(&mut f, vn(1), rl(9), (0, 0)));
        assert_eq!(f.stream_live(vn(1), rl(9)), Some(false), "3 > cap 2");
    }

    #[test]
    fn the_log_is_allocated_by_the_first_change_and_stays_bounded() {
        let mut f = DeltaFanout::new(8);
        subscribe(&mut f, vn(1), rl(9));
        flush_empty(&mut f);
        assert_eq!(f.log.capacity(), 0, "subscribes and flushes log nothing");
        for i in 0..LOG_CAP as u32 + 5 {
            f.publish(vn(2), eid(i), Some(rl(1)), None);
        }
        assert_eq!((f.log.len(), f.log.capacity()), (LOG_CAP, LOG_CAP));
        assert_eq!(f.log[0].eid, eid(5), "the oldest five left");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DeltaFanout::new(0);
    }
}
