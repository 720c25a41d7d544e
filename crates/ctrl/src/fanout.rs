//! Incremental pub/sub delta fan-out.
//!
//! The single reference map-server walks the whole VN on every
//! subscribe and touches every subscriber's stream through one global
//! counter. Here every mapping change enqueues one delta into the
//! bounded queue of each subscriber of *that VN* — O(changes ×
//! subscribers-of-that-VN), never O(world) — stamped with a **per-VN**
//! sequence number.
//!
//! All per-VN state lives in **one map**, `VnId → VnStream`: the VN's
//! publish sequence and its subscribers. A publish is one probe of that
//! map and a walk of the entry's subscriber list; a subscriber itself is
//! only its locator and its delta queue. A stream has one state — once
//! subscribed, deltas flow — and [`DeltaFanout::flush`] only drains the
//! queues.
//!
//! **Overflow.** A publish that finds a subscriber's queue at its cap
//! compacts the queue in place: every VN keeps its first queued delta
//! and its newest, the change being published counting as its VN's
//! newest. A VN with at most two deltas queued loses nothing, and a
//! queue holds at most max(cap, 2 × the subscriber's VN streams). The
//! subscriber applies each first delta in sequence, meets a hole at the
//! newest and heals it as it heals any lost delta: it resubscribes from
//! its watermark, and the rules below answer with the missed range or a
//! reset. Keeping the first delta lets a reset slice still rebuild from
//! seq 1.
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
//! when the subscriber has a stream of the VN, the log still holds every
//! change of the VN in `(have_seq, seq]`, and the digest is the up
//! shards' `MappingDb::vn_digest` sum minus those changes' steps
//! `row(new) − row(old)` — the digest the VN had at `have_seq`. It then
//! re-queues that range to that subscriber as ordinary deltas (its
//! unflushed deltas of the VN dropped first), so `resumed` means "keep
//! your slice; whatever follows `have_seq` arrives as deltas". `have_seq
//! == seq` is the same rule with an empty range: nothing follows.
//!
//! **Reset.** Any other Subscribe — a new stream or a failed claim —
//! resets the stream: the ack tells the subscriber to empty its slice,
//! and the empty slice is itself the claim `(0, 0)` (the VN before its
//! first change), which the same rule answers. When the log still holds
//! the VN's whole history and it sums to the VN's digest, the history is
//! re-queued as deltas; otherwise the Subscribe's own reply carries a
//! snapshot right behind the ack: the up shards' rows of the VN. The two
//! rebuild the same rows, but a replayed history is sequenced, so a
//! delta lost on the way is a hole the subscriber sees and asks for,
//! where a lost snapshot row (all carry one watermark) is silent until
//! the next claim fails. A watermark alone misses a lost snapshot
//! publish, a row count a stale slice under a lost ack. No epoch: a
//! restarted server has no stream, and a crashed, restarted or
//! partitioned shard changes the server's digest without a logged change
//! to account for it, so a claim from before such a fault fails, and so
//! does the empty claim until the log no longer reaches back past the
//! fault — such a reset takes a snapshot.
//!
//! Sequence semantics on the wire ([`Message::Publish`]'s `nonce`):
//! delta publishes carry the change's own per-VN sequence number;
//! snapshot publishes carry the VN's current watermark (snapshots
//! describe *state as of* that sequence, and must not advance the
//! sequence or live subscribers of the same VN would see phantom gaps).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sda_types::{row_digest, Eid, EidPrefix, Rloc, VnId};
use sda_wire::lisp::Message;

/// Default per-subscriber delta queue bound. A publish that finds a
/// queue this deep compacts it (module doc).
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Changes the delta log keeps, across all VNs. A claim further behind
/// than the log reaches takes a snapshot. At 1024 the `fabric_storm`
/// campaigns rebuild every reset from the log; at 256 a third of them
/// fall back to snapshots.
const LOG_CAP: usize = 1024;

/// One mapping change as the delta log keeps it, and — beside its per-VN
/// sequence number — as a subscriber's queue holds it (32 bytes: the log
/// is written on every change, so its footprint is paid in cache lines).
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
    /// What the change added to the VN's slice digest.
    fn step(&self) -> u64 {
        let term = |rloc: Option<Rloc>| rloc.map_or(0, |r| row_digest(&self.eid, r));
        term(self.new).wrapping_sub(term(self.old))
    }
}

/// How [`DeltaFanout::subscribe`] answered a Subscribe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Answer {
    /// The claim holds: the slice stands, and the changes after its
    /// watermark are queued.
    Resumed,
    /// A reset the log rebuilds: the VN's history is queued from seq 1.
    Rebuilt,
    /// A reset the log cannot rebuild: the caller sends the VN's rows
    /// behind the ack, each stamped with the VN's watermark.
    Snapshot,
}

struct Sub {
    rloc: Rloc,
    /// Bounded queue of undelivered `(seq, change)` deltas, across this
    /// subscriber's VNs.
    queue: VecDeque<(u64, Change)>,
}

/// Everything the fan-out knows about one VN.
#[derive(Default)]
struct VnStream {
    /// Publish sequence (the source of truth for gap detection). Counts
    /// from the first change, subscribers or not.
    seq: u64,
    /// Indices into `DeltaFanout::subs`, in subscription order.
    subs: Vec<usize>,
}

/// Per-subscriber delta queues plus the per-VN sequence authority.
pub(crate) struct DeltaFanout {
    subs: Vec<Sub>,
    streams: BTreeMap<VnId, VnStream>,
    /// The last [`LOG_CAP`] changes, oldest first.
    log: VecDeque<Change>,
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
    /// Panics if `cap` is zero (a zero-length queue could hold no delta).
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        DeltaFanout {
            subs: Vec::new(),
            streams: BTreeMap::new(),
            log: VecDeque::new(),
            cap,
            delivered: 0,
            gaps: 0,
            replays: 0,
            peak_depth: 0,
        }
    }

    /// Whether `rloc` has a stream of `vn`. A known stream's Subscribe is
    /// a resync, not a fresh subscription: admission lets those
    /// self-healing resubscribes bypass the subscribe budget, and only a
    /// known stream can resume.
    pub(crate) fn has_stream(&self, vn: VnId, rloc: Rloc) -> bool {
        (self.streams.get(&vn)).is_some_and(|s| s.subs.iter().any(|&i| self.subs[i].rloc == rloc))
    }

    /// `(subscriber, VN)` streams.
    pub(crate) fn stream_count(&self) -> usize {
        self.streams.values().map(|s| s.subs.len()).sum()
    }

    /// Answers a Subscribe from `rloc` for `vn` claiming its slice is
    /// the VN as of `have_seq`, with digest `digest`, by the resume and
    /// reset rules (module doc): a known stream whose claim passes
    /// resumes; any other resets, its queued deltas of the VN dropped,
    /// and is rebuilt from the log or by the caller's snapshot.
    /// `vn_digest` walks the VN's slice digest now (the up shards' rows);
    /// it runs at most once, and only for a range the log covers.
    pub(crate) fn subscribe(
        &mut self,
        vn: VnId,
        rloc: Rloc,
        have_seq: u64,
        digest: u64,
        vn_digest: impl Fn() -> u64,
    ) -> Answer {
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
        if !stream.subs.contains(&idx) {
            stream.subs.push(idx);
        } else if self.replay(idx, vn, have_seq, digest, &mut digest_now) {
            self.replays += u64::from(have_seq < self.current_seq(vn));
            return Answer::Resumed;
        }
        // Reset: whatever was queued for the VN is superseded.
        self.subs[idx].queue.retain(|(_, c)| c.vn != vn);
        if self.replay(idx, vn, 0, 0, &mut digest_now) {
            Answer::Rebuilt
        } else {
            Answer::Snapshot
        }
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
        let others = queue.iter().filter(|(_, c)| c.vn != vn).count();
        if others + missed as usize > self.cap {
            return false;
        }
        queue.retain(|(_, c)| c.vn != vn);
        queue.extend(range().zip(have_seq + 1..).map(|(c, seq)| (seq, *c)));
        self.peak_depth = self.peak_depth.max(queue.len());
        true
    }

    /// Records one mapping change of `eid` from row `old` to row `new`
    /// (`None`: no row), enqueueing a delta for every subscriber of `vn`
    /// — compacting a full queue first (module doc) — and writing it to
    /// the log. Allocates the change's per-VN sequence number even when
    /// nobody listens (the stream must stay gap-free for subscribers that
    /// join later).
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
        for &i in &stream.subs {
            let queue = &mut self.subs[i].queue;
            if queue.len() >= self.cap {
                compact(queue, vn);
                self.gaps += 1;
            }
            queue.push_back((seq, change));
            self.peak_depth = self.peak_depth.max(queue.len());
        }
    }

    /// Drains every subscriber's queue into `(destination, Publish)`
    /// pairs: subscribers in subscription order, each queue in order.
    pub(crate) fn flush(&mut self) -> Vec<(Rloc, Message)> {
        let queued: usize = self.subs.iter().map(|s| s.queue.len()).sum();
        let mut out = Vec::with_capacity(queued);
        for sub in &mut self.subs {
            let to = sub.rloc;
            out.extend(sub.queue.drain(..).map(|(seq, c)| {
                let publish = Message::Publish {
                    nonce: seq,
                    vn: c.vn,
                    prefix: EidPrefix::host(c.eid),
                    rloc: c.new.or(c.old).expect("a change has a row"),
                    withdraw: c.new.is_none(),
                };
                (to, publish)
            }));
        }
        self.delivered += out.len() as u64;
        out
    }

    /// The current sequence watermark of `vn` (0 before any change).
    pub(crate) fn current_seq(&self, vn: VnId) -> u64 {
        self.streams.get(&vn).map_or(0, |s| s.seq)
    }

    /// Delta publishes emitted by flushes so far.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Queue compactions forced by overflow so far.
    pub(crate) fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Resumes so far that re-queued a non-empty range.
    pub(crate) fn replays(&self) -> u64 {
        self.replays
    }

    /// High-water mark of any single subscriber queue so far — at most
    /// max(cap, 2 × that subscriber's VN streams) (module doc).
    pub(crate) fn peak_depth(&self) -> usize {
        self.peak_depth
    }
}

/// Compacts a full queue before a change of `vn` joins it: every VN
/// keeps its first queued delta and its newest, `vn` only its first (the
/// change is its newest). What leaves is a hole its subscriber heals by
/// resubscribing.
#[cold]
fn compact(queue: &mut VecDeque<(u64, Change)>, vn: VnId) {
    let mut newest = BTreeMap::new();
    for (i, (_, c)) in queue.iter().enumerate() {
        newest.insert(c.vn, i);
    }
    newest.remove(&vn);
    let mut first = BTreeSet::new();
    let mut i = 0;
    queue.retain(|(_, c)| {
        let keep = first.insert(c.vn) || newest.get(&c.vn) == Some(&i);
        i += 1;
        keep
    });
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

    /// A Subscribe that neither resumes nor rebuilds from the log: its
    /// claim is ahead of any stream and the world digest it is given
    /// matches no history, so the caller would send a snapshot.
    fn subscribe(f: &mut DeltaFanout, vn: VnId, rloc: Rloc) {
        assert_eq!(f.subscribe(vn, rloc, u64::MAX, 0, || 1), Answer::Snapshot);
    }

    fn publish(f: &mut DeltaFanout, vn: VnId, eid: Eid, rloc: Rloc) {
        f.publish(vn, eid, Some(rloc), None);
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
    fn each_change_delivered_exactly_once() {
        let mut f = DeltaFanout::new(64);
        subscribe(&mut f, vn(1), rl(9));
        assert!(f.flush().is_empty(), "a snapshot is not queued");
        for i in 0..10 {
            publish(&mut f, vn(1), eid(i), rl(1));
        }
        let seqs: Vec<u64> = stream_of(&f.flush(), rl(9)).iter().map(|d| d.1).collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>(), "contiguous per-VN");
        // Nothing left: a second flush is empty.
        assert!(f.flush().is_empty());
        assert_eq!(f.delivered(), 10);
    }

    #[test]
    fn publish_only_reaches_that_vns_subscribers() {
        let mut f = DeltaFanout::new(64);
        subscribe(&mut f, vn(1), rl(9));
        subscribe(&mut f, vn(2), rl(8));
        publish(&mut f, vn(1), eid(1), rl(1));
        let out = f.flush();
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
    fn sequences_advance_even_with_no_subscribers() {
        let mut f = DeltaFanout::new(64);
        publish(&mut f, vn(1), eid(1), rl(1));
        subscribe(&mut f, vn(1), rl(9));
        // The snapshot the caller sends is stamped with this watermark.
        assert_eq!(f.current_seq(vn(1)), 1);
        publish(&mut f, vn(1), eid(2), rl(1));
        assert_eq!(stream_of(&f.flush(), rl(9)), [(vn(1), 2, false)]);
    }

    #[test]
    fn flush_drains_by_subscriber_and_a_reset_drops_only_its_streams_deltas() {
        let mut f = DeltaFanout::new(64);
        // Subscription order: rl(9) then rl(8).
        subscribe(&mut f, vn(2), rl(9));
        subscribe(&mut f, vn(1), rl(8));
        subscribe(&mut f, vn(1), rl(9));
        assert_eq!((f.subs.len(), f.stream_count()), (2, 3));
        assert!(f.has_stream(vn(2), rl(9)) && !f.has_stream(vn(2), rl(8)));
        publish(&mut f, vn(1), eid(5), rl(2));
        publish(&mut f, vn(2), eid(6), rl(2));
        let out = f.flush();
        let to: Vec<Rloc> = out.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, [rl(9), rl(9), rl(8)], "per subscriber");
        let want = [(vn(1), 1, false), (vn(2), 1, false)];
        assert_eq!(stream_of(&out, rl(9)), want, "in publish order");
        // Resetting a stream drops exactly its queued deltas; the other
        // streams keep theirs.
        publish(&mut f, vn(1), eid(5), rl(3));
        publish(&mut f, vn(2), eid(6), rl(3));
        subscribe(&mut f, vn(1), rl(9));
        subscribe(&mut f, vn(1), rl(9));
        assert_eq!(f.stream_count(), 3, "a resync is not a new stream");
        let out = f.flush();
        assert_eq!(stream_of(&out, rl(9)), [(vn(2), 2, false)]);
        assert_eq!(stream_of(&out, rl(8)), [(vn(1), 2, false)]);
        assert_eq!(f.delivered(), 5);
    }

    /// Rows by `(vn, eid)` — a server's shards, or a border's slice —
    /// digested as `MappingDb::vn_digest` does.
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
        }

        fn digest(&self, vn: VnId) -> u64 {
            (self.0.iter())
                .filter(|((of, _), _)| *of == vn)
                .fold(0, |d, ((_, e), r)| d.wrapping_add(row_digest(e, *r)))
        }

        /// A Subscribe claiming `(have_seq, digest)`, answered against
        /// these rows.
        fn subscribe(
            &self,
            f: &mut DeltaFanout,
            vn: VnId,
            rloc: Rloc,
            claim: (u64, u64),
        ) -> Answer {
            f.subscribe(vn, rloc, claim.0, claim.1, || self.digest(vn))
        }
    }

    /// Subscriber `rl(9)`'s slices, kept as `sda_core::border` keeps
    /// them: a prefix of the stream. A reset slice takes any first
    /// publish; then one past `last + 1` is a hole (dropped, and the VN
    /// marked to resubscribe) and one below `last` is stale.
    #[derive(Default)]
    struct Border {
        seq: BTreeMap<VnId, u64>,
        slice: World,
        holes: BTreeSet<VnId>,
    }

    impl Border {
        fn apply(&mut self, out: &[(Rloc, Message)]) {
            for (vn, nonce, withdraw, eid, rloc) in out.iter().map(|(_, m)| match *m {
                Message::Publish {
                    nonce,
                    vn,
                    prefix,
                    rloc,
                    withdraw,
                } => (vn, nonce, withdraw, prefix.as_host().unwrap(), rloc),
                ref other => panic!("expected Publish, got {other:?}"),
            }) {
                let last = self.seq.get(&vn).copied().unwrap_or(0);
                if self.holes.contains(&vn) || (last != 0 && nonce > last + 1) {
                    self.holes.insert(vn);
                } else if nonce >= last {
                    self.seq.insert(vn, nonce);
                    match withdraw {
                        true => self.slice.0.remove(&(vn, eid)),
                        false => self.slice.0.insert((vn, eid), rloc),
                    };
                }
            }
        }

        /// Resubscribes `vn` from what the slice holds: a reset empties
        /// it, and a snapshot answer installs `w`'s rows at the watermark.
        fn resubscribe(&mut self, f: &mut DeltaFanout, w: &World, vn: VnId) -> Answer {
            let claim = (
                self.seq.get(&vn).copied().unwrap_or(0),
                self.slice.digest(vn),
            );
            let answer = w.subscribe(f, vn, rl(9), claim);
            self.holes.remove(&vn);
            if answer != Answer::Resumed {
                self.slice.0.retain(|(of, _), _| *of != vn);
                self.seq.insert(vn, 0);
            }
            if answer == Answer::Snapshot {
                for (&key, &rloc) in w.0.iter().filter(|((of, _), _)| *of == vn) {
                    self.slice.0.insert(key, rloc);
                    self.seq.insert(vn, f.current_seq(vn));
                }
            }
            answer
        }
    }

    #[test]
    fn overflow_gap_resyncs_by_snapshot() {
        let (mut f, mut w, mut b) = (DeltaFanout::new(4), World::default(), Border::default());
        assert_eq!(b.resubscribe(&mut f, &w, vn(1)), Answer::Rebuilt);
        // 4 fit; the 5th compacts the queue to seq 1 and itself, the 6th
        // joins them. A withdrawal sits inside what was dropped.
        for i in 0..3 {
            w.set(&mut f, vn(1), eid(i), Some(rl(1)));
        }
        w.set(&mut f, vn(1), eid(1), None);
        w.set(&mut f, vn(1), eid(7), Some(rl(2)));
        assert_eq!(f.gaps(), 1);
        w.set(&mut f, vn(1), eid(8), Some(rl(2)));
        let out = f.flush();
        assert_eq!(stream_of(&out, rl(9)).len(), 3);
        b.apply(&out);
        assert!(b.holes.contains(&vn(1)), "seq 5 follows seq 1");
        // Five changes behind on a queue of 4: no resume, no rebuild —
        // the snapshot rides the answer, and the withdrawn row is gone.
        assert_eq!(b.resubscribe(&mut f, &w, vn(1)), Answer::Snapshot);
        assert!(f.flush().is_empty());
        assert_eq!(b.slice.0, w.0);
        // The stream flows again from the watermark.
        w.set(&mut f, vn(1), eid(9), Some(rl(1)));
        let out = f.flush();
        assert_eq!(stream_of(&out, rl(9)), [(vn(1), 7, false)]);
        b.apply(&out);
        assert_eq!(b.slice.0, w.0);
    }

    /// An overflow caused by another VN's deltas keeps every VN's first
    /// and newest delta: a VN with at most two queued loses nothing. A
    /// resync by snapshot would not do here: stamped `last + 1`, the
    /// snapshot is installed as a delta and the withdrawn row stays.
    #[test]
    fn a_withdrawal_that_overflows_the_queue_reaches_a_border_one_change_behind() {
        let (mut f, mut w, mut b) = (DeltaFanout::new(2), World::default(), Border::default());
        w.set(&mut f, vn(1), eid(1), Some(rl(1)));
        w.set(&mut f, vn(1), eid(2), Some(rl(1)));
        assert_eq!(b.resubscribe(&mut f, &w, vn(1)), Answer::Rebuilt);
        assert_eq!(b.resubscribe(&mut f, &w, vn(2)), Answer::Rebuilt);
        b.apply(&f.flush());
        assert_eq!(b.seq[&vn(1)], 2, "vn 1 synced at seq 2");
        w.set(&mut f, vn(2), eid(3), Some(rl(1)));
        w.set(&mut f, vn(2), eid(4), Some(rl(1)));
        w.set(&mut f, vn(1), eid(1), None);
        assert_eq!(f.gaps(), 1, "the withdrawal overflowed the queue");
        let out = f.flush();
        let want = [(vn(2), 1, false), (vn(2), 2, false), (vn(1), 3, true)];
        assert_eq!(stream_of(&out, rl(9)), want);
        b.apply(&out);
        assert!(b.holes.is_empty());
        assert_eq!(b.slice.0, w.0, "the withdrawn row is gone");
    }

    #[test]
    fn a_compacted_queue_keeps_each_vns_first_and_newest_in_order() {
        let mut f = DeltaFanout::new(6);
        for v in 1..=3 {
            subscribe(&mut f, vn(v), rl(9));
        }
        for (v, i) in [(1, 0), (2, 1), (1, 2), (2, 3), (1, 4), (3, 5), (1, 6)] {
            publish(&mut f, vn(v), eid(i), rl(1));
        }
        assert_eq!(f.gaps(), 1);
        // vn 1: its first (1) and the publishing change (4); vn 2: both;
        // vn 3: its only one.
        let want = [
            (vn(1), 1, false),
            (vn(2), 1, false),
            (vn(2), 2, false),
            (vn(3), 1, false),
            (vn(1), 4, false),
        ];
        assert_eq!(stream_of(&f.flush(), rl(9)), want);
        // Compaction can leave more than the cap: at most two per VN.
        let mut f = DeltaFanout::new(2);
        for v in 1..=3 {
            subscribe(&mut f, vn(v), rl(9));
        }
        for v in [1, 2, 3, 1, 2, 3, 1] {
            publish(&mut f, vn(v), eid(v), rl(1));
        }
        assert_eq!(f.peak_depth(), 6, "max(cap 2, 2 × 3 VN streams)");
    }

    #[test]
    fn a_claim_behind_the_watermark_replays_only_that_vns_missed_range() {
        let (mut f, mut w) = (DeltaFanout::new(64), World::default());
        assert_eq!(w.subscribe(&mut f, vn(1), rl(9), (0, 0)), Answer::Rebuilt);
        assert_eq!(w.subscribe(&mut f, vn(2), rl(9), (0, 0)), Answer::Rebuilt);
        assert!(f.flush().is_empty(), "empty VNs rebuild to nothing");
        for i in 0..3 {
            w.set(&mut f, vn(1), eid(i), Some(rl(1)));
        }
        let held = (3, w.digest(vn(1)));
        f.flush();
        // Lost on the way: a move and a withdrawal of vn 1. vn 2's change
        // and vn 1's last one are still queued when the claim arrives.
        w.set(&mut f, vn(1), eid(0), Some(rl(2)));
        w.set(&mut f, vn(1), eid(1), None);
        f.flush();
        w.set(&mut f, vn(2), eid(7), Some(rl(1)));
        w.set(&mut f, vn(1), eid(5), Some(rl(1)));
        assert_eq!(w.subscribe(&mut f, vn(1), rl(9), held), Answer::Resumed);
        assert_eq!(f.replays(), 1);
        let got = stream_of(&f.flush(), rl(9));
        let want = [
            (vn(2), 1, false),
            (vn(1), 4, false),
            (vn(1), 5, true),
            (vn(1), 6, false),
        ];
        assert_eq!(got, want, "vn 2's delta kept, vn 1's replayed once");

        // The same claim again replays the same range; one digest bit
        // off, or a watermark ahead of the stream, resets it.
        assert_eq!(w.subscribe(&mut f, vn(1), rl(9), held), Answer::Resumed);
        assert_eq!(stream_of(&f.flush(), rl(9)).len(), 3);
        for claim in [(held.0, held.1 ^ 1), (7, w.digest(vn(1)))] {
            assert_eq!(w.subscribe(&mut f, vn(1), rl(9), claim), Answer::Rebuilt);
        }
        assert_eq!(f.replays(), 2, "a reset is not a replay");
    }

    #[test]
    fn a_reset_rebuilds_from_the_log_while_it_reaches_back_and_sums() {
        let (mut f, mut w) = (DeltaFanout::new(64), World::default());
        w.set(&mut f, vn(1), eid(1), Some(rl(1)));
        w.set(&mut f, vn(1), eid(2), Some(rl(1)));
        w.set(&mut f, vn(1), eid(1), Some(rl(2)));
        w.set(&mut f, vn(1), eid(2), None);
        // A forged claim resets the stream; its history rebuilds it.
        assert_eq!(w.subscribe(&mut f, vn(1), rl(9), (4, 99)), Answer::Rebuilt);
        let got = stream_of(&f.flush(), rl(9));
        let seqs: Vec<u64> = got.iter().map(|&(_, seq, _)| seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4], "the whole history, in order");
        assert!(got[3].2, "withdrawals included");

        // Rows that left without a logged change (a crashed shard) make
        // the history disagree with the digest: a snapshot instead.
        w.0.clear();
        assert_eq!(w.subscribe(&mut f, vn(1), rl(9), (4, 99)), Answer::Snapshot);
        assert!(f.flush().is_empty());
    }

    #[test]
    fn a_range_the_log_no_longer_holds_takes_a_snapshot() {
        let (mut f, mut w) = (DeltaFanout::new(8), World::default());
        w.set(&mut f, vn(1), eid(1), Some(rl(1)));
        assert_eq!(w.subscribe(&mut f, vn(1), rl(9), (0, 0)), Answer::Rebuilt);
        f.flush();
        let held = (1, w.digest(vn(1)));
        w.set(&mut f, vn(1), eid(2), Some(rl(1)));
        for i in 0..LOG_CAP as u32 {
            w.set(&mut f, vn(2), eid(i), Some(rl(1)));
        }
        assert_eq!(f.log.len(), LOG_CAP);
        // vn 1's seq 2 has left the log: no resume, and its history is
        // gone too. Nothing of vn 1 stays queued.
        assert_eq!(w.subscribe(&mut f, vn(1), rl(9), held), Answer::Snapshot);
        assert_eq!(f.current_seq(vn(1)), 2, "the snapshot's watermark");
        assert!(f.flush().is_empty());
    }

    #[test]
    fn a_range_that_overflows_the_queue_takes_a_reset() {
        let (mut f, mut w, mut b) = (DeltaFanout::new(2), World::default(), Border::default());
        assert_eq!(b.resubscribe(&mut f, &w, vn(1)), Answer::Rebuilt);
        for i in 0..3 {
            w.set(&mut f, vn(1), eid(i), Some(rl(1)));
        }
        assert_eq!(f.gaps(), 1, "the third change compacted the queue");
        // The border lost the whole flush: its claim `(0, 0)` is three
        // changes behind, more than a queue of 2 holds, so the stream
        // resets and the snapshot rebuilds the slice.
        f.flush();
        assert_eq!(b.resubscribe(&mut f, &w, vn(1)), Answer::Snapshot);
        assert!(f.flush().is_empty());
        assert_eq!((&b.slice.0, b.seq[&vn(1)]), (&w.0, 3));
    }

    #[test]
    fn the_log_is_allocated_by_the_first_change_and_stays_bounded() {
        let mut f = DeltaFanout::new(8);
        subscribe(&mut f, vn(1), rl(9));
        f.flush();
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
