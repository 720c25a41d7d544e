//! Pub/sub subscriptions (draft-ietf-lisp-pubsub, §3.3 border sync).
//!
//! Border routers subscribe per VN; every mapping change is pushed to
//! them with a monotonic **per-VN** sequence number so a subscriber can
//! detect a gap in its own stream (and re-subscribe for a full
//! snapshot). The sequence must be per VN: with a single global counter
//! a publish to VN A advances the number a VN-B subscriber sees next,
//! so every foreign-VN publish looks like a gap to everyone else.

use std::collections::BTreeMap;

use sda_types::{Rloc, VnId};

/// Who is subscribed to which VN's mapping stream.
#[derive(Default, Debug)]
pub struct SubscriberTable {
    /// vn → subscriber RLOCs (sorted, deduped).
    by_vn: BTreeMap<VnId, Vec<Rloc>>,
    /// vn → last allocated publish sequence number.
    seqs: BTreeMap<VnId, u64>,
}

impl SubscriberTable {
    /// Empty table.
    pub fn new() -> Self {
        SubscriberTable::default()
    }

    /// Adds `subscriber` to `vn`'s stream. Idempotent.
    pub fn subscribe(&mut self, vn: VnId, subscriber: Rloc) {
        let subs = self.by_vn.entry(vn).or_default();
        if let Err(pos) = subs.binary_search(&subscriber) {
            subs.insert(pos, subscriber);
        }
    }

    /// Removes `subscriber` from `vn`'s stream.
    pub fn unsubscribe(&mut self, vn: VnId, subscriber: Rloc) {
        if let Some(subs) = self.by_vn.get_mut(&vn) {
            if let Ok(pos) = subs.binary_search(&subscriber) {
                subs.remove(pos);
            }
        }
    }

    /// The subscribers of `vn`.
    pub fn subscribers(&self, vn: VnId) -> &[Rloc] {
        self.by_vn.get(&vn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Allocates the next publish sequence number of `vn`'s stream.
    pub fn next_seq(&mut self, vn: VnId) -> u64 {
        let seq = self.seqs.entry(vn).or_insert(0);
        *seq += 1;
        *seq
    }

    /// The last sequence number allocated for `vn` (0 before any
    /// publish) — the stream's current watermark.
    pub fn current_seq(&self, vn: VnId) -> u64 {
        self.seqs.get(&vn).copied().unwrap_or(0)
    }

    /// Total subscriptions across VNs.
    pub fn len(&self) -> usize {
        self.by_vn.values().map(Vec::len).sum()
    }

    /// True when nobody is subscribed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    #[test]
    fn subscribe_is_idempotent_and_sorted() {
        let mut t = SubscriberTable::new();
        let r1 = Rloc::for_router_index(1);
        let r2 = Rloc::for_router_index(2);
        t.subscribe(vn(1), r2);
        t.subscribe(vn(1), r1);
        t.subscribe(vn(1), r2);
        assert_eq!(t.subscribers(vn(1)), &[r1, r2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unsubscribe() {
        let mut t = SubscriberTable::new();
        let r = Rloc::for_router_index(1);
        t.subscribe(vn(1), r);
        t.unsubscribe(vn(1), r);
        assert!(t.subscribers(vn(1)).is_empty());
        t.unsubscribe(vn(2), r); // no-op on unknown vn
    }

    #[test]
    fn vn_scoping() {
        let mut t = SubscriberTable::new();
        let r = Rloc::for_router_index(1);
        t.subscribe(vn(1), r);
        assert!(t.subscribers(vn(2)).is_empty());
    }

    #[test]
    fn sequence_monotone() {
        let mut t = SubscriberTable::new();
        let a = t.next_seq(vn(1));
        let b = t.next_seq(vn(1));
        assert!(b > a);
    }

    /// Regression: a publish to VN A must not advance VN B's stream —
    /// with the old global counter, every foreign-VN publish looked
    /// like a gap to all other subscribers.
    #[test]
    fn sequences_are_per_vn() {
        let mut t = SubscriberTable::new();
        assert_eq!(t.next_seq(vn(1)), 1);
        assert_eq!(t.next_seq(vn(1)), 2);
        assert_eq!(t.next_seq(vn(2)), 1, "vn 2 starts its own stream");
        assert_eq!(t.next_seq(vn(1)), 3, "vn 1 unaffected by vn 2");
        assert_eq!(t.current_seq(vn(1)), 3);
        assert_eq!(t.current_seq(vn(2)), 1);
        assert_eq!(t.current_seq(vn(3)), 0, "untouched stream is at 0");
    }
}
