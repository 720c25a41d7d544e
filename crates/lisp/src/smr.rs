//! Solicit-Map-Request bookkeeping (Fig. 6).
//!
//! When a *stale* edge keeps receiving traffic for a moved endpoint, it
//! answers each source with an SMR. Sources may send many packets before
//! their re-resolution completes; re-SMR'ing every packet would melt the
//! control plane, so senders are deduplicated within a window — the
//! paper's observation that "these control plane messages will be
//! staggered over time" stays true while the *rate* stays bounded.

use std::collections::HashMap;

use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, Rloc, VnId};

/// A sweep of expired records runs once the map holds at least this
/// many entries, whatever the last sweep left.
const MIN_SWEEP: usize = 64;

/// Deduplicates SMR transmissions per `(vn, eid, requester)` within a
/// hold-down window.
///
/// Records older than the window are answered exactly as if absent, so
/// the tracker drops them itself: [`SmrTracker::should_send`] sweeps
/// the map whenever it has doubled since the last sweep (at least
/// `MIN_SWEEP` entries). That keeps it within about twice the
/// records one window can hold, at amortised O(1) per transmission,
/// even for an EID that no nonce-0 Map-Notify ever reaches
/// [`SmrTracker::forget_eid`] for.
pub struct SmrTracker {
    window: SimDuration,
    last_sent: HashMap<(VnId, Eid, Rloc), SimTime>,
    /// Map size at which the next sweep runs.
    sweep_at: usize,
}

impl SmrTracker {
    /// Creates a tracker with the given hold-down window.
    pub fn new(window: SimDuration) -> Self {
        SmrTracker {
            window,
            last_sent: HashMap::new(),
            sweep_at: MIN_SWEEP,
        }
    }

    /// Should an SMR be sent to `source` about `(vn, eid)` now?
    /// Records the transmission when answering `true`.
    pub fn should_send(&mut self, vn: VnId, eid: Eid, source: Rloc, now: SimTime) -> bool {
        let key = (vn, eid, source);
        let window = self.window;
        if let Some(&t) = self.last_sent.get(&key) {
            if now.saturating_since(t) < window {
                return false;
            }
        }
        self.last_sent.insert(key, now);
        if self.last_sent.len() >= self.sweep_at {
            self.last_sent
                .retain(|_, t| now.saturating_since(*t) < window);
            self.sweep_at = (2 * self.last_sent.len()).max(MIN_SWEEP);
        }
        true
    }

    /// Clears state for an EID once its move has been re-resolved.
    pub fn forget_eid(&mut self, vn: VnId, eid: Eid) {
        self.last_sent
            .retain(|(v, e, _), _| !(*v == vn && *e == eid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn eid(n: u8) -> Eid {
        Eid::V4(Ipv4Addr::new(10, 0, 0, n))
    }

    const WINDOW: SimDuration = SimDuration::from_secs(5);

    #[test]
    fn dedup_within_window() {
        let mut t = SmrTracker::new(WINDOW);
        let src = Rloc::for_router_index(1);
        assert!(t.should_send(vn(1), eid(1), src, SimTime::ZERO));
        assert!(!t.should_send(
            vn(1),
            eid(1),
            src,
            SimTime::ZERO + SimDuration::from_secs(1)
        ));
        assert!(t.should_send(vn(1), eid(1), src, SimTime::ZERO + WINDOW));
    }

    #[test]
    fn distinct_sources_tracked_independently() {
        let mut t = SmrTracker::new(WINDOW);
        assert!(t.should_send(vn(1), eid(1), Rloc::for_router_index(1), SimTime::ZERO));
        assert!(t.should_send(vn(1), eid(1), Rloc::for_router_index(2), SimTime::ZERO));
    }

    #[test]
    fn forget_eid_resets() {
        let mut t = SmrTracker::new(WINDOW);
        let src = Rloc::for_router_index(1);
        assert!(t.should_send(vn(1), eid(1), src, SimTime::ZERO));
        t.forget_eid(vn(1), eid(1));
        assert!(t.should_send(vn(1), eid(1), src, SimTime::ZERO));
    }

    /// Distinct sources SMR'd after an EID's last move notify are never
    /// forgotten by `forget_eid`; the sweep alone must bound them. One
    /// window at 1 ms spacing holds about 5,000 live records.
    #[test]
    fn sweep_bounds_records_of_distinct_sources() {
        let mut t = SmrTracker::new(WINDOW);
        let mut peak = 0;
        for i in 0..100_000u32 {
            let source = Rloc(Ipv4Addr::from(0x0B00_0000 | i));
            let now = SimTime::ZERO + SimDuration::from_millis(u64::from(i));
            assert!(t.should_send(vn(1), eid(1), source, now));
            peak = peak.max(t.last_sent.len());
        }
        assert!(peak <= 2 * 5_001 + MIN_SWEEP, "tracker grew to {peak}");
        // A record still inside the window keeps suppressing.
        let last = Rloc(Ipv4Addr::from(0x0B00_0000 | 99_999));
        let now = SimTime::ZERO + SimDuration::from_millis(100_000);
        assert!(!t.should_send(vn(1), eid(1), last, now));
    }
}
