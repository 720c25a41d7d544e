//! The fabric's one retransmit discipline.
//!
//! **What it is.** [`Backoff`] is a node's retransmit clock — capped
//! exponential backoff, or decorrelated jitter from a private per-node
//! stream — and the armed flag of its one sweep timer. [`Retries`] is a
//! table of messages awaiting an answer (the edge's Map-Requests and
//! Map-Registers, the border's Subscribes) with an optional cap, where a
//! full table evicts its oldest deadline, and an optional attempt budget.
//!
//! **What it is not.** Not a timer per entry: one sweep timer per node
//! runs [`Retries::sweep`] over its tables. Not the sender: a sweep
//! hands back what to resend, and the node sends and counts. Not the
//! simulator's RNG: jitter never moves another node's draws.
//!
//! **The schedule.** The shortest retry delay for unacknowledged
//! Map-Requests, Map-Registers and Subscribes is [`RTX_INITIAL`]. With
//! `FabricConfig::rtx_jitter` (the default) each delay is drawn
//! uniformly from `[RTX_INITIAL, min(3 × the previous delay,
//! RTX_MAX_BACKOFF)]`, the first with `RTX_INITIAL` as the previous
//! delay; without it the delay starts at `RTX_INITIAL` and doubles per
//! attempt up to [`RTX_MAX_BACKOFF`]. Map-Requests and Map-Registers give
//! up after six sends; border Subscribes retry without bound.
//!
//! **Trusted inputs.** `now` never runs backwards on a table.
//!
//! **Panics:** none.
//!
//! Replay depends on where each draw falls (`tests/determinism.rs` pins
//! it): `start` draws after its cap check, `sweep` once per resent entry
//! in key order, `hold` before its lookup even when nothing matches, and
//! `arm` only when the timer was not armed.

use std::collections::BTreeMap;

use sda_simnet::{Context, SimDuration, SimTime};
use sda_types::Rloc;

use crate::controller::FabricConfig;
use crate::msg::FabricMsg;

/// The shortest retransmit delay (module doc).
const RTX_INITIAL: SimDuration = SimDuration::from_millis(500);

/// The cap on the retransmit backoff.
const RTX_MAX_BACKOFF: SimDuration = SimDuration::from_secs(8);

// The jittered draw's range `[RTX_INITIAL, cap]` is never inverted.
const _: () = assert!(RTX_INITIAL.as_nanos() <= RTX_MAX_BACKOFF.as_nanos());

/// One node's retransmit clock: whether its delays are jittered, the
/// private xorshift64* stream they draw from (seeded from the node's
/// RLOC) and the sweep timer's armed flag.
pub(crate) struct Backoff {
    jitter: bool,
    state: u64,
    /// Whether the sweep timer is pending.
    armed: bool,
}

impl Backoff {
    pub(crate) fn new(rloc: Rloc, params: &FabricConfig) -> Self {
        Backoff {
            jitter: params.rtx_jitter,
            state: jitter_seed(rloc),
            armed: false,
        }
    }

    /// Sets the sweep timer (`token`) unless it is pending. Lossless runs
    /// answer all before the first sweep, which then leaves it unset.
    pub(crate) fn arm(&mut self, ctx: &mut Context<'_, FabricMsg>, token: u64) {
        if !self.armed {
            self.armed = true;
            ctx.set_timer(self.sweep_delay(), token);
        }
    }

    /// The sweep timer fired (or a crashed node discarded it).
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }

    /// Exponential backoff after the `attempts`-th send, capped.
    fn exponential(&self, attempts: u32) -> SimDuration {
        let mut d = RTX_INITIAL;
        for _ in 1..attempts {
            d = d.saturating_mul(2);
            if d >= RTX_MAX_BACKOFF {
                return RTX_MAX_BACKOFF;
            }
        }
        d.min(RTX_MAX_BACKOFF)
    }

    /// One step of this node's private xorshift64* stream.
    fn draw(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Decorrelated-jitter backoff: uniform in
    /// `[RTX_INITIAL, min(3 × prev, RTX_MAX_BACKOFF)]`. Consecutive
    /// draws decorrelate even nodes that started in lockstep (a mass
    /// reboot), so retry waves spread instead of arriving as one burst.
    fn decorrelated(&mut self, prev: SimDuration) -> SimDuration {
        let base = RTX_INITIAL.as_nanos();
        let hi = (prev.as_nanos().saturating_mul(3)).clamp(base, RTX_MAX_BACKOFF.as_nanos());
        let span = hi - base;
        let off = if span == 0 {
            0
        } else {
            self.draw() % (span + 1)
        };
        SimDuration::from_nanos(base + off)
    }

    /// The delay before the next retransmit of an entry whose last
    /// delay was `prev` and which has `attempts` sends behind it.
    fn retry_delay(&mut self, attempts: u32, prev: SimDuration) -> SimDuration {
        if self.jitter {
            self.decorrelated(prev)
        } else {
            self.exponential(attempts)
        }
    }

    /// The delay before the *first* retransmit of a fresh entry.
    fn initial_retry_delay(&mut self) -> SimDuration {
        if self.jitter {
            self.decorrelated(RTX_INITIAL)
        } else {
            RTX_INITIAL
        }
    }

    /// The delay to the next retransmit sweep. Jittered too: a fixed
    /// period would re-batch every node's retransmits onto the same
    /// grid instants no matter how decorrelated the per-entry deadlines
    /// are.
    fn sweep_delay(&mut self) -> SimDuration {
        let mut d = RTX_INITIAL;
        if self.jitter {
            let span = d.as_nanos() / 2;
            d = SimDuration::from_nanos(d.as_nanos() + self.draw() % (span + 1));
        }
        d
    }

    /// The wait applied on a `ServerBusy` reply. The wire hint is a
    /// *floor* ("do not retransmit for at least this long"); jitter on
    /// top spreads the herd of simultaneously-shed senders, which would
    /// otherwise all come back in one synchronized wave and be shed
    /// again — the hint alone re-correlates exactly what the jittered
    /// backoff decorrelated.
    fn busy_hold(&mut self, hint: SimDuration) -> SimDuration {
        if !self.jitter {
            return hint;
        }
        let extra = self.draw() % hint.as_nanos().max(1);
        SimDuration::from_nanos(hint.as_nanos() + extra)
    }
}

/// Splitmix64 of the RLOC address: a well-mixed, per-node-deterministic
/// seed for the private retransmit-jitter stream (never zero, which
/// would wedge xorshift).
fn jitter_seed(rloc: Rloc) -> u64 {
    let mut z = u64::from(u32::from(rloc.addr())).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z | 1
}

/// A message awaiting its answer.
struct Pending<V> {
    msg: V,
    /// Sends so far, the first included.
    attempts: u32,
    next_retry: SimTime,
    /// The delay that set `next_retry`; the next jitter draw feeds on it.
    prev_delay: SimDuration,
}

/// `(key, message)` pairs a sweep found due, in key order.
type Due<K, V> = Vec<(K, V)>;

/// Unanswered messages in key order, so a sweep replays: an optional
/// cap, an optional send budget per entry, and a high-water mark that
/// survives `clear`.
pub(crate) struct Retries<K, V> {
    pending: BTreeMap<K, Pending<V>>,
    cap: Option<usize>,
    budget: Option<u32>,
    peak: usize,
}

impl<K: Ord + Copy, V: Copy + PartialEq> Retries<K, V> {
    pub(crate) fn new(cap: Option<usize>, budget: Option<u32>) -> Self {
        Retries {
            pending: BTreeMap::new(),
            cap,
            budget,
            peak: 0,
        }
    }

    /// Tracks `msg`, sent under a fresh `key` at `now`. A full table
    /// first evicts, and returns, its smallest `(next_retry, key)`.
    pub(crate) fn start(&mut self, key: K, msg: V, now: SimTime, b: &mut Backoff) -> Option<K> {
        let full = self.cap.is_some_and(|cap| self.pending.len() >= cap);
        let evicted = full
            .then(|| self.pending.iter().min_by_key(|(k, p)| (p.next_retry, **k)))
            .flatten()
            .map(|(&k, _)| k);
        if let Some(k) = evicted {
            self.pending.remove(&k);
        }
        let delay = b.initial_retry_delay();
        let entry = Pending {
            msg,
            attempts: 1,
            next_retry: now + delay,
            prev_delay: delay,
        };
        self.pending.insert(key, entry);
        self.peak = self.peak.max(self.pending.len());
        evicted
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        self.pending.contains_key(key)
    }

    /// Whether any tracked message equals `msg`.
    pub(crate) fn tracks(&self, msg: &V) -> bool {
        self.pending.values().any(|p| p.msg == *msg)
    }

    /// The answer to `key` arrived.
    pub(crate) fn settle(&mut self, key: &K) -> Option<V> {
        self.pending.remove(key).map(|p| p.msg)
    }

    /// `ServerBusy`: holds `key`'s next send back for the server's
    /// retry-after hint (a floor; jittered on top). Whether `key` was
    /// tracked.
    pub(crate) fn hold(&mut self, key: &K, now: SimTime, hint_ms: u32, b: &mut Backoff) -> bool {
        let hold = b.busy_hold(SimDuration::from_millis(u64::from(hint_ms)));
        let Some(p) = self.pending.get_mut(key) else {
            return false;
        };
        p.next_retry = now + hold;
        p.prev_delay = hold;
        true
    }

    /// Every entry due at `now`, in key order: those to send again
    /// (kept, their next delay drawn), then those given up because
    /// their budget of sends is spent (removed).
    pub(crate) fn sweep(&mut self, now: SimTime, b: &mut Backoff) -> (Due<K, V>, Due<K, V>) {
        let (mut resend, mut given_up) = (Vec::new(), Vec::new());
        for (&key, p) in self.pending.iter_mut() {
            if p.next_retry > now {
                continue;
            }
            if self.budget.is_some_and(|n| p.attempts >= n) {
                given_up.push((key, p.msg));
                continue;
            }
            p.attempts += 1;
            p.prev_delay = b.retry_delay(p.attempts, p.prev_delay);
            p.next_retry = now + p.prev_delay;
            resend.push((key, p.msg));
        }
        for (key, _) in &given_up {
            self.pending.remove(key);
        }
        (resend, given_up)
    }

    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    pub(crate) fn clear(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Without jitter the first retry falls 500 ms after a send and the
    /// delay doubles per attempt up to 8 s.
    fn clock(jitter: bool) -> Backoff {
        let params = FabricConfig {
            rtx_jitter: jitter,
            ..FabricConfig::default()
        };
        Backoff::new(Rloc::for_router_index(7), &params)
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn a_full_table_evicts_the_smallest_deadline_then_key() {
        let b = &mut clock(false);
        let mut t = Retries::new(Some(2), None);
        // 5 is due at 500 and 1 at 600: the earlier deadline leaves.
        assert_eq!(t.start(5, 'a', ms(0), b), None);
        assert_eq!(t.start(1, 'b', ms(100), b), None);
        assert_eq!(t.start(9, 'c', ms(200), b), Some(5));
        // Holding 1 until 1,200 makes 9 (due at 700) the oldest.
        assert!(t.hold(&1, ms(200), 1000, b));
        assert_eq!(t.start(4, 'd', ms(200), b), Some(9));
        assert!(t.tracks(&'b') && t.tracks(&'d') && !t.tracks(&'c'));
        // 1 and 4 leave; 8 and 3 share a deadline: the smaller key goes.
        t.clear();
        t.start(8, 'x', ms(0), b);
        t.start(3, 'y', ms(0), b);
        assert_eq!(t.start(6, 'z', ms(0), b), Some(3));
        assert_eq!(t.start(7, 'w', ms(0), b), Some(6));
    }

    #[test]
    fn a_budget_of_n_gives_up_at_the_nth_due_sweep_and_never_earlier() {
        for budget in 1..=6 {
            let b = &mut clock(false);
            let mut t = Retries::new(None, Some(budget));
            t.start(3, (), ms(0), b);
            for sweep in 1..=budget {
                let due_at = t.pending[&3].next_retry;
                let early = SimTime::from_nanos(due_at.as_nanos() - 1);
                assert_eq!(t.sweep(early, b), (vec![], vec![]));
                let (resend, given_up) = t.sweep(due_at, b);
                let want = if sweep < budget { (1, 0) } else { (0, 1) };
                assert_eq!(
                    (resend.len(), given_up.len()),
                    want,
                    "budget {budget}, sweep {sweep}"
                );
            }
            assert!(t.is_empty());
        }
    }

    #[test]
    fn an_unbounded_table_never_gives_up() {
        let b = &mut clock(true);
        let mut t = Retries::new(None, None);
        t.start(2, 20, ms(0), b);
        t.start(1, 10, ms(0), b);
        for sweep in 1..=100 {
            // 8 s is the backoff cap: both are due at every sweep and
            // resent in key order.
            let due = t.sweep(ms(8000 * sweep), b);
            assert_eq!(due, (vec![(1, 10), (2, 20)], vec![]));
        }
        assert_eq!((t.settle(&2), t.settle(&2), t.len()), (Some(20), None, 1));
    }

    #[test]
    fn hold_moves_only_an_existing_entry_and_draws_either_way() {
        let b = &mut clock(true);
        let mut t = Retries::new(None, None);
        t.start(1, (), ms(0), b);
        let due_at = t.pending[&1].next_retry;
        // An untracked key: nothing is added or moved, yet the draw is
        // taken (replay depends on it).
        let state = b.state;
        assert!(!t.hold(&2, ms(50), 300, b));
        assert_ne!(b.state, state);
        assert!(!t.contains(&2) && t.pending[&1].next_retry == due_at);
        // A tracked key is held back at least the hint.
        assert!(t.hold(&1, ms(50), 300, b));
        let p = &t.pending[&1];
        assert!((300..600).contains(&p.prev_delay.as_millis()));
        assert_eq!(p.next_retry, ms(50) + p.prev_delay);
    }

    #[test]
    fn peak_survives_clear() {
        let b = &mut clock(false);
        let mut t = Retries::new(Some(8), None);
        for k in 0..3 {
            t.start(k, (), ms(0), b);
        }
        t.clear();
        t.start(9, (), ms(0), b);
        assert_eq!((t.len(), t.peak()), (1, 3));
    }
}
