//! Retransmit timing shared by the edge and border routers: capped
//! exponential backoff, or decorrelated jitter on a per-node private
//! random stream.

use sda_simnet::SimDuration;
use sda_types::Rloc;

use crate::controller::FabricConfig;

/// One node's retransmit schedule: the three `rtx_*` timing parameters
/// plus the private xorshift64* stream the jittered delays draw from.
/// The stream is seeded from the node's RLOC — per-node deterministic
/// and independent of the simulator's shared RNG, so enabling jitter
/// never perturbs other nodes' draws.
pub(crate) struct Backoff {
    initial: SimDuration,
    max: SimDuration,
    jitter: bool,
    state: u64,
}

impl Backoff {
    pub(crate) fn new(rloc: Rloc, params: &FabricConfig) -> Self {
        Backoff {
            initial: params.rtx_initial,
            max: params.rtx_max_backoff,
            jitter: params.rtx_jitter,
            state: jitter_seed(rloc),
        }
    }

    /// Exponential backoff after the `attempts`-th send, capped.
    fn exponential(&self, attempts: u32) -> SimDuration {
        let mut d = self.initial;
        for _ in 1..attempts {
            d = d.saturating_mul(2);
            if d >= self.max {
                return self.max;
            }
        }
        d.min(self.max)
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
    /// `[rtx_initial, min(3 × prev, rtx_max_backoff)]`. Consecutive
    /// draws decorrelate even nodes that started in lockstep (a mass
    /// reboot), so retry waves spread instead of arriving as one burst.
    fn decorrelated(&mut self, prev: SimDuration) -> SimDuration {
        let base = self.initial.as_nanos();
        // A cap configured below the initial delay means "never back
        // off", not an inverted clamp range.
        let cap = self.max.as_nanos().max(base);
        let hi = prev.as_nanos().saturating_mul(3).clamp(base, cap);
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
    pub(crate) fn retry_delay(&mut self, attempts: u32, prev: SimDuration) -> SimDuration {
        if self.jitter {
            self.decorrelated(prev)
        } else {
            self.exponential(attempts)
        }
    }

    /// The delay before the *first* retransmit of a fresh entry.
    pub(crate) fn initial_retry_delay(&mut self) -> SimDuration {
        if self.jitter {
            self.decorrelated(self.initial)
        } else {
            self.initial
        }
    }

    /// The delay to the next retransmit sweep. Jittered too: a fixed
    /// period would re-batch every node's retransmits onto the same
    /// grid instants no matter how decorrelated the per-entry deadlines
    /// are.
    pub(crate) fn sweep_delay(&mut self) -> SimDuration {
        let mut d = self.initial;
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
    pub(crate) fn busy_hold(&mut self, hint: SimDuration) -> SimDuration {
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
