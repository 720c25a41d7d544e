//! Token-bucket admission control for the partitioned map-server.
//!
//! Overload protection is budgeted **per shard and per message class**:
//! requests, registers and subscribes each draw from their own bucket,
//! so a register storm (endpoint churn, reboot re-registration waves)
//! can never starve resolution, and vice versa. A message that finds
//! its bucket empty is *shed*, not silently dropped: the server answers
//! with [`Message::ServerBusy`](sda_wire::lisp::Message::ServerBusy)
//! carrying a retry-after hint, so the sender reschedules instead of
//! hammering its normal (faster) retransmit backoff.
//!
//! Buckets refill lazily from the simulated clock — pure `f64`
//! arithmetic on event timestamps, so admission decisions replay
//! byte-identically for a given scenario seed.

use sda_simnet::{SimDuration, SimTime};

/// Budget of one message class: sustained rate plus burst depth.
#[derive(Clone, Copy, Debug)]
pub struct ClassBudget {
    /// Sustained admissions per second.
    pub rate: f64,
    /// Bucket depth: how many back-to-back admissions a full bucket
    /// allows before the sustained rate gates.
    pub burst: f64,
}

impl ClassBudget {
    /// A budget of `rate` admissions/s with burst depth `burst`.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "admission rate must be positive");
        assert!(burst >= 1.0, "burst must admit at least one message");
        ClassBudget { rate, burst }
    }
}

/// Per-shard, per-class admission budgets plus the retry-after hint
/// attached to shed replies.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Map-Request budget (per shard).
    pub requests: ClassBudget,
    /// Map-Register budget (per shard).
    pub registers: ClassBudget,
    /// Subscribe budget (server-wide; subscriptions are not sharded).
    /// Resubscribes of an already-known `(VN, subscriber)` stream —
    /// i.e. resyncs — bypass this bucket so self-healing never loses
    /// to churn.
    pub subscribes: ClassBudget,
    /// How long shed senders are told to wait before retrying.
    pub retry_after: SimDuration,
}

impl AdmissionConfig {
    /// The same `rate`/`burst` budget for every class.
    pub fn uniform(rate: f64, burst: f64, retry_after: SimDuration) -> Self {
        let b = ClassBudget::new(rate, burst);
        AdmissionConfig {
            requests: b,
            registers: b,
            subscribes: b,
            retry_after,
        }
    }

    /// The retry-after hint in whole milliseconds (as carried on the
    /// wire), at least 1.
    pub(crate) fn retry_after_ms(&self) -> u32 {
        (self.retry_after.as_millis() as u32).max(1)
    }
}

/// A lazily-refilled token bucket on the simulated clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    pub(crate) fn new(budget: ClassBudget) -> Self {
        TokenBucket {
            rate: budget.rate,
            burst: budget.burst,
            tokens: budget.burst,
            last: SimTime::ZERO,
        }
    }

    /// Takes one token if available, refilling for the time elapsed
    /// since the last call first. Returns false when the bucket is
    /// empty (the message should be shed).
    pub(crate) fn try_take(&mut self, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_gates_at_rate() {
        let mut b = TokenBucket::new(ClassBudget::new(10.0, 3.0));
        let t0 = SimTime::ZERO;
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted");
        // 100 ms at 10/s refills exactly one token.
        let t1 = t0 + SimDuration::from_millis(100);
        assert!(b.try_take(t1));
        assert!(!b.try_take(t1));
    }

    #[test]
    fn bucket_caps_refill_at_burst() {
        let mut b = TokenBucket::new(ClassBudget::new(10.0, 2.0));
        let t0 = SimTime::ZERO;
        assert!(b.try_take(t0));
        // A long idle period refills to burst, not unbounded.
        let t1 = t0 + SimDuration::from_secs(3600);
        assert!(b.try_take(t1));
        assert!(b.try_take(t1));
        assert!(!b.try_take(t1), "refill capped at burst depth 2");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        ClassBudget::new(0.0, 1.0);
    }
}
