//! What every map-server implementation shares: the reply/notify
//! outbox, the counter block, the control-CPU service-time model and
//! the TTLs replies carry.
//!
//! The server the fabric runs is `sda_ctrl::PartitionedMapServer`; the
//! single-database state machine that used to live here is its
//! differential reference (`ctrl/tests/reference/map_server.rs`).

use sda_simnet::SimDuration;
use sda_types::Rloc;
use sda_wire::lisp::Message;

/// Control-CPU service time for a Map-Request (lookup). Independent of
/// table size — the property Fig. 7a demonstrates (there with a Patricia
/// trie, here with one probe of a linear-probed table, which starts at
/// the EID's hashed home slot and as a rule ends in the same cache line).
pub const REQUEST_SERVICE: SimDuration = SimDuration::from_micros(250);

/// Control-CPU service time for a Map-Register (update). Slightly above
/// lookup (Fig. 7b sits marginally above 7a).
pub const UPDATE_SERVICE: SimDuration = SimDuration::from_micros(280);

/// TTL carried in positive Map-Replies (seconds). The edge map-cache
/// honours it; 48 h (together with idle decay) reflects the long
/// retention §4.2 observes on building-A edges: caches persist across
/// the 14 h workday gap but clear over the 62 h weekend gap.
pub const REPLY_TTL_SECS: u32 = 48 * 3600;

/// TTL of negative replies: misses must age out quickly.
pub const NEGATIVE_TTL_SECS: u32 = 60;

/// Statistics counters for the experiment harnesses.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MapServerStats {
    /// Map-Requests answered positively.
    pub replies: u64,
    /// Map-Requests answered negatively.
    pub negative_replies: u64,
    /// Registers processed (new + refresh + move).
    pub registers: u64,
    /// Registers that were moves.
    pub moves: u64,
    /// Publishes emitted to subscribers.
    pub publishes: u64,
}

/// Messages to transmit: `(destination RLOC, message)`.
pub type Outbox = Vec<(Rloc, Message)>;

/// The appropriate control-CPU service time for `msg`.
pub fn service_time(msg: &Message) -> SimDuration {
    match msg {
        Message::MapRegister { .. } => UPDATE_SERVICE,
        _ => REQUEST_SERVICE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_types::{Eid, VnId};
    use std::net::Ipv4Addr;

    #[test]
    fn service_times_are_table_size_independent_constants() {
        let vn = VnId::new(1).unwrap();
        let eid = Eid::V4(Ipv4Addr::new(10, 0, 0, 1));
        let rloc = Rloc::for_router_index(1);
        let req = Message::MapRequest {
            nonce: 0,
            smr: false,
            vn,
            eid,
            itr_rloc: rloc,
        };
        let reg = Message::MapRegister {
            nonce: 1,
            vn,
            eid,
            rloc,
            ttl_secs: 300,
            want_notify: false,
        };
        assert_eq!(service_time(&req), REQUEST_SERVICE);
        assert_eq!(service_time(&reg), UPDATE_SERVICE);
        assert!(UPDATE_SERVICE > REQUEST_SERVICE);
    }
}
