//! # sda-lisp
//!
//! The building blocks of the SDA **routing server** (LISP map-server)
//! and the edge-side **map-cache**: the reactive control plane at the
//! heart of the paper. The server itself — Map-Request/Reply,
//! Map-Register with move detection (Fig. 5), Map-Notify to the previous
//! edge, negative replies, pub/sub — is `sda_ctrl::PartitionedMapServer`,
//! one layer up.
//!
//! * [`MappingDb`] — the `(VN, EID) → RLOC` database, one
//!   exact-match table of host routes per VN (§3.2.2, Table 2 row 3).
//! * What every server shares: the [`Outbox`] of
//!   `(destination, message)` pairs, [`MapServerStats`], the
//!   service-time model and the reply TTLs.
//! * [`MapCache`] — the edge router's on-demand FIB: host
//!   routes in one exact-match table, covering prefixes in one sorted
//!   `Vec`; TTL'd entries, idle decay, SMR/underlay-event invalidation,
//!   negative caching. Its `len()` *is* the Fig. 9 "FIB entries" series.
//! * [`SmrTracker`] — dedup window for the data-triggered
//!   Solicit-Map-Request messages of Fig. 6.
//!
//! ## Service-time model
//!
//! The paper's Fig. 7 measures a commercial virtual router. We model the
//! map-server control CPU as a single-server FIFO queue whose service
//! times ([`REQUEST_SERVICE`], [`UPDATE_SERVICE`])
//! are *independent of the number of stored routes* — true by
//! construction: the paper's Patricia trie costs what the key width
//! costs, the registry here one hash probe. Fig. 7c's load-dependent
//! growth then falls out of queueing, exactly as on the real server.
//!
//! ## Surface
//!
//! The crate **is** its root: the four tables above with their records
//! and outcomes ([`CacheEntry`], [`CacheOutcome`], [`MappingRecord`],
//! [`RegisterOutcome`]), and the server constants and [`service_time`].
//! Every module is private. It **is not** a server: nothing here
//! decodes a message or routes a reply — that is `sda-ctrl`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod map_cache;
mod map_server;
mod registry;
mod smr;

pub use map_cache::{CacheEntry, CacheOutcome, MapCache};
pub use map_server::{
    service_time, MapServerStats, Outbox, NEGATIVE_TTL_SECS, REPLY_TTL_SECS, REQUEST_SERVICE,
    UPDATE_SERVICE,
};
pub use registry::{MappingDb, MappingRecord, RegisterOutcome};
pub use smr::SmrTracker;
