//! # sda-ctrl
//!
//! The **partitioned control plane** — the routing server the fabric
//! runs: the scale-tier successor to the single-database map-server
//! (now its reference, `tests/reference/map_server.rs`) and to the
//! paper-faithful replicate-all `ShardedMapServer`, which clones every
//! Map-Register into every shard (§4.1: "perform route updates on all
//! servers") and so scales registration cost, memory, and pub/sub
//! fan-out *linearly with shard count*.
//!
//! [`PartitionedMapServer`] instead owns N shards, each with its **own**
//! [`MappingDb`](sda_lisp::MappingDb) (per-VN exact-match tables)
//! covering a prefix-aligned partition of EID space:
//!
//! * **Registers land on exactly one owner shard**, routed by the EID's
//!   top 16 key bits — total state is the
//!   world, not `shards × world`.
//! * **Map-Requests route by EID to the owner** (the owner is the only
//!   shard that can know the answer).
//! * **Expiry sweeps run shard by shard on the caller**: a shard sorts
//!   what it removed and results enqueue in shard order, so the outcome
//!   is deterministic whatever the tables' hash order — and, like the
//!   rest of the simulated control plane, single-threaded (per-sweep
//!   worker spawn lost to this loop at every measured size; ROADMAP,
//!   Parked).
//! * **Pub/sub is incremental**: every mapping change enqueues one
//!   delta into per-subscriber bounded queues with per-VN sequence
//!   numbers. Publishing is O(changes × subscribers-of-that-VN) — never
//!   a whole-world re-walk. A full queue compacts to each VN's first and
//!   newest delta, leaving the subscriber a hole it heals by
//!   resubscribing from its watermark; a reset the delta log cannot
//!   rebuild answers the Subscribe with the VN's snapshot.
//!
//! The §4.1 sharding study (`figs ablation_sharding`) models the
//! replicate-all deployment as queues over its request routing
//! (`sda_bench::shard`); `tests/differential_ctrl.rs` proves the
//! partitioned server agrees with the *single* reference server
//! reply-for-reply and notify-for-notify over generated
//! register/request/move/expiry interleavings.
//!
//! ## Overload hardening
//!
//! * **Admission control** ([`AdmissionConfig`]): per-shard, per-class token
//!   buckets gate requests, registers and subscribes independently.
//!   Over-budget messages are shed with a `ServerBusy` reply carrying a
//!   retry-after hint — never silently dropped — and resync
//!   resubscribes bypass the subscribe budget so self-healing always
//!   wins over churn.
//! * **Shard-scoped faults**: individual shards can crash (state lost)
//!   or partition (state frozen) while the rest of the server keeps
//!   serving; down shards drop their owner-routed traffic and are
//!   excluded from snapshot walks and expiry sweeps (overload model:
//!   `server.rs`'s module docs; counters: [`OverloadStats`]).
//!
//! ## Surface
//!
//! The crate **is** its root: [`PartitionedMapServer`] with its
//! [`Disposition`] and [`OverloadStats`], the admission budgets
//! ([`AdmissionConfig`], [`ClassBudget`]), and the per-subscriber delta
//! queue bound ([`DEFAULT_QUEUE_CAP`]). A subscriber receives `Publish`
//! messages; the queued delta, the pub/sub queue and the partition
//! function are private, as is every module. It **is not** a network
//! node: `sda-core`'s routing-server node feeds it bytes and models the
//! CPU it runs on.
//!
//! **Trusted inputs.** The embedding node's calls as given: a shard
//! index below [`PartitionedMapServer::shard_count`] for the shard
//! faults, and a positive shard count and queue bound at construction.
//! Messages are not trusted: any [`Message`](sda_wire::lisp::Message),
//! from any sender, may reach [`PartitionedMapServer::handle`].
//!
//! **Panics:** none on wire input — `tests/prop_hostile.rs` drives
//! arbitrary and bit-flipped messages of every kind, forged and honest
//! Subscribe claims, through `handle` and the flushes behind it.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod admission;
mod fanout;
mod partition;
mod server;

pub use admission::{AdmissionConfig, ClassBudget};
pub use fanout::DEFAULT_QUEUE_CAP;
pub use server::{Disposition, OverloadStats, PartitionedMapServer};
