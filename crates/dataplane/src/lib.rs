//! # sda-dataplane
//!
//! The batched, zero-copy VXLAN-GPO forwarding engine — the byte-level
//! data plane the paper's edge nodes run, built from the layers below it:
//! `sda-wire` packet views, the map-cache (`sda-lisp`: a host-route hash
//! table over `sda-trie`'s inline-key tries) and per-packet policy (`sda-policy`).
//!
//! ## The batch model
//!
//! The engine is structured like smoltcp crossed with a DPDK/VPP-style
//! burst pipeline:
//!
//! * **Buffers, not packets** ([`buffer`]): frames live in reusable
//!   [`PacketBuf`]s with [`buffer::HEADROOM`] bytes reserved in front.
//!   Encapsulation *prepends* headers by moving the start pointer;
//!   decapsulation strips them the same way. Payload bytes never move
//!   and nothing is allocated per packet.
//! * **Bursts, not calls** ([`switch`]): a [`Switch`] processes frames
//!   in batches (conventionally [`buffer::BATCH_SIZE`] = 32). A batch
//!   makes three phased passes — parse/classify, resolve, rewrite — so
//!   each phase's tables stay hot in cache; consecutive same-VN packets
//!   resolve as one [`sda_lisp::MapCache::lookup_batch_shared`] run — an
//!   exact-match probe per packet, a trie descent only for an EID no
//!   live host route answers.
//! * **One encoding** ([`encap`]): the Fig. 2 header stack (outer IPv4 /
//!   UDP 4789 / VXLAN-GPO / inner packet) is written and parsed in
//!   exactly one place, shared with `sda_core::pipeline`'s structured
//!   simulator path.
//!
//! * **Cores, not just batches** ([`mt`]): the pipeline is factored
//!   into read-mostly [`SharedTables`] + per-worker [`WorkerCtx`], so
//!   [`MtSwitch`] can fan bursts out to N worker threads by inner-flow
//!   RSS hash over clone-and-swap epoch-published tables ([`Switch`]
//!   is the single-threaded composition of the same parts).
//!
//! Misses punt Map-Requests to the control plane while the packet rides
//! the border default route (§3.2.2); SMR'd entries keep forwarding and
//! punt a refresh (Fig. 6); packets for departed endpoints trigger
//! data-driven SMRs back to the ingress edge. The engine's performance
//! contract — zero allocations per steady-state packet, ≥2x over the
//! per-packet Vec-assembling baseline, and 1-worker multi-core parity
//! within 1.15x of the single-threaded switch — is enforced by
//! `tests/no_alloc.rs` and the `dataplane_fwd`/`mt_fwd` benches
//! (`BENCH_dataplane.json`, `BENCH_mt.json`).

pub mod buffer;
pub mod encap;
pub mod mt;
pub mod switch;
pub mod vrf;

pub use buffer::{BufferPool, PacketBuf, BATCH_SIZE, HEADROOM, MAX_FRAME};
pub use encap::{
    parse_underlay, write_underlay, Decap, EncapParams, InnerProto, OuterChecksum,
    UNDERLAY_OVERHEAD,
};
pub use mt::{EpochTables, MtSwitch, TableReader};
pub use switch::{
    egress_batch, ingress_batch, DropReason, Punt, SharedTables, Switch, SwitchConfig, SwitchStats,
    Verdict, WorkerCtx,
};
pub use vrf::{LocalEndpoint, VrfTable};
