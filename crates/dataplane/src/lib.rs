//! # sda-dataplane
//!
//! The batched, zero-copy VXLAN-GPO forwarding engine — the byte-level
//! data plane the paper's edge nodes run, built from the layers below it:
//! `sda-wire` packet views, the map-cache (`sda-lisp`: a host-route hash
//! table over a sorted list of covering prefixes) and per-packet policy
//! (`sda-policy`).
//!
//! ## The batch model
//!
//! The engine is structured like smoltcp crossed with a DPDK/VPP-style
//! burst pipeline:
//!
//! * **Buffers, not packets**: frames live in reusable
//!   [`PacketBuf`]s with 36 bytes of headroom reserved in front.
//!   Encapsulation *prepends* headers by moving the start pointer;
//!   decapsulation strips them the same way. Payload bytes never move
//!   and nothing is allocated per packet.
//! * **Bursts, not calls**: a [`Switch`] processes frames
//!   in batches (conventionally [`BATCH_SIZE`] = 32). A batch
//!   makes three phased passes — parse/classify, resolve, rewrite — so
//!   each phase's tables stay hot in cache; consecutive same-VN packets
//!   resolve as one [`sda_lisp::MapCache::lookup_batch_shared`] run — an
//!   exact-match probe per packet, a scan of the VN's covering prefixes
//!   only for an EID no live host route answers.
//! * **One encoding** ([`encap`]): the Fig. 2 header stack (outer IPv4 /
//!   UDP 4789 / VXLAN-GPO / inner packet) is written and parsed in
//!   exactly one place.
//!
//! * **Cores, not just batches**: the pipeline is factored
//!   into read-mostly [`SharedTables`] + per-worker [`WorkerCtx`], so
//!   [`MtSwitch`] can fan ingress bursts out to N worker threads by
//!   inner-flow RSS hash over clone-and-swap epoch-published tables
//!   ([`Switch`] is the single-threaded composition of the same parts).
//!
//! Misses punt Map-Requests to the control plane while the packet rides
//! the border default route (§3.2.2); SMR'd entries keep forwarding and
//! punt a refresh (Fig. 6); packets for departed endpoints trigger
//! data-driven SMRs back to the ingress edge. Zero allocations per
//! steady-state packet is enforced by `tests/no_alloc.rs`; the
//! `dataplane_fwd`/`mt_fwd` benches (`BENCH_dataplane.json`,
//! `BENCH_mt.json`) time the engine, and `mt_fwd` holds 1-worker
//! [`MtSwitch`] within 1.15x of the single-threaded switch.
//!
//! ## Surface
//!
//! The crate **is** its root plus the [`encap`] module: the two
//! switches and their parts ([`Switch`], [`MtSwitch`], [`SharedTables`],
//! [`WorkerCtx`], [`ingress_batch`], [`egress_batch`], [`EpochTables`],
//! [`TableReader`]), their configuration and results ([`SwitchConfig`],
//! [`HOP_BUDGET`], [`Verdict`], [`DropReason`], [`Punt`],
//! [`SwitchStats`]), the buffer ([`PacketBuf`] and its constants) and
//! the local endpoint table ([`VrfTable`], [`LocalEndpoint`]). It **is
//! not** a control plane: it raises [`Punt`]s and never sends a LISP
//! message itself; and [`MtSwitch`] is ingress-only and install-only (no
//! eviction, SMR or detach — the single-threaded [`Switch`] the fabric
//! runs owns those).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod buffer;
pub mod encap;
mod mt;
mod switch;
mod vrf;

pub use buffer::{PacketBuf, BATCH_SIZE, MAX_FRAME};
pub use encap::{
    parse_underlay, write_underlay, Decap, EncapParams, InnerProto, OuterChecksum,
    UNDERLAY_OVERHEAD,
};
pub use mt::{EpochTables, MtSwitch, TableReader};
pub use switch::{
    egress_batch, ingress_batch, DropReason, Punt, SharedTables, Switch, SwitchConfig, SwitchStats,
    Verdict, WorkerCtx, HOP_BUDGET,
};
pub use vrf::{LocalEndpoint, VrfTable};
