//! # sda-underlay
//!
//! The plain-IP underlay that routes encapsulated traffic between fabric
//! routers. SDA deployments run OSPF or IS-IS here; this crate implements
//! a link-state protocol with the features the fabric depends on:
//!
//! * **Hello/adjacency** — neighbors exchange hellos; a missed dead
//!   interval tears the adjacency down.
//! * **LSA flooding** — routers originate link-state advertisements with
//!   sequence numbers and flood them; newer LSAs displace older ones.
//! * **SPF with ECMP** — Dijkstra shortest paths keeping *all* equal-cost
//!   next hops (§3.3: "ECMP for redundancy").
//! * **Reachability watch** — the mechanism of §5.1/§5.2: edge routers
//!   monitor the underlay protocol's address announcements to learn
//!   whether peer RLOCs are reachable, and fall back to the border when
//!   one disappears (also how transient reboot loops are broken).
//!
//! The router is a *pure state machine* ([`LinkStateRouter`]):
//! inputs are messages and ticks, outputs are `(neighbor, message)` pairs.
//! `sda-core` adapts it onto the simulator; tests drive it synchronously.
//!
//! ## Surface
//!
//! The crate **is** its root: [`LinkStateRouter`] with its [`Message`],
//! the [`Lsdb`] of [`Lsa`]s, [`spf`] and its
//! [`RouteTable`], [`Topology`], and the [`ReachabilityTracker`] that
//! turns route changes into [`ReachabilityEvent`]s. Every module is
//! private. It **is not** OSPF or IS-IS on the wire: messages are Rust
//! values, areas and authentication do not exist.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod lsdb;
mod protocol;
mod reachability;
mod spf;
mod topology;

pub use lsdb::{Lsa, Lsdb};
pub use protocol::{LinkStateRouter, Message};
pub use reachability::{ReachabilityEvent, ReachabilityTracker};
pub use spf::{spf, RouteTable};
pub use topology::Topology;
