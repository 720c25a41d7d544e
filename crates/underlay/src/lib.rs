//! # sda-underlay
//!
//! The plain-IP underlay's routing protocol, reduced to the one question
//! the fabric asks of it (§5.1, underlay connectivity):
//!
//! > "edge routers monitor the address announcements of the underlay
//! > routing protocol (IS-IS or OSPF) to know about their reachability to
//! > underlay IP addresses of the other edge routers. This way, when they
//! > detect a connectivity outage, they update their local forwarding
//! > table deleting such route and falling back to the default route to
//! > the border."
//!
//! **What it is.** A link-state protocol with three parts:
//!
//! * **Hello/adjacency** — neighbours exchange hellos carrying the
//!   neighbours they see (OSPF's two-way check, RFC 2328); a missed dead
//!   interval tears the adjacency down.
//! * **LSA flooding** — routers originate link-state advertisements with
//!   sequence numbers and flood them; newer LSAs displace older ones, and
//!   a router that sees its own LSA with a higher sequence bumps past it
//!   (how a rebooted router recovers).
//! * **A reachable set** — the routers this one reaches over links both
//!   ends advertise. [`LinkStateRouter::lost`] reports who dropped out of
//!   it since the previous call; `sda-core`'s edge purges routes through
//!   each (also how transient reboot loops are broken, §5.2).
//!
//! [`LinkStateRouter`] is a pure state machine (messages and ticks in,
//! `(neighbor, message)` pairs out); `sda-core` adapts it onto the
//! simulator and tests drive it synchronously.
//!
//! **What it is not.**
//!
//! * Not a router of traffic: the simulator delivers fabric traffic
//!   directly, so there is no SPF, no distance, no ECMP next hop and no
//!   link cost — every link is up or down.
//! * Not OSPF or IS-IS on the wire: messages are Rust values ([`Message`],
//!   carrying [`Lsa`]s); areas and authentication do not exist.
//!
//! **Trusted inputs.** Messages come from fabric routers running this
//! same state machine; a hello from a router that is not a configured
//! neighbour is ignored, and an LSA's links need not be sorted.
//!
//! **Panics:** none. The crate **is** its root: [`LinkStateRouter`],
//! [`Message`] and [`Lsa`]; every module is private.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod lsdb;
mod protocol;

pub use lsdb::Lsa;
pub use protocol::{LinkStateRouter, Message};
