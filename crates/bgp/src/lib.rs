//! # sda-bgp
//!
//! The **proactive baseline** of §4.3: BGP host routes distributed
//! through a centralized route reflector. This is what SDA's reactive
//! control plane is compared against in Fig. 11.
//!
//! Model (faithful to what makes proactive protocols slow under massive
//! mobility, per the paper's own analysis):
//!
//! * Every attach re-advertises the endpoint's host route to the route
//!   reflector; the reflector replicates the update to **all** peers —
//!   "the proactive approach replicates the network update to all 200
//!   edge routers".
//! * Like every production BGP speaker, the reflector **batches**
//!   updates per advertisement interval and walks its peer list on each
//!   flush. A mover's update therefore reaches different edges at
//!   meaningfully different times, and which edge *needs* the update is
//!   uncorrelated with where it sits in the walk — "the proactive
//!   approach updates edge routers randomly, i.e. not by their need for
//!   such update". That is the source of both the higher mean and the
//!   higher variance.
//! * Edges install updates with a per-route processing cost on their
//!   single-server control CPU, so 800 moves/s of churn also queues at
//!   the receivers.
//! * Data plane: senders forward straight to the edge their RIB names;
//!   an edge receiving traffic for an endpoint it no longer hosts
//!   **drops** it (no LISP-style old-edge forwarding exists here).
//!
//! The same auth delay used by the SDA scenario is applied on attach so
//! the comparison isolates the control-plane difference.
//!
//! ## Surface
//!
//! The crate **is** its root: the two nodes ([`BgpEdge`],
//! [`RouteReflector`]), their message type ([`BgpMsg`], with
//! [`BgpHostEvent`] for drivers), the wiring ([`BgpConfig`],
//! [`BgpDirectory`]). Every module is private, and so is the edge's
//! RIB.
//! It **is not** BGP on the wire — no sessions, attributes, path
//! selection or withdrawals — only the replication pattern Fig. 11
//! measures.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod msg;
mod peer;
mod reflector;
mod rib;

pub use msg::{BgpConfig, BgpDirectory, BgpHostEvent, BgpMsg};
pub use peer::BgpEdge;
pub use reflector::RouteReflector;
