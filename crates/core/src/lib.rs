//! # sda-core
//!
//! The paper's primary contribution assembled: edge and border routers,
//! the two-stage ingress/egress pipelines, host onboarding, mobility,
//! L2 services and the fabric controller that wires everything onto the
//! simulator.
//!
//! ## Architecture (Fig. 1)
//!
//! ```text
//!            ┌─────────────┐   ┌──────────────┐
//!            │policy server│   │routing server│   control plane
//!            └──────┬──────┘   └──────┬───────┘
//!        RADIUS/SXP │       LISP      │   ▲ sync (pub/sub)
//!            ┌──────┴─────────────────┴───┴───┐
//!            │            underlay            │
//!            └─┬─────────┬─────────┬──────────┘
//!          ┌───┴──┐  ┌───┴──┐  ┌───┴───┐
//!          │edge 1│  │edge 2│  │border │ ──► Internet
//!          └──────┘  └──────┘  └───────┘
//!           endpoints roam across edges
//! ```
//!
//! * [`msg`] — the fabric's simulator message type (data packets,
//!   LISP control, policy exchanges, host events, underlay protocol).
//! * [`pipeline`] — the host-frame byte conventions around the
//!   two-stage ingress/egress pipeline, which is the per-node
//!   `sda_dataplane::Switch` itself.
//! * [`edge`] — the edge router node: onboarding (Fig. 3), reactive
//!   resolution, mobility (Figs. 5–6), SMR, reboot recovery, underlay
//!   fallback.
//! * [`border`] — the border router: pub/sub-synced full table, default-
//!   route target, external prefixes.
//! * [`servers`] — policy-server and routing-server simulator nodes
//!   wrapping `sda-policy` / `sda-ctrl`.
//! * [`dhcp`] — overlay address allocation per VN.
//! * [`controller`] — the declarative operator API (§3.1) and scenario
//!   builder producing a runnable [`controller::Fabric`].
//! * [`chaos`] — post-fault convergence checking: compares server
//!   database, border subscriber views and edge caches against an
//!   expected endpoint placement after a chaos run.

mod backoff;
pub mod border;
pub mod chaos;
pub mod controller;
pub mod dhcp;
pub mod edge;
pub mod msg;
pub mod pipeline;
pub mod servers;

pub use chaos::{check_convergence, ConvergenceReport, ExpectedPlacement};
pub use controller::{Fabric, FabricBuilder, FabricConfig};
// Overload-hardening knobs, re-exported so scenario crates can set
// `FabricConfig::admission` without depending on `sda-ctrl` directly.
pub use msg::{EndpointIdentity, FabricMsg, HostEvent, PolicyMsg};
pub use pipeline::EnforcementPoint;
pub use sda_ctrl::{AdmissionConfig, ClassBudget};
