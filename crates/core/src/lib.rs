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
//! * [`FabricMsg`] — the fabric's simulator message type (data packets,
//!   LISP control, policy exchanges, host events, underlay protocol).
//! * [`pipeline`] — the host-frame byte conventions around the
//!   two-stage ingress/egress pipeline, which is the per-node
//!   `sda_dataplane::Switch` itself.
//! * [`edge`] — the edge router node: onboarding (Fig. 3), reactive
//!   resolution, mobility (Figs. 5–6), SMR, reboot recovery, underlay
//!   fallback.
//! * The border router (`border.rs`): pub/sub-synced full table,
//!   default-route target, external prefixes.
//! * The policy-server and routing-server simulator nodes
//!   (`servers.rs`) wrapping `sda-policy` / `sda-ctrl`, and overlay
//!   address allocation per VN (`dhcp.rs`).
//! * [`controller`] — the declarative operator API (§3.1) and scenario
//!   builder producing a runnable [`Fabric`].
//! * [`check_convergence`] — post-fault convergence checking: compares
//!   server database, border subscriber views and edge caches against
//!   an expected endpoint placement after a chaos run.
//!
//! ## Surface
//!
//! The crate **is** three public modules — [`controller`] (the
//! builder, [`Fabric`] and its handles), [`edge`] (the edge router and
//! its counters) and [`pipeline`] (the host-frame conventions) — and a
//! root that re-exports the builder, the message types, the
//! convergence check and the knobs a scenario sets
//! ([`EnforcementPoint`], [`AdmissionConfig`], [`ClassBudget`]). The
//! other modules are private; their nodes are reached through
//! [`Fabric`]. It **is not** a forwarding engine or a control-plane
//! store: packets go through `sda-dataplane`, mappings live in
//! `sda-ctrl` and `sda-lisp`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod backoff;
mod border;
mod chaos;
pub mod controller;
mod dhcp;
pub mod edge;
mod msg;
pub mod pipeline;
mod servers;

pub use chaos::{check_convergence, ConvergenceReport, ExpectedPlacement};
pub use controller::{Fabric, FabricBuilder, FabricConfig};
pub use msg::{EndpointIdentity, FabricMsg, HostEvent, PolicyMsg};
// Overload-hardening knobs, re-exported so scenario crates can set
// `FabricConfig::admission` without depending on `sda-ctrl` directly.
pub use sda_ctrl::{AdmissionConfig, ClassBudget};
pub use sda_policy::EnforcementPoint;
