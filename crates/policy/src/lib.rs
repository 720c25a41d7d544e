//! # sda-policy
//!
//! The SDA **policy server**: the control-plane half that knows *who* may
//! talk to *whom* (the routing server knows *where* everyone is).
//!
//! Responsibilities, following §3.2.1:
//!
//! * **Authentication** ([`auth`]) — a RADIUS-style credential exchange.
//!   A successful authentication binds the endpoint to its `(VN, GroupId)`
//!   pair, the inputs to both macro- and micro-segmentation.
//! * **Connectivity matrix** ([`matrix`]) — per-VN group-pair rules with
//!   a configurable default action; "VNs never talk to each other" is
//!   structural (rules are scoped inside a VN).
//! * **Rule distribution** ([`sxp`]) — the SXP-style push of exactly the
//!   rule subset an edge router needs: with egress enforcement, only
//!   rules whose *destination* group is locally attached (§3.3.1, §5.3).
//! * **Policy updates** ([`update`]) — the two operational strategies of
//!   §5.4 (move endpoints between groups vs. rewrite the matrix), with
//!   signaling-cost accounting so the trade-off is measurable.
//! * **Enforcement point** ([`enforce`]) — the §5.3 choice (ingress vs.
//!   egress).
//! * **Compiled enforcement** ([`compile`]) — the group ACL an edge
//!   consults once per packet: per VN, `(VnId, GroupId)` is interned
//!   into a dense id space (append-only, so delta installs never
//!   remap), and each source group owns a bitset row over dense
//!   destination ids with the default action folded in — one verdict is
//!   one shift + mask. Rows are `Arc`-shared (epoch publishes copy
//!   pointers, not rules) and the allow/drop counters are shared
//!   `Relaxed` atomics, so the data plane enforces through `&self` on
//!   any snapshot.
//!
//! [`server::PolicyServer`] ties these together behind the message-level
//! API the fabric speaks.

#![forbid(unsafe_code)]

pub mod auth;
pub mod compile;
pub mod enforce;
pub mod matrix;
pub mod server;
pub mod sxp;
pub mod update;

pub use auth::{AuthMethod, AuthOutcome, AuthServer, Credential};
pub use compile::{AclCounters, AclVnView, CompiledAcl, CompiledMemStats};
pub use enforce::EnforcementPoint;
pub use matrix::{Action, ConnectivityMatrix, GroupRule};
pub use server::{EndpointProfile, PolicyServer};
pub use sxp::{egress_subset, ingress_subset, RuleSubset};
pub use update::{Population, RolloutFanout, UpdatePlan, UpdateStrategy};
