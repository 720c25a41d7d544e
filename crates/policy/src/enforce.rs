//! Where per-packet policy enforcement happens.
//!
//! The connectivity matrix ([`crate::matrix`]) is the operator's intent;
//! the table an edge router consults once per packet is
//! [`crate::compile::CompiledAcl`]. This module holds the
//! enforcement-point choice of §5.3. It lives in `sda-policy` (not
//! `sda-core`) so the forwarding engine in `sda-dataplane` can enforce
//! without depending on the router nodes.

/// Where group policy is enforced (§5.3 trade-off).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EnforcementPoint {
    /// At the destination edge: less data-plane state, some wasted
    /// bandwidth on traffic that will be dropped. SDA's choice.
    #[default]
    Egress,
    /// At the source edge: saves the wasted transit, but needs
    /// destination-group knowledge everywhere (the signaling problem of
    /// Fig. 13).
    Ingress,
}
