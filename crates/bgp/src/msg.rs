//! Messages and shared wiring for the BGP baseline simulation.

use std::collections::BTreeMap;

use sda_simnet::{NodeId, SimDuration};
use sda_types::{Eid, MacAddr, Rloc};
use std::net::Ipv4Addr;

/// One host-route update as reflected to peers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteUpdate {
    /// The endpoint's EID.
    pub eid: Eid,
    /// The edge now serving it.
    pub rloc: Rloc,
    /// Reflector-assigned recency.
    pub seq: u64,
}

/// The message enum of the baseline simulation.
#[derive(Clone, PartialEq, Debug)]
pub enum BgpMsg {
    /// Edge → reflector: (re-)advertise a host route.
    Advertise {
        /// The endpoint's EID.
        eid: Eid,
        /// The advertising edge.
        rloc: Rloc,
    },
    /// Reflector → edge: a flushed batch of updates.
    Batch(Vec<RouteUpdate>),
    /// A data packet between fabric routers.
    Data {
        /// Destination endpoint.
        dst: Eid,
        /// Flow id.
        flow: u64,
        /// Record delivery in metrics.
        track: bool,
    },
    /// Workload events.
    Host(BgpHostEvent),
}

/// Host events for the baseline (mirrors `sda-core`'s, minus policy —
/// an identical fixed auth delay is charged instead so the comparison
/// isolates the control planes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BgpHostEvent {
    /// Endpoint attached here.
    Attach {
        /// L2 identity.
        mac: MacAddr,
        /// Overlay IPv4 (the advertised host route).
        ipv4: Ipv4Addr,
    },
    /// Endpoint left.
    Detach {
        /// L2 identity.
        mac: MacAddr,
    },
    /// Endpoint sends a packet.
    Send {
        /// Destination EID.
        dst: Eid,
        /// Flow id.
        flow: u64,
        /// Measurement flag.
        track: bool,
    },
}

/// Timing knobs of the baseline.
#[derive(Clone, Copy, Debug)]
pub struct BgpConfig {
    /// Attach-side AAA delay (matched to the SDA scenario's).
    pub auth_delay: SimDuration,
    /// Reflector advertisement interval (per-peer batch flush cadence).
    pub flush_interval: SimDuration,
    /// Reflector per-route-per-peer replication cost.
    pub replicate_cost: SimDuration,
    /// Edge per-route installation cost.
    pub install_cost: SimDuration,
}

impl Default for BgpConfig {
    fn default() -> Self {
        BgpConfig {
            auth_delay: SimDuration::from_micros(800),
            flush_interval: SimDuration::from_millis(20),
            replicate_cost: SimDuration::from_micros(2),
            install_cost: SimDuration::from_micros(30),
        }
    }
}

/// Immutable wiring shared by the baseline nodes.
#[derive(Debug)]
pub struct BgpDirectory {
    /// RLOC → node.
    pub node_of_rloc: BTreeMap<Rloc, NodeId>,
    /// The route reflector's node.
    pub reflector: NodeId,
    /// Timing knobs.
    pub config: BgpConfig,
}

impl BgpDirectory {
    /// The node serving `rloc`.
    ///
    /// # Panics
    /// Panics on unknown RLOCs (wiring bug).
    pub(crate) fn node_of(&self, rloc: Rloc) -> NodeId {
        *self
            .node_of_rloc
            .get(&rloc)
            .unwrap_or_else(|| panic!("no node for rloc {rloc}"))
    }
}
