//! The fabric's simulator message type and endpoint identity model.

use sda_policy::{EndpointProfile, RuleSubset};
use sda_types::{Eid, GroupId, MacAddr, PortId, Rloc, VnId};
use sda_wire::lisp;
use std::net::Ipv4Addr;

/// Everything an endpoint *is*, as the workload generators mint them:
/// its L2/L3 identities plus the credential it presents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EndpointIdentity {
    /// L2 identity (also the AAA identity).
    pub mac: MacAddr,
    /// Overlay IPv4 address.
    pub ipv4: Ipv4Addr,
    /// AAA shared secret.
    pub secret: u64,
}

impl EndpointIdentity {
    /// The EIDs this endpoint registers (IPv4 + MAC — controlled by
    /// [`crate::FabricConfig::register_mac`]; the paper also registers
    /// IPv6 per endpoint, a documented simplification here).
    #[cfg(test)]
    pub(crate) fn eids(&self) -> [Eid; 2] {
        [Eid::V4(self.ipv4), Eid::Mac(self.mac)]
    }
}

/// Host-side events the workload drivers inject into edge routers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostEvent {
    /// An endpoint plugged into (or roamed to) a port of this edge.
    Attach {
        /// Who.
        endpoint: EndpointIdentity,
        /// Which switch port / AP uplink.
        port: PortId,
        /// The VN hint for DHCP-less scenarios (must match policy).
        vn: VnId,
    },
    /// The endpoint left this edge (roam-away or power-off).
    Detach {
        /// L2 identity of the leaving endpoint.
        mac: MacAddr,
    },
    /// The endpoint emits a packet.
    Send {
        /// Source endpoint's MAC (must be attached here).
        src_mac: MacAddr,
        /// Destination EID (IPv4 for L3 flows, MAC for L2 flows).
        dst: Eid,
        /// Payload size.
        payload_len: u16,
        /// Flow id.
        flow: u64,
        /// Measurement hook flag.
        track: bool,
    },
    /// The endpoint broadcasts an ARP who-has (L2 service path, §3.5).
    ArpRequest {
        /// Requesting endpoint's MAC.
        src_mac: MacAddr,
        /// IPv4 being resolved.
        target_ip: Ipv4Addr,
    },
}

/// Policy-plane exchanges (RADIUS/SXP stand-ins).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyMsg {
    /// Edge → policy server: authenticate this endpoint (Fig. 3 step 1).
    AuthRequest {
        /// Presented identity.
        mac: MacAddr,
        /// Presented secret.
        secret: u64,
        /// Correlates the response to the pending attach.
        txn: u64,
    },
    /// Policy server → edge: accept + binding + egress rules (step 2).
    AuthAccept {
        /// Transaction echo.
        txn: u64,
        /// Authenticated endpoint.
        mac: MacAddr,
        /// `(VN, GroupId)` binding.
        profile: EndpointProfile,
        /// Egress rule subset for the endpoint's group.
        rules: RuleSubset,
    },
    /// Policy server → edge: rejected.
    AuthReject {
        /// Transaction echo.
        txn: u64,
        /// The rejected identity.
        mac: MacAddr,
    },
    /// Edge → policy server: a policy change told us to re-pull rules
    /// for our local population.
    RuleRefreshRequest {
        /// The edge's locally attached `(vn, group)` pairs.
        local: Vec<(VnId, GroupId)>,
    },
    /// Policy server → edge: refreshed subset.
    RuleRefresh {
        /// The new rules.
        rules: RuleSubset,
    },
}

/// ARP service exchanges with the routing server (§3.5 elements ii–iii:
/// the routing server indexes endpoints by MAC and stores IP→MAC pairs).
/// In the real system these are LISP lookups on an IP-keyed mapping
/// whose payload is the MAC; modeled as a dedicated message pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpMsg {
    /// Edge → routing server: record `ip → mac` during onboarding
    /// (§3.5 element iii: "storing overlay IP to MAC pairs in the
    /// routing server").
    Register {
        /// VN scope.
        vn: VnId,
        /// The endpoint's overlay IPv4.
        ip: Ipv4Addr,
        /// The endpoint's MAC.
        mac: MacAddr,
    },
    /// L2 gateway → routing server: who owns `ip` in `vn`?
    Query {
        /// VN scope.
        vn: VnId,
        /// The IP from the intercepted ARP request.
        ip: Ipv4Addr,
        /// Where to send the answer.
        reply_to: Rloc,
    },
    /// Routing server → L2 gateway: `ip` belongs to `mac`.
    Answer {
        /// VN scope.
        vn: VnId,
        /// Queried IP.
        ip: Ipv4Addr,
        /// The owning MAC, if registered.
        mac: Option<MacAddr>,
    },
}

/// The one message enum the whole fabric simulation speaks.
#[derive(Clone, PartialEq, Debug)]
pub enum FabricMsg {
    /// Encapsulated overlay traffic between fabric routers: the real
    /// underlay bytes (outer IPv4 / UDP / VXLAN-GPO / inner packet),
    /// produced and consumed by each node's `sda_dataplane::Switch`.
    Data(Vec<u8>),
    /// LISP control plane (requests, replies, registers, notifies,
    /// SMRs, publishes, subscribes).
    Control(lisp::Message),
    /// Policy plane (auth + rule distribution).
    Policy(PolicyMsg),
    /// ARP resolution service.
    Arp(ArpMsg),
    /// Link-state underlay protocol, tunneled between adjacent routers.
    Underlay(sda_underlay::Message),
    /// Workload-injected endpoint events.
    Host(HostEvent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_eids_cover_l2_and_l3() {
        let ep = EndpointIdentity {
            mac: MacAddr::from_seed(1),
            ipv4: Ipv4Addr::new(10, 1, 0, 1),
            secret: 9,
        };
        let eids = ep.eids();
        assert_eq!(eids[0], Eid::V4(ep.ipv4));
        assert_eq!(eids[1], Eid::Mac(ep.mac));
    }
}
