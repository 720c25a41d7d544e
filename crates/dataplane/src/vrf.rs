//! Per-VN local endpoint table (the VRF stage of Fig. 4).
//!
//! Each edge keeps the endpoints attached to its own ports. Every
//! record carries the endpoint's GroupId — the `(Overlay IP, GroupId)`
//! association onboarding creates and the egress pipeline's second
//! stage reads (§3.3.2).
//!
//! **What it is.** One exact-match hash table from a 64-bit key to
//! `(vn, record)`, two keys per endpoint:
//!
//! * `mac` — answers [`VrfTable::classify`] (who is sending, in which
//!   VN) and the L2 destination [`VrfTable::lookup`] in one probe. A MAC
//!   is attached in one VN at a time, so the VN is part of the answer,
//!   not of the key;
//! * `(vn, ipv4)` — answers the L3 destination lookup.
//!
//! Both are folded into one `u64` (48 MAC bits; a tag bit + 24 VN bits +
//! 32 address bits) and hashed with one widening multiply
//! ([`sda_types::KeyHasher`], shared with the map-cache's host table). An attach
//! that finds the MAC already present (port move, re-leased IPv4, other
//! VN) *replaces* the record and releases the IPv4 key the old record
//! owned. An IPv4 key belongs to the endpoint that attached with it
//! last; a detach releases it only if the endpoint still owns it.
//!
//! **What it is not.**
//!
//! * Not a longest-prefix table: host entries only, no covering
//!   prefixes. Fig. 4 makes the VRF stage an exact `(VN, address)`
//!   match; only the overlay FIB ([`sda_lisp::MapCache`]) needs LPM.
//! * Not an IPv6 table: `attach` only ever inserts IPv4 and MAC keys, so
//!   a V6 `lookup` answers `None`.
//! * Not hardened against crafted keys: the multiply hash has no secret.
//!   Keys are *inserted* only by onboarding (authenticated endpoints);
//!   packets merely probe.
//!
//! **Iteration order.** [`VrfTable::iter`] yields endpoints in
//! ascending MAC order — `refresh_registrations` in `sda-core` turns it
//! into message order and RNG draws, so the determinism tests depend on
//! it. The ordered MAC set that provides it is touched by `attach`,
//! `detach` and `iter` only, never by `lookup`/`classify`.
//!
//! This type moved here from `sda-core` when the batched forwarding
//! engine landed: the [`crate::Switch`] owns a `VrfTable` directly, and
//! the router nodes in `sda-core` re-export it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::net::Ipv4Addr;

use sda_types::{Eid, GroupId, KeyHasher, MacAddr, PortId, VnId};

/// A locally attached endpoint as the VRF sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LocalEndpoint {
    /// Output port toward the endpoint.
    pub port: PortId,
    /// The endpoint's micro-segmentation group (destination group in
    /// egress ACL checks).
    pub group: GroupId,
    /// The endpoint's MAC (for ARP answers and L2 flows).
    pub mac: MacAddr,
    /// The endpoint's IPv4 (for reverse indexing).
    pub ipv4: Ipv4Addr,
}

/// Tags an `(vn, ipv4)` key; MAC keys leave the top 16 bits zero.
const V4_TAG: u64 = 1 << 63;

fn mac_key(mac: MacAddr) -> u64 {
    let m = mac.octets();
    u64::from_be_bytes([0, 0, m[0], m[1], m[2], m[3], m[4], m[5]])
}

fn v4_key(vn: VnId, ip: Ipv4Addr) -> u64 {
    V4_TAG | u64::from(vn.raw()) << 32 | u64::from(u32::from(ip))
}

/// The local endpoint table of one edge router.
#[derive(Default, Debug, Clone)]
pub struct VrfTable {
    /// `mac` and `(vn, ipv4)` keys → the VN the record is attached in
    /// and a copy of the record.
    slots: HashMap<u64, (VnId, LocalEndpoint), BuildHasherDefault<KeyHasher>>,
    /// Attached MACs in ascending order: exactly the MAC keys of
    /// `slots`. Gives `iter()` its order; off the per-packet path.
    macs: BTreeSet<MacAddr>,
}

impl VrfTable {
    /// Empty table.
    pub fn new() -> Self {
        VrfTable::default()
    }

    /// Installs an endpoint into `vn` (onboarding step 4 wrote the
    /// `(Overlay IP, GroupId)` association). Replaces the record of an
    /// already attached MAC, whatever VN or IPv4 it had.
    pub fn attach(&mut self, vn: VnId, ep: LocalEndpoint) {
        match self.slots.insert(mac_key(ep.mac), (vn, ep)) {
            Some((old_vn, old)) if (old_vn, old.ipv4) != (vn, ep.ipv4) => {
                self.release_v4(old_vn, old.ipv4, ep.mac);
            }
            Some(_) => {}
            None => {
                self.macs.insert(ep.mac);
            }
        }
        self.slots.insert(v4_key(vn, ep.ipv4), (vn, ep));
    }

    /// Removes the endpoint with `mac`, returning its record.
    pub fn detach(&mut self, mac: MacAddr) -> Option<(VnId, LocalEndpoint)> {
        let (vn, ep) = self.slots.remove(&mac_key(mac))?;
        self.macs.remove(&mac);
        self.release_v4(vn, ep.ipv4, mac);
        Some((vn, ep))
    }

    /// Drops the `(vn, ip)` key if `owner` still holds it (a later
    /// attach of another MAC with the same address took it over).
    fn release_v4(&mut self, vn: VnId, ip: Ipv4Addr, owner: MacAddr) {
        if let Entry::Occupied(slot) = self.slots.entry(v4_key(vn, ip)) {
            if slot.get().1.mac == owner {
                slot.remove();
            }
        }
    }

    /// Looks up a destination EID in `vn` (egress stage 1): one hash
    /// probe, allocation-free. IPv6 EIDs are never attached.
    pub fn lookup(&self, vn: VnId, eid: Eid) -> Option<&LocalEndpoint> {
        let key = match eid {
            Eid::V4(ip) => v4_key(vn, ip),
            Eid::Mac(mac) => mac_key(mac),
            Eid::V6(_) => return None,
        };
        let (at, ep) = self.slots.get(&key)?;
        (*at == vn).then_some(ep)
    }

    /// Finds the attached endpoint by MAC regardless of VN (ingress
    /// classification: the port/MAC tells us who is sending). One hash
    /// probe.
    pub fn classify(&self, mac: MacAddr) -> Option<(VnId, &LocalEndpoint)> {
        self.slots.get(&mac_key(mac)).map(|(vn, ep)| (*vn, ep))
    }

    /// All `(vn, group)` pairs currently attached — the input to SXP
    /// rule-subset computation (deduped).
    pub fn local_bindings(&self) -> Vec<(VnId, GroupId)> {
        let mut v: Vec<(VnId, GroupId)> = self.iter().map(|(vn, ep)| (vn, ep.group)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Bytes the table has reserved, as a lower bound: the hash table's
    /// ([`sda_types::reserved_bytes`]) plus the MAC set.
    pub(crate) fn reserved_bytes(&self) -> usize {
        sda_types::reserved_bytes(&self.slots) + self.macs.len() * std::mem::size_of::<MacAddr>()
    }

    /// Number of attached endpoints (not keys).
    pub fn endpoint_count(&self) -> usize {
        self.macs.len()
    }

    /// True when no endpoints are attached.
    pub fn is_empty(&self) -> bool {
        self.macs.is_empty()
    }

    /// Clears everything (edge reboot).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.macs.clear();
    }

    /// Iterates attached endpoints as `(vn, endpoint)`, in ascending
    /// MAC order.
    pub fn iter(&self) -> impl Iterator<Item = (VnId, &LocalEndpoint)> {
        self.macs.iter().filter_map(|mac| self.classify(*mac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn ep(seed: u32, group: u16) -> LocalEndpoint {
        LocalEndpoint {
            port: PortId(seed as u16),
            group: GroupId(group),
            mac: MacAddr::from_seed(seed),
            ipv4: Ipv4Addr::new(10, 0, (seed >> 8) as u8, seed as u8),
        }
    }

    #[test]
    fn attach_keys_both_eids() {
        let mut t = VrfTable::new();
        let e = ep(1, 5);
        t.attach(vn(1), e);
        assert_eq!(t.lookup(vn(1), Eid::V4(e.ipv4)).unwrap().group, GroupId(5));
        assert_eq!(t.lookup(vn(1), Eid::Mac(e.mac)).unwrap().port, e.port);
        assert_eq!(t.endpoint_count(), 1);
    }

    #[test]
    fn vn_isolation_in_lookup() {
        let mut t = VrfTable::new();
        let e = ep(1, 5);
        t.attach(vn(1), e);
        assert!(t.lookup(vn(2), Eid::V4(e.ipv4)).is_none());
    }

    #[test]
    fn detach_removes_both_keys() {
        let mut t = VrfTable::new();
        let e = ep(1, 5);
        t.attach(vn(1), e);
        let (v, removed) = t.detach(e.mac).unwrap();
        assert_eq!(v, vn(1));
        assert_eq!(removed, e);
        assert!(t.lookup(vn(1), Eid::V4(e.ipv4)).is_none());
        assert!(t.lookup(vn(1), Eid::Mac(e.mac)).is_none());
        assert!(t.detach(e.mac).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn classify_by_mac() {
        let mut t = VrfTable::new();
        t.attach(vn(3), ep(7, 9));
        let (v, e) = t.classify(MacAddr::from_seed(7)).unwrap();
        assert_eq!(v, vn(3));
        assert_eq!(e.group, GroupId(9));
        assert!(t.classify(MacAddr::from_seed(8)).is_none());
    }

    #[test]
    fn local_bindings_dedup() {
        let mut t = VrfTable::new();
        t.attach(vn(1), ep(1, 5));
        t.attach(vn(1), ep(2, 5));
        t.attach(vn(1), ep(3, 6));
        t.attach(vn(2), ep(4, 5));
        assert_eq!(
            t.local_bindings(),
            vec![
                (vn(1), GroupId(5)),
                (vn(1), GroupId(6)),
                (vn(2), GroupId(5))
            ]
        );
    }

    /// Regression: the per-VN tries kept the keys of the record a
    /// re-attach replaced, so the egress stage could deliver to a port
    /// nobody was on.
    #[test]
    fn reattach_with_new_ipv4_drops_the_old_key() {
        let mut t = VrfTable::new();
        let mut e = ep(1, 5);
        let ip1 = e.ipv4;
        t.attach(vn(1), e);
        e.ipv4 = Ipv4Addr::new(10, 0, 9, 9);
        t.attach(vn(1), e);
        assert_eq!(t.endpoint_count(), 1);
        assert!(t.lookup(vn(1), Eid::V4(ip1)).is_none(), "re-leased address");
        assert_eq!(t.lookup(vn(1), Eid::V4(e.ipv4)), Some(&e));
        assert_eq!(t.detach(e.mac), Some((vn(1), e)));
        assert!(t.is_empty());
        assert!(t.lookup(vn(1), Eid::V4(ip1)).is_none());
        assert!(t.lookup(vn(1), Eid::V4(e.ipv4)).is_none());
    }

    #[test]
    fn reattach_in_another_vn_leaves_the_old_vn() {
        let mut t = VrfTable::new();
        let e = ep(1, 5);
        t.attach(vn(1), e);
        t.attach(vn(2), e);
        assert_eq!(t.endpoint_count(), 1);
        assert!(t.lookup(vn(1), Eid::Mac(e.mac)).is_none());
        assert!(t.lookup(vn(1), Eid::V4(e.ipv4)).is_none());
        assert_eq!(t.lookup(vn(2), Eid::Mac(e.mac)), Some(&e));
        assert_eq!(t.lookup(vn(2), Eid::V4(e.ipv4)), Some(&e));
        assert_eq!(t.classify(e.mac), Some((vn(2), &e)));
    }

    #[test]
    fn shared_ipv4_belongs_to_the_last_attach() {
        let mut t = VrfTable::new();
        let a = ep(1, 5);
        let mut b = ep(2, 6);
        b.ipv4 = a.ipv4;
        t.attach(vn(1), a);
        t.attach(vn(1), b);
        assert_eq!(t.lookup(vn(1), Eid::V4(a.ipv4)), Some(&b));
        // The first owner leaving must not take the second one's key.
        t.detach(a.mac);
        assert_eq!(t.lookup(vn(1), Eid::V4(a.ipv4)), Some(&b));
        t.detach(b.mac);
        assert!(t.lookup(vn(1), Eid::V4(a.ipv4)).is_none());
    }

    #[test]
    fn reattach_after_move_updates_port() {
        let mut t = VrfTable::new();
        let mut e = ep(1, 5);
        t.attach(vn(1), e);
        e.port = PortId(99);
        t.attach(vn(1), e);
        assert_eq!(t.endpoint_count(), 1);
        assert_eq!(t.lookup(vn(1), Eid::Mac(e.mac)).unwrap().port, PortId(99));
    }
}
