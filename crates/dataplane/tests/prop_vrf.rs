//! Model-based property test for the VRF hash table: on every operation
//! sequence [`VrfTable`] must agree with the obvious ordered-map model —
//! `(vn, eid) → record` plus `mac → vn` — which is what the table was
//! before it became one exact-match hash map, with the re-attach fix:
//! a re-attach replaces the record and drops the keys it no longer owns.
//!
//! Operations decode from raw words over a deliberately small domain
//! (6 MACs, 5 addresses, 3 VNs), so re-attaches with a new IPv4, a new
//! VN or a new port, and two MACs claiming one address, happen in
//! nearly every case — and a failing sequence shrinks by halving.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_dataplane::{LocalEndpoint, VrfTable};
use sda_types::{Eid, GroupId, MacAddr, PortId, VnId};

const MACS: u32 = 6;
const IPS: u32 = 5;
const VNS: u32 = 3;

fn vn(i: u32) -> VnId {
    VnId::new(1 + i % VNS).unwrap()
}

fn mac(i: u32) -> MacAddr {
    MacAddr::from_seed(i % MACS)
}

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, (i % IPS) as u8)
}

#[derive(Default)]
struct Model {
    by_eid: BTreeMap<(VnId, Eid), LocalEndpoint>,
    by_mac: BTreeMap<MacAddr, VnId>,
}

impl Model {
    /// Removes `mac`'s keys from `vn`: its MAC key, and its IPv4 key
    /// unless another endpoint has taken that address over since.
    fn release(&mut self, vn: VnId, mac: MacAddr) -> Option<LocalEndpoint> {
        let ep = self.by_eid.remove(&(vn, Eid::Mac(mac)))?;
        let v4 = (vn, Eid::V4(ep.ipv4));
        if self.by_eid.get(&v4).is_some_and(|e| e.mac == mac) {
            self.by_eid.remove(&v4);
        }
        Some(ep)
    }

    fn attach(&mut self, vn: VnId, ep: LocalEndpoint) {
        if let Some(old_vn) = self.by_mac.insert(ep.mac, vn) {
            self.release(old_vn, ep.mac);
        }
        self.by_eid.insert((vn, Eid::V4(ep.ipv4)), ep);
        self.by_eid.insert((vn, Eid::Mac(ep.mac)), ep);
    }

    fn detach(&mut self, mac: MacAddr) -> Option<(VnId, LocalEndpoint)> {
        let vn = self.by_mac.remove(&mac)?;
        Some((vn, self.release(vn, mac)?))
    }

    fn classify(&self, mac: MacAddr) -> Option<(VnId, &LocalEndpoint)> {
        let vn = *self.by_mac.get(&mac)?;
        Some((vn, &self.by_eid[&(vn, Eid::Mac(mac))]))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn vrf_matches_ordered_map_model(words in proptest::collection::vec(0u32..u32::MAX, 1..120)) {
        let mut table = VrfTable::new();
        let mut model = Model::default();
        for w in words {
            match w % 16 {
                // attach / re-attach
                0..=9 => {
                    let ep = LocalEndpoint {
                        port: PortId((w >> 20) as u16 % 4),
                        group: GroupId((w >> 24) as u16 % 3),
                        mac: mac(w >> 4),
                        ipv4: ip(w >> 8),
                    };
                    table.attach(vn(w >> 12), ep);
                    model.attach(vn(w >> 12), ep);
                }
                10..=14 => prop_assert_eq!(table.detach(mac(w >> 4)), model.detach(mac(w >> 4))),
                _ => {
                    table.clear();
                    model = Model::default();
                }
            }

            // Every observable, over the whole key domain (hits and
            // misses alike), after every operation.
            prop_assert_eq!(table.endpoint_count(), model.by_mac.len());
            prop_assert_eq!(table.is_empty(), model.by_mac.is_empty());
            let got: Vec<(VnId, LocalEndpoint)> = table.iter().map(|(v, e)| (v, *e)).collect();
            let want: Vec<(VnId, LocalEndpoint)> = model
                .by_mac
                .keys()
                .map(|m| model.classify(*m).map(|(v, e)| (v, *e)).unwrap())
                .collect();
            prop_assert_eq!(got, want, "iter() is the model's ascending-MAC walk");
            let mut bindings: Vec<(VnId, GroupId)> =
                model.by_mac.iter().map(|(m, v)| (*v, model.by_eid[&(*v, Eid::Mac(*m))].group)).collect();
            bindings.sort_unstable();
            bindings.dedup();
            prop_assert_eq!(table.local_bindings(), bindings);
            for m in 0..=MACS {
                // `MACS` itself is never attached: a guaranteed miss.
                let m = MacAddr::from_seed(m);
                prop_assert_eq!(table.classify(m), model.classify(m));
            }
            for v in 0..=VNS {
                let v = VnId::new(1 + v).unwrap();
                let eids = (0..=MACS)
                    .map(|m| Eid::Mac(MacAddr::from_seed(m)))
                    .chain((0..=IPS).map(|i| Eid::V4(Ipv4Addr::new(10, 0, 0, i as u8))))
                    .chain([Eid::V6("2001:db8::1".parse().unwrap())]);
                for eid in eids {
                    prop_assert_eq!(table.lookup(v, eid), model.by_eid.get(&(v, eid)), "{} {:?}", v, eid);
                }
            }
        }
    }
}
