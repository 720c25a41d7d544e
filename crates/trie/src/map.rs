//! Address-family-aware prefix map over the Patricia trie.
//!
//! EIDs come in three families. [`EidTrie`] keeps one inner trie per
//! family so a 32-bit IPv4 key can never alias a 48-bit MAC key, and
//! exposes what the map-cache's covers need: exact insert/remove by
//! [`EidPrefix`] and longest-prefix lookup by [`Eid`].

use sda_types::{Eid, EidKind, EidPrefix, Ipv4Prefix, Ipv6Prefix, MacPrefix};

use crate::bits::BitStr;
use crate::trie::PatriciaTrie;

fn prefix_key(p: &EidPrefix) -> BitStr {
    // Prefix construction already canonicalized (host bits zeroed), so the
    // raw word is valid as-is — no bytes, no heap.
    BitStr::from_raw(p.key_bits(), p.len() as usize)
}

fn eid_key(e: &Eid) -> BitStr {
    BitStr::from_raw(e.key_bits(), e.kind().bit_len() as usize)
}

fn prefix_from_parts(kind: EidKind, key: &BitStr) -> EidPrefix {
    // Reconstruct canonical bytes from the bit string (stack buffer only).
    let mut bytes = [0u8; 16];
    key.write_bytes(&mut bytes);
    let len = key.len() as u8;
    match kind {
        EidKind::V4 => {
            let arr: [u8; 4] = bytes[..4].try_into().unwrap();
            EidPrefix::V4(Ipv4Prefix::new(arr.into(), len).unwrap())
        }
        EidKind::V6 => EidPrefix::V6(Ipv6Prefix::new(bytes.into(), len).unwrap()),
        EidKind::Mac => {
            let arr: [u8; 6] = bytes[..6].try_into().unwrap();
            EidPrefix::Mac(MacPrefix::new(sda_types::MacAddr(arr), len).unwrap())
        }
    }
}

/// A map from [`EidPrefix`] to `V` with longest-prefix lookup by [`Eid`].
#[derive(Clone)]
pub struct EidTrie<V> {
    v4: PatriciaTrie<V>,
    v6: PatriciaTrie<V>,
    mac: PatriciaTrie<V>,
}

impl<V: core::fmt::Debug> core::fmt::Debug for EidTrie<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> Default for EidTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> EidTrie<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        EidTrie {
            v4: PatriciaTrie::new(),
            v6: PatriciaTrie::new(),
            mac: PatriciaTrie::new(),
        }
    }

    fn family(&self, kind: EidKind) -> &PatriciaTrie<V> {
        match kind {
            EidKind::V4 => &self.v4,
            EidKind::V6 => &self.v6,
            EidKind::Mac => &self.mac,
        }
    }

    fn family_mut(&mut self, kind: EidKind) -> &mut PatriciaTrie<V> {
        match kind {
            EidKind::V4 => &mut self.v4,
            EidKind::V6 => &mut self.v6,
            EidKind::Mac => &mut self.mac,
        }
    }

    /// Total entries across all families.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len() + self.mac.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in one family.
    pub fn len_of(&self, kind: EidKind) -> usize {
        self.family(kind).len()
    }

    /// Inserts `value` at `prefix`, returning any previous value.
    pub fn insert(&mut self, prefix: EidPrefix, value: V) -> Option<V> {
        let key = prefix_key(&prefix);
        self.family_mut(prefix.kind()).insert(&key, value)
    }

    /// Exact-match lookup by prefix.
    pub fn get(&self, prefix: &EidPrefix) -> Option<&V> {
        self.family(prefix.kind()).get(&prefix_key(prefix))
    }

    /// Removes the entry at `prefix`, returning its value.
    pub fn remove(&mut self, prefix: &EidPrefix) -> Option<V> {
        let key = prefix_key(prefix);
        self.family_mut(prefix.kind()).remove(&key)
    }

    /// Longest-prefix match for `eid`: the most specific covering prefix
    /// and its value.
    pub fn lookup(&self, eid: &Eid) -> Option<(EidPrefix, &V)> {
        let (len, v) = self.lookup_where(eid, |_| true)?;
        Some((
            prefix_from_parts(eid.kind(), &eid_key(eid).slice(0, len)),
            v,
        ))
    }

    /// Longest-prefix match for `eid`, **skipping entries failing
    /// `keep`** ([`PatriciaTrie::longest_match_where`]): returns
    /// `(matched bit length, &V)` of the most specific covering prefix
    /// whose value satisfies the predicate. Logically dead entries are
    /// treated as absent — structural removal stays with the owner — and
    /// no [`EidPrefix`] is reconstructed per hit.
    pub fn lookup_where<F>(&self, eid: &Eid, keep: F) -> Option<(usize, &V)>
    where
        F: FnMut(&V) -> bool,
    {
        self.family(eid.kind())
            .longest_match_where(&eid_key(eid), keep)
    }

    /// Re-lays every family's arena in DFS preorder and empties its
    /// free-list (see [`PatriciaTrie::compact`]).
    pub fn compact(&mut self) {
        self.v4.compact();
        self.v6.compact();
        self.mac.compact();
    }

    /// Bytes reserved across the three families.
    pub fn mem_stats(&self) -> sda_types::MemStats {
        let mut stats = self.v4.mem_stats();
        stats.merge(&self.v6.mem_stats());
        stats.merge(&self.mac.mem_stats());
        stats
    }

    /// Keeps only entries for which `f` returns true, across all
    /// families, in one traversal per family. Returns how many entries
    /// were removed.
    pub fn retain<F: FnMut(&EidPrefix, &mut V) -> bool>(&mut self, mut f: F) -> usize {
        let mut removed = 0;
        removed += self
            .v4
            .retain(|k, v| f(&prefix_from_parts(EidKind::V4, k), v));
        removed += self
            .v6
            .retain(|k, v| f(&prefix_from_parts(EidKind::V6, k), v));
        removed += self
            .mac
            .retain(|k, v| f(&prefix_from_parts(EidKind::Mac, k), v));
        removed
    }

    /// Iterates all `(prefix, value)` pairs, IPv4 then IPv6 then MAC.
    pub fn iter(&self) -> impl Iterator<Item = (EidPrefix, &V)> {
        let v4 = self
            .v4
            .iter()
            .map(|(k, v)| (prefix_from_parts(EidKind::V4, &k), v));
        let v6 = self
            .v6
            .iter()
            .map(|(k, v)| (prefix_from_parts(EidKind::V6, &k), v));
        let mac = self
            .mac
            .iter()
            .map(|(k, v)| (prefix_from_parts(EidKind::Mac, &k), v));
        v4.chain(v6).chain(mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_types::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn families_do_not_alias() {
        let mut m = EidTrie::new();
        // Same leading bytes, different families.
        let v4: EidPrefix = Ipv4Prefix::host(Ipv4Addr::new(2, 0, 0, 1)).into();
        let mac: EidPrefix = MacPrefix::host(MacAddr([2, 0, 0, 1, 0, 0])).into();
        m.insert(v4, "v4");
        m.insert(mac, "mac");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&v4), Some(&"v4"));
        assert_eq!(m.get(&mac), Some(&"mac"));
        assert_eq!(m.len_of(EidKind::V4), 1);
        assert_eq!(m.len_of(EidKind::Mac), 1);
        assert_eq!(m.len_of(EidKind::V6), 0);
    }

    #[test]
    fn lookup_prefers_host_route_over_subnet() {
        let mut m = EidTrie::new();
        let subnet: EidPrefix = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16)
            .unwrap()
            .into();
        let host: EidPrefix = Ipv4Prefix::host(Ipv4Addr::new(10, 1, 2, 3)).into();
        m.insert(subnet, "subnet");
        m.insert(host, "host");
        let (p, v) = m.lookup(&Eid::V4(Ipv4Addr::new(10, 1, 2, 3))).unwrap();
        assert_eq!(*v, "host");
        assert_eq!(p, host);
        let (p, v) = m.lookup(&Eid::V4(Ipv4Addr::new(10, 1, 9, 9))).unwrap();
        assert_eq!(*v, "subnet");
        assert_eq!(p, subnet);
        assert!(m.lookup(&Eid::V4(Ipv4Addr::new(10, 2, 0, 1))).is_none());
    }

    #[test]
    fn remove_then_lookup_falls_back() {
        let mut m = EidTrie::new();
        let subnet: EidPrefix = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16)
            .unwrap()
            .into();
        let host: EidPrefix = Ipv4Prefix::host(Ipv4Addr::new(10, 1, 2, 3)).into();
        m.insert(subnet, "subnet");
        m.insert(host, "host");
        assert_eq!(m.remove(&host), Some("host"));
        let (_, v) = m.lookup(&Eid::V4(Ipv4Addr::new(10, 1, 2, 3))).unwrap();
        assert_eq!(*v, "subnet");
    }

    #[test]
    fn iter_reconstructs_prefixes() {
        let mut m = EidTrie::new();
        let entries: Vec<EidPrefix> = vec![
            Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8)
                .unwrap()
                .into(),
            Ipv4Prefix::host(Ipv4Addr::new(10, 1, 2, 3)).into(),
            MacPrefix::host(MacAddr::from_seed(1)).into(),
        ];
        for (i, p) in entries.iter().enumerate() {
            m.insert(*p, i);
        }
        let mut got: Vec<EidPrefix> = m.iter().map(|(p, _)| p).collect();
        got.sort();
        let mut want = entries.clone();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn compact_preserves_lookups_across_families() {
        let mut m = EidTrie::new();
        let subnet: EidPrefix = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16)
            .unwrap()
            .into();
        let host: EidPrefix = Ipv4Prefix::host(Ipv4Addr::new(10, 1, 2, 3)).into();
        let mac: EidPrefix = MacPrefix::host(MacAddr::from_seed(3)).into();
        m.insert(subnet, 1);
        m.insert(host, 2);
        m.insert(mac, 3);
        let laid_out = {
            let mut fresh = m.clone();
            fresh.compact();
            fresh.mem_stats()
        };
        m.remove(&subnet);
        m.insert(subnet, 1);
        m.compact();
        assert_eq!(m.mem_stats(), laid_out, "compaction leaves no free slot");
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.lookup(&Eid::V4(Ipv4Addr::new(10, 1, 2, 3)))
                .map(|(p, v)| (p, *v)),
            Some((host, 2))
        );
        assert_eq!(
            m.lookup(&Eid::V4(Ipv4Addr::new(10, 1, 9, 9)))
                .map(|(p, v)| (p, *v)),
            Some((subnet, 1))
        );
        assert_eq!(
            m.lookup(&Eid::Mac(MacAddr::from_seed(3))).map(|(_, v)| *v),
            Some(3)
        );
    }

    #[test]
    fn shared_lookup_filters_dead_entries() {
        let mut m = EidTrie::new();
        let subnet: EidPrefix = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16)
            .unwrap()
            .into();
        let host: EidPrefix = Ipv4Prefix::host(Ipv4Addr::new(10, 1, 2, 3)).into();
        m.insert(subnet, 1u32);
        m.insert(host, 2u32);
        let probe = Eid::V4(Ipv4Addr::new(10, 1, 2, 3));
        // Unfiltered: host route wins, length 32.
        assert_eq!(m.lookup_where(&probe, |_| true), Some((32, &2)));
        // Dead host route: the live /16 answers instead.
        assert_eq!(m.lookup_where(&probe, |v| *v != 2), Some((16, &1)));
        assert_eq!(m.lookup_where(&probe, |_| false), None);
    }

    #[test]
    fn mac_lookup_exact_only_route() {
        let mut m = EidTrie::new();
        let mac = MacAddr::from_seed(77);
        m.insert(MacPrefix::host(mac).into(), 9);
        let (p, v) = m.lookup(&Eid::Mac(mac)).unwrap();
        assert!(p.is_host());
        assert_eq!(*v, 9);
        assert!(m.lookup(&Eid::Mac(MacAddr::from_seed(78))).is_none());
    }
}
