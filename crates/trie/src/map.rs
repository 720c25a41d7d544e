//! Address-family-aware prefix map over the Patricia trie.
//!
//! The routing server stores IPv4, IPv6 and MAC EIDs. [`EidTrie`] keeps
//! one inner trie per family so a 32-bit IPv4 key can never alias a
//! 48-bit MAC key, and exposes the operations the map-server needs:
//! exact insert/remove by [`EidPrefix`] and longest-prefix lookup by
//! [`Eid`].

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

/// Compacts every trie of a keyed collection (the shared body of the
/// per-VN bulk-load hooks: map-cache, mapping DB).
pub fn compact_each<'a, V: 'a>(tries: impl IntoIterator<Item = &'a mut EidTrie<V>>) {
    for trie in tries {
        trie.compact();
    }
}

/// Aggregates [`EidTrie::mem_stats`] across a keyed collection (counts
/// add, depth histograms add element-wise).
pub fn merged_mem_stats<'a, V: 'a>(
    tries: impl IntoIterator<Item = &'a EidTrie<V>>,
) -> crate::trie::MemStats {
    let mut stats = crate::trie::MemStats::default();
    for trie in tries {
        stats.merge(&trie.mem_stats());
    }
    stats
}

/// One same-family run of [`EidTrie::lookup_each_where`] through the
/// `L`-lane lockstep walk, `L` keys at a time; `base` is the run's
/// offset in the caller's batch.
fn lockstep_run<const L: usize, V, P, F>(
    trie: &PatriciaTrie<V>,
    run: &[Eid],
    base: usize,
    keep: &mut P,
    f: &mut F,
) where
    P: FnMut(&V) -> bool,
    F: FnMut(usize, Option<(usize, &V)>),
{
    let mut keys = [BitStr::empty(); L];
    for (c, chunk) in run.chunks(L).enumerate() {
        for (key, eid) in keys.iter_mut().zip(chunk) {
            *key = eid_key(eid);
        }
        trie.longest_match_each_where_lanes::<L, _, _>(
            &keys[..chunk.len()],
            &mut *keep,
            |j, res| f(base + c * L + j, res),
        );
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
        let key = eid_key(eid);
        let (len, v) = self.family(eid.kind()).longest_match(&key)?;
        let pk = key.slice(0, len);
        Some((prefix_from_parts(eid.kind(), &pk), v))
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

    /// Batched [`EidTrie::lookup_where`]: calls `f(i, result)` once per
    /// EID, in order. This is the data plane's batch entry point:
    /// same-family runs resolve the inner trie once, not per packet, and
    /// no [`EidPrefix`] is reconstructed per hit. Allocation-free: keys
    /// stage through a stack buffer.
    ///
    /// A run costs what its keys cost: a one-key run (a forwarding call
    /// carrying a single packet) takes the scalar filtered descent —
    /// there is nothing to interleave with — and a longer run goes
    /// through the interleaved lockstep walk with the smallest lane set
    /// that holds it, so the staging arrays a call initialises are sized
    /// by its run and not by [`crate::trie::DEFAULT_LANES`].
    pub fn lookup_each_where<P, F>(&self, eids: &[Eid], mut keep: P, mut f: F)
    where
        P: FnMut(&V) -> bool,
        F: FnMut(usize, Option<(usize, &V)>),
    {
        let mut start = 0;
        while start < eids.len() {
            // One same-family run.
            let kind = eids[start].kind();
            let mut end = start + 1;
            while end < eids.len() && eids[end].kind() == kind {
                end += 1;
            }
            let trie = self.family(kind);
            let run = &eids[start..end];
            match run.len() {
                1 => f(
                    start,
                    trie.longest_match_where(&eid_key(&run[0]), &mut keep),
                ),
                2..=8 => lockstep_run::<8, _, _, _>(trie, run, start, &mut keep, &mut f),
                9..=32 => lockstep_run::<32, _, _, _>(trie, run, start, &mut keep, &mut f),
                _ => lockstep_run::<{ crate::trie::DEFAULT_LANES }, _, _, _>(
                    trie, run, start, &mut keep, &mut f,
                ),
            }
            start = end;
        }
    }

    /// Re-lays every family's arena in DFS preorder (see
    /// [`PatriciaTrie::compact`]). Call once a bulk load settles — the
    /// map-cache and RIB population paths do — so subsequent descents
    /// walk nearly-sequential memory.
    pub fn compact(&mut self) {
        self.v4.compact();
        self.v6.compact();
        self.mac.compact();
    }

    /// Aggregated arena diagnostics across the three families (counts
    /// add, depth histograms add element-wise).
    pub fn mem_stats(&self) -> crate::trie::MemStats {
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
        m.compact();
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
        let stats = m.mem_stats();
        assert_eq!(stats.free_list_len, 0);
        // Three family roots + live structural/entry nodes.
        assert!(stats.live_nodes >= 3 + 3);
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

        // The batched flavor visits in order and agrees.
        let eids = [
            probe,
            Eid::V4(Ipv4Addr::new(10, 1, 9, 9)),
            Eid::V4(Ipv4Addr::new(192, 0, 2, 1)),
            Eid::Mac(MacAddr::from_seed(5)),
        ];
        let mut got = Vec::new();
        m.lookup_each_where(
            &eids,
            |v| *v != 2,
            |i, res| got.push((i, res.map(|(len, v)| (len, *v)))),
        );
        let want: Vec<_> = eids
            .iter()
            .enumerate()
            .map(|(i, e)| (i, m.lookup_where(e, |v| *v != 2).map(|(len, v)| (len, *v))))
            .collect();
        assert_eq!(got, want);
    }

    /// The run-length dispatch (scalar, 8, 32, 64 lanes, several chunks)
    /// must hand `f` the caller's batch index whatever path a run took.
    #[test]
    fn lookup_each_where_indexes_every_run_shape() {
        let mut m = EidTrie::new();
        for i in 0..40u32 {
            m.insert(Ipv4Prefix::host(Ipv4Addr::from(0x0A00_0000 | i)).into(), i);
            m.insert(MacPrefix::host(MacAddr::from_seed(i)).into(), 100 + i);
        }
        m.compact();
        // 150 keys: V4 runs of 1, 5, 20 and 70 (64 + a 6-key chunk), MAC
        // keys between them, misses (odd multiples of 3) throughout.
        let eids: Vec<Eid> = (0..150u32)
            .map(|i| {
                let k = if i % 3 == 0 && i % 2 == 1 {
                    1000 + i
                } else {
                    i % 40
                };
                match i {
                    1 | 10..=14 | 30..=49 | 80.. => Eid::V4(Ipv4Addr::from(0x0A00_0000 | k)),
                    _ => Eid::Mac(MacAddr::from_seed(k)),
                }
            })
            .collect();
        for n in 1..=eids.len() {
            let mut got = Vec::new();
            m.lookup_each_where(
                &eids[..n],
                |v| v % 7 != 0,
                |i, res| got.push((i, res.map(|(len, v)| (len, *v)))),
            );
            let want: Vec<_> = eids[..n]
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let res = m.lookup_where(e, |v| v % 7 != 0);
                    (i, res.map(|(len, v)| (len, *v)))
                })
                .collect();
            assert_eq!(got, want, "batch of {n}");
        }
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
