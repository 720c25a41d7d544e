//! Model-based property tests: the Patricia trie must agree with a naive
//! reference implementation (linear scan over a `Vec`) on every operation
//! sequence, and its structural invariants must hold throughout.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_trie::{BitStr, EidTrie, PatriciaTrie};
use sda_types::{Eid, EidPrefix, Ipv4Prefix};

/// Naive reference: HashMap keyed by the bit-string rendering.
#[derive(Default)]
struct Model {
    entries: HashMap<String, u32>,
}

impl Model {
    fn insert(&mut self, k: &BitStr, v: u32) -> Option<u32> {
        self.entries.insert(k.to_string(), v)
    }
    fn get(&self, k: &BitStr) -> Option<u32> {
        self.entries.get(&k.to_string()).copied()
    }
    fn remove(&mut self, k: &BitStr) -> Option<u32> {
        self.entries.remove(&k.to_string())
    }
    fn longest_match(&self, k: &BitStr) -> Option<(usize, u32)> {
        let key = k.to_string();
        self.entries
            .iter()
            .filter(|(p, _)| key.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (p.len(), *v))
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<bool>, u32),
    Remove(Vec<bool>),
    Get(Vec<bool>),
    Lpm(Vec<bool>),
    /// `longest_match_mut` + overwrite the matched value.
    LpmMutSet(Vec<bool>, u32),
    /// `retain` keeping only values with the given parity.
    RetainParity(bool),
    /// Re-`insert` at the longest stored prefix of the key: a pure value
    /// replacement, which must leave the layout (stride tables included)
    /// alone.
    Replace(Vec<bool>, u32),
    /// DFS re-layout: what gives the ops after it stride tables to meet.
    Compact,
}

fn arb_key() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 0..24)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Remove),
        arb_key().prop_map(Op::Get),
        arb_key().prop_map(Op::Lpm),
        (arb_key(), any::<u32>()).prop_map(|(k, v)| Op::LpmMutSet(k, v)),
        any::<bool>().prop_map(Op::RetainParity),
        (arb_key(), any::<u32>()).prop_map(|(k, v)| Op::Replace(k, v)),
        Just(Op::Compact),
    ]
}

fn to_bits(k: &[bool]) -> BitStr {
    let mut s = BitStr::empty();
    for &b in k {
        s.push(b);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trie_matches_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut trie = PatriciaTrie::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let key = to_bits(k);
                    prop_assert_eq!(trie.insert(&key, *v), model.insert(&key, *v));
                }
                Op::Remove(k) => {
                    let key = to_bits(k);
                    prop_assert_eq!(trie.remove(&key), model.remove(&key));
                }
                Op::Get(k) => {
                    let key = to_bits(k);
                    prop_assert_eq!(trie.get(&key).copied(), model.get(&key));
                }
                Op::Lpm(k) => {
                    let key = to_bits(k);
                    prop_assert_eq!(
                        trie.longest_match(&key).map(|(l, v)| (l, *v)),
                        model.longest_match(&key)
                    );
                }
                Op::LpmMutSet(k, new_v) => {
                    let key = to_bits(k);
                    // The mutable match must find exactly what the
                    // immutable one does, and writes through it must land.
                    let got = trie.longest_match_mut(&key).map(|(l, v)| {
                        let old = *v;
                        *v = *new_v;
                        (l, old)
                    });
                    let want = model.longest_match(&key);
                    prop_assert_eq!(got, want);
                    if let Some((l, _)) = want {
                        let matched: String = key.to_string()[..l].to_string();
                        model.entries.insert(matched.clone(), *new_v);
                        let matched_bits = to_bits(
                            &matched.chars().map(|c| c == '1').collect::<Vec<_>>(),
                        );
                        prop_assert_eq!(trie.get(&matched_bits), Some(new_v));
                    }
                }
                Op::RetainParity(keep_odd) => {
                    let removed =
                        trie.retain(|_, v| (*v % 2 == 1) == *keep_odd);
                    let before = model.entries.len();
                    model
                        .entries
                        .retain(|_, v| (*v % 2 == 1) == *keep_odd);
                    prop_assert_eq!(removed, before - model.entries.len());
                }
                Op::Replace(k, new_v) => {
                    let key = to_bits(k);
                    if let Some((l, old)) = model.longest_match(&key) {
                        let stored = key.slice(0, l);
                        let layout = trie.mem_stats();
                        prop_assert_eq!(trie.insert(&stored, *new_v), Some(old));
                        model.insert(&stored, *new_v);
                        prop_assert_eq!(trie.mem_stats(), layout);
                        prop_assert_eq!(
                            trie.longest_match(&key).map(|(l, v)| (l, *v)),
                            Some((l, *new_v))
                        );
                    }
                }
                Op::Compact => trie.compact(),
            }
            prop_assert_eq!(trie.len(), model.entries.len());
        }
        // Final iteration agreement.
        let mut got: Vec<(String, u32)> =
            trie.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        got.sort();
        let mut want: Vec<(String, u32)> =
            model.entries.iter().map(|(k, v)| (k.clone(), *v)).collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Depth stays bounded by the key width no matter the workload — the
    /// Fig. 7 "flat latency" property in structural form.
    #[test]
    fn depth_bounded_by_width(keys in proptest::collection::vec(any::<u32>(), 1..500)) {
        let mut trie = PatriciaTrie::new();
        for k in &keys {
            let bytes = k.to_be_bytes();
            trie.insert(&BitStr::from_bytes(&bytes, 32), *k);
        }
        prop_assert!(trie.max_depth() <= 32);
    }

    /// EidTrie LPM agrees with a linear scan over `EidPrefix::contains`.
    #[test]
    fn eid_trie_lookup_matches_contains_scan(
        prefixes in proptest::collection::vec((any::<u32>(), 8u8..=32), 1..64),
        probe in any::<u32>(),
    ) {
        let mut m = EidTrie::new();
        let mut list: Vec<(EidPrefix, usize)> = Vec::new();
        for (i, (addr, len)) in prefixes.iter().enumerate() {
            let p: EidPrefix =
                Ipv4Prefix::new(Ipv4Addr::from(*addr), *len).unwrap().into();
            m.insert(p, i);
            // Later inserts of the same canonical prefix overwrite.
            list.retain(|(q, _)| *q != p);
            list.push((p, i));
        }
        let eid = Eid::V4(Ipv4Addr::from(probe));
        let expect = list
            .iter()
            .filter(|(p, _)| p.contains(eid))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (*p, *v));
        let got = m.lookup(&eid).map(|(p, v)| (p, *v));
        prop_assert_eq!(got, expect);
    }

    /// `retain(|..| false)` is a full clear: no structural nodes survive,
    /// and the removed count equals the former length.
    #[test]
    fn retain_nothing_restores_empty(keys in proptest::collection::hash_set(any::<u32>(), 1..200)) {
        let mut trie = PatriciaTrie::new();
        for k in &keys {
            trie.insert(&BitStr::from_bytes(&k.to_be_bytes(), 32), *k);
        }
        let removed = trie.retain(|_, _| false);
        prop_assert_eq!(removed, keys.len());
        prop_assert!(trie.is_empty());
        prop_assert_eq!(trie.iter().count(), 0);
        prop_assert_eq!(trie.max_depth(), 0);
    }

    /// Insert-then-remove of a disjoint batch restores emptiness (no leaks
    /// of structural nodes visible through iteration or len).
    #[test]
    fn insert_remove_all_restores_empty(keys in proptest::collection::hash_set(any::<u32>(), 1..200)) {
        let mut trie = PatriciaTrie::new();
        for k in &keys {
            trie.insert(&BitStr::from_bytes(&k.to_be_bytes(), 32), *k);
        }
        prop_assert_eq!(trie.len(), keys.len());
        for k in &keys {
            prop_assert_eq!(trie.remove(&BitStr::from_bytes(&k.to_be_bytes(), 32)), Some(*k));
        }
        prop_assert!(trie.is_empty());
        prop_assert_eq!(trie.iter().count(), 0);
        prop_assert_eq!(trie.max_depth(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The interleaved lockstep batch walk must agree with the
    /// sequential `longest_match` on every key — including batches
    /// larger than one 32-lane chunk, duplicate keys in one batch, and
    /// writes through the returned mutable references.
    #[test]
    fn batch_walk_matches_sequential(
        inserts in proptest::collection::vec((arb_key(), any::<u32>()), 1..120),
        queries in proptest::collection::vec(arb_key(), 1..90),
    ) {
        let mut trie = PatriciaTrie::new();
        for (k, v) in &inserts {
            trie.insert(&to_bits(k), *v);
        }
        let keys: Vec<BitStr> = queries.iter().map(|k| to_bits(k)).collect();
        let want: Vec<Option<(usize, u32)>> = keys
            .iter()
            .map(|k| trie.longest_match(k).map(|(l, v)| (l, *v)))
            .collect();

        let mut got: Vec<Option<(usize, u32)>> = vec![None; keys.len()];
        trie.longest_match_mut_each(&keys, |i, res| {
            got[i] = res.map(|(l, v)| (l, *v));
        });
        prop_assert_eq!(&got, &want);

        // Writes through the batch walk land in place (last write wins
        // for duplicate keys, same as sequential mutation would).
        trie.longest_match_mut_each(&keys, |i, res| {
            if let Some((_, v)) = res {
                *v = i as u32 + 1_000_000;
            }
        });
        let mut last_writer = std::collections::HashMap::new();
        for (i, w) in want.iter().enumerate() {
            if let Some((len, _)) = w {
                last_writer.insert(keys[i].slice(0, *len), i as u32 + 1_000_000);
            }
        }
        for (key, val) in &last_writer {
            prop_assert_eq!(trie.get(key), Some(val));
        }
    }
}
