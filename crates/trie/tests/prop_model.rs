//! Model-based property tests: the Patricia trie must agree with a naive
//! reference implementation (linear scan over a map of rendered keys) on
//! every operation sequence, and its structural invariants must hold
//! throughout.

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
    /// The longest stored prefix of `k` whose value passes `keep`: a
    /// scan, so a rejected deep entry can never hide a shallower one.
    fn longest_match_where(&self, k: &BitStr, keep: impl Fn(u32) -> bool) -> Option<(usize, u32)> {
        let key = k.to_string();
        self.entries
            .iter()
            .filter(|(p, v)| key.starts_with(p.as_str()) && keep(**v))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (p.len(), *v))
    }
    fn longest_match(&self, k: &BitStr) -> Option<(usize, u32)> {
        self.longest_match_where(k, |_| true)
    }
}

/// The filter of the filtered ops: a third of all values are "dead".
fn live(v: u32) -> bool {
    !v.is_multiple_of(3)
}

// Operations decode from raw words, so a failing sequence shrinks by
// halving: bits 0..5 the key length (0..24), 8..32 the key bits, 32..56
// the value, 56.. the operation.

fn key_of(w: u64) -> BitStr {
    BitStr::from_bytes(
        &((w >> 8) as u32).to_be_bytes()[1..],
        (w & 31) as usize % 24,
    )
}

fn value_of(w: u64) -> u32 {
    (w >> 32) as u32 & 0xFF_FFFF
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trie_matches_model(words in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut trie = PatriciaTrie::new();
        let mut model = Model::default();
        for w in words {
            let (key, v) = (key_of(w), value_of(w));
            match (w >> 56) % 8 {
                0 => prop_assert_eq!(trie.insert(&key, v), model.insert(&key, v)),
                1 => prop_assert_eq!(trie.remove(&key), model.remove(&key)),
                2 => prop_assert_eq!(trie.get(&key).copied(), model.get(&key)),
                3 => prop_assert_eq!(
                    trie.longest_match(&key).map(|(l, v)| (l, *v)),
                    model.longest_match(&key)
                ),
                // The filtered descent: a dead entry is skipped, never
                // the live one above it (inside a stride span or not).
                4 => prop_assert_eq!(
                    trie.longest_match_where(&key, |v| live(*v)).map(|(l, v)| (l, *v)),
                    model.longest_match_where(&key, live)
                ),
                // `retain` keeping only values of one parity.
                5 => {
                    let keep_odd = v % 2 == 1;
                    let removed = trie.retain(|_, v| (*v % 2 == 1) == keep_odd);
                    let before = model.entries.len();
                    model.entries.retain(|_, v| (*v % 2 == 1) == keep_odd);
                    prop_assert_eq!(removed, before - model.entries.len());
                }
                // Re-`insert` at the longest stored prefix of the key: a
                // pure value replacement, which must leave the layout
                // (stride tables included) alone.
                6 => {
                    if let Some((l, old)) = model.longest_match(&key) {
                        let stored = key.slice(0, l);
                        let layout = trie.mem_stats();
                        prop_assert_eq!(trie.insert(&stored, v), Some(old));
                        model.insert(&stored, v);
                        prop_assert_eq!(trie.mem_stats(), layout);
                        prop_assert_eq!(
                            trie.longest_match(&key).map(|(l, v)| (l, *v)),
                            Some((l, v))
                        );
                    }
                }
                // DFS re-layout: what gives the ops after it stride
                // tables to meet.
                _ => trie.compact(),
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
