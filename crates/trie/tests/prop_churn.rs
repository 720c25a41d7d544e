//! Churn property test for the arena trie: interleaved batches of
//! insert / remove / retain / compact against a `BTreeMap` model,
//! asserting `longest_match` and `iter` agree after **every** batch.
//!
//! `prop_model.rs` already checks per-operation agreement; this file
//! targets what the arena layout specifically puts at risk — free-list
//! reuse handing out stale slots, opportunistic compaction firing
//! mid-churn, and explicit `compact()` calls at arbitrary points must
//! all leave the logical contents untouched.
//!
//! The dense batch variants deliberately cross the stride boundary:
//! `InsertDense` populates every extension of a short base prefix (a
//! width-7+ block holds >= 128 span ends, promoting an 8-bit fanout
//! table at the next `compact()`), and `RemoveDense` empties it again
//! (the next `compact()` demotes back to plain Patricia), so the
//! promotion/demotion seam and the insert/remove table-invalidation
//! paths are all exercised against the model. `ReplaceAll` re-inserts
//! every stored key with a new value and no re-layout: whatever tables
//! the batches before it left standing must all survive it and answer
//! with the new values.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sda_trie::{BitStr, PatriciaTrie};

/// One batch of churn. Each variant mutates (or re-lays) the trie and
/// the model in lockstep; agreement is asserted after every batch.
#[derive(Clone, Debug)]
enum Batch {
    /// Insert all keys (values derived from the batch seed).
    Insert(Vec<Vec<bool>>, u32),
    /// Remove all keys (hits and misses both exercised).
    Remove(Vec<Vec<bool>>),
    /// Retain only entries whose value parity matches.
    RetainParity(bool),
    /// Explicit DFS re-layout.
    Compact,
    /// Insert every `width`-bit extension of `base` (dense block:
    /// promotion fodder for the stride layer).
    InsertDense {
        base: Vec<bool>,
        width: usize,
        seed: u32,
    },
    /// Remove every `width`-bit extension of `base` (demotion fodder).
    RemoveDense { base: Vec<bool>, width: usize },
    /// Re-insert every stored key with a new value (derived from the
    /// seed): pure replacements, which must leave the layout alone.
    ReplaceAll(u32),
}

fn arb_key() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 0..24)
}

/// Dense-block parameters: a short base so blocks overlap across
/// batches, and widths up to 8 so both the 4-bit (>= 8 ends within 4)
/// and 8-bit (>= 128 ends within 8) promotion thresholds trip.
fn arb_dense() -> impl Strategy<Value = (Vec<bool>, usize)> {
    (proptest::collection::vec(any::<bool>(), 0..6), 1usize..=8)
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    prop_oneof![
        (proptest::collection::vec(arb_key(), 1..40), any::<u32>())
            .prop_map(|(ks, seed)| Batch::Insert(ks, seed)),
        proptest::collection::vec(arb_key(), 1..40).prop_map(Batch::Remove),
        any::<bool>().prop_map(Batch::RetainParity),
        Just(Batch::Compact),
        (arb_dense(), any::<u32>()).prop_map(|((base, width), seed)| Batch::InsertDense {
            base,
            width,
            seed
        }),
        arb_dense().prop_map(|(base, width)| Batch::RemoveDense { base, width }),
        any::<u32>().prop_map(Batch::ReplaceAll),
    ]
}

/// All `width`-bit extensions of `base`, as full keys.
fn dense_block(base: &[bool], width: usize) -> Vec<Vec<bool>> {
    (0..1u32 << width)
        .map(|ext| {
            let mut k = base.to_vec();
            for b in (0..width).rev() {
                k.push((ext >> b) & 1 == 1);
            }
            k
        })
        .collect()
}

fn to_bits(k: &[bool]) -> BitStr {
    let mut s = BitStr::empty();
    for &b in k {
        s.push(b);
    }
    s
}

/// The model keyed by the key's bit rendering ("" = empty key), which
/// makes longest-prefix-of a `starts_with` scan.
fn model_lpm(model: &BTreeMap<String, u32>, key: &str) -> Option<(usize, u32)> {
    model
        .iter()
        .filter(|(p, _)| key.starts_with(p.as_str()))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (p.len(), *v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn churn_agrees_with_model(
        batches in proptest::collection::vec(arb_batch(), 1..24),
        probes in proptest::collection::vec(arb_key(), 8),
    ) {
        let mut trie = PatriciaTrie::new();
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        for (bi, batch) in batches.iter().enumerate() {
            match batch {
                Batch::Insert(keys, seed) => {
                    for (ki, k) in keys.iter().enumerate() {
                        let v = seed.wrapping_add(ki as u32);
                        let key = to_bits(k);
                        prop_assert_eq!(
                            trie.insert(&key, v),
                            model.insert(key.to_string(), v),
                            "insert disagreement in batch {}", bi
                        );
                    }
                }
                Batch::Remove(keys) => {
                    for k in keys {
                        let key = to_bits(k);
                        prop_assert_eq!(
                            trie.remove(&key),
                            model.remove(&key.to_string()),
                            "remove disagreement in batch {}", bi
                        );
                    }
                }
                Batch::RetainParity(keep_odd) => {
                    let removed = trie.retain(|_, v| (*v % 2 == 1) == *keep_odd);
                    let before = model.len();
                    model.retain(|_, v| (*v % 2 == 1) == *keep_odd);
                    prop_assert_eq!(removed, before - model.len());
                }
                Batch::Compact => trie.compact(),
                Batch::InsertDense { base, width, seed } => {
                    for (ki, k) in dense_block(base, *width).iter().enumerate() {
                        let v = seed.wrapping_add(ki as u32);
                        let key = to_bits(k);
                        prop_assert_eq!(
                            trie.insert(&key, v),
                            model.insert(key.to_string(), v),
                            "dense insert disagreement in batch {}", bi
                        );
                    }
                    // Promote immediately: the dense block is in place,
                    // so this compact is what builds the stride table
                    // the following batches then churn against.
                    trie.compact();
                }
                Batch::RemoveDense { base, width } => {
                    for k in dense_block(base, *width) {
                        let key = to_bits(&k);
                        prop_assert_eq!(
                            trie.remove(&key),
                            model.remove(&key.to_string()),
                            "dense remove disagreement in batch {}", bi
                        );
                    }
                    // Demote: with the block gone, occupancy falls back
                    // under the promotion thresholds.
                    trie.compact();
                }
                Batch::ReplaceAll(seed) => {
                    let layout = trie.mem_stats();
                    for (ki, (k, v)) in model.iter_mut().enumerate() {
                        let key = to_bits(&k.chars().map(|c| c == '1').collect::<Vec<_>>());
                        let new = seed.wrapping_add(ki as u32);
                        prop_assert_eq!(
                            trie.insert(&key, new),
                            Some(*v),
                            "replace disagreement in batch {}", bi
                        );
                        *v = new;
                    }
                    prop_assert_eq!(
                        trie.mem_stats(), layout,
                        "replacements moved the layout in batch {}", bi
                    );
                }
            }

            // After every batch: size, LPM on probe keys, and full
            // iteration all agree with the model.
            prop_assert_eq!(trie.len(), model.len(), "len drift in batch {}", bi);
            for p in &probes {
                let key = to_bits(p);
                prop_assert_eq!(
                    trie.longest_match(&key).map(|(l, v)| (l, *v)),
                    model_lpm(&model, &key.to_string()),
                    "LPM disagreement in batch {}", bi
                );
            }
            let mut got: Vec<(String, u32)> =
                trie.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            got.sort();
            let want: Vec<(String, u32)> =
                model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            prop_assert_eq!(got, want, "iter disagreement in batch {}", bi);
        }

        // Cool-down: a final compact must be a logical no-op, and the
        // arena must hold exactly the live structure (no stranded
        // free slots).
        trie.compact();
        let stats = trie.mem_stats();
        prop_assert_eq!(stats.free_list_len, 0);
        prop_assert_eq!(stats.arena_len, stats.live_nodes);
        prop_assert!(
            stats.stride_filled <= stats.stride_slots,
            "stride accounting inconsistent: {} filled > {} slots",
            stats.stride_filled, stats.stride_slots
        );
        let mut got: Vec<(String, u32)> =
            trie.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        got.sort();
        let want: Vec<(String, u32)> =
            model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(got, want, "final compact changed contents");
    }
}
