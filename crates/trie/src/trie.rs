//! The path-compressed binary radix (Patricia) trie.
//!
//! **What it is.** A bit-keyed longest-prefix table (an [`EidTrie`]
//! holds three, one per address family). Lookup cost is O(key bits),
//! independent of the number of stored entries — the property §4.1
//! credits for Fig. 7a's flat curve.
//!
//! **What it is not.**
//!
//! * Not a FIB: the map-cache, the routing server's registry and the
//!   VRF hold no trie (see the crate docs for who still builds one).
//! * Not a multibit structure: every hop consumes one label and costs
//!   one dependent load; there are no stride tables and no prefetch.
//! * Not ordered by key: [`PatriciaTrie::iter`] walks depth-first,
//!   0-subtree before 1-subtree.
//!
//! **Trusted inputs.** Keys are canonical [`BitStr`]s of at most 128
//! bits, built by this crate or its callers from prefixes whose host
//! bits are already zeroed; every bit string is a valid key.
//!
//! **Panics:** none, short of an arena of 2³² − 1 slots.
//!
//! ## Structure
//!
//! Every node carries a *label* (the bits between its parent and
//! itself), an optional value, and up to two children indexed by the
//! first bit of their labels. All operations keep two invariants:
//!
//! 1. A child's label is never empty and starts with the bit it is
//!    indexed under.
//! 2. No interior node without a value has fewer than two children
//!    (otherwise it is merged with its single child) — *path compression*.
//!
//! So a key set has exactly one trie shape, and its depth never exceeds
//! the key width.
//!
//! ## Arena
//!
//! Nodes live in one `Vec<Node>` and point at their children by `u32`
//! index. A [`Node`] is the descent-critical data only — the label as an
//! inline `u128` word and length, two child indices and a value-presence
//! flag — 32 bytes, two per cache line. Values sit in a parallel
//! `Vec<Option<V>>` that a descent reads only at valued nodes.
//!
//! `remove`/`retain` push dead slots onto a free-list that `insert`
//! reuses, so churn does not grow the arena. [`PatriciaTrie::compact`]
//! re-lays the arena in DFS preorder — a node's 0-subtree immediately
//! follows it — and empties the free-list; `retain` does the same on its
//! own once the free-list holds at least `COMPACT_FREE_MIN` slots and
//! half the arena. `remove` never compacts, so it stays O(key bits).
//!
//! ## `&self` descents, zero allocations
//!
//! [`PatriciaTrie::get`] and [`PatriciaTrie::longest_match_where`] take
//! `&self` and allocate nothing (`tests/no_alloc.rs` counts): labels are
//! compared with shift/mask/XOR on words. A caller that keeps per-entry
//! metadata (the map-cache's `last_used` stamp and stale flag) stores it
//! in atomics inside `V`. Only `insert` may allocate (arena growth), and
//! only `compact` re-lays the arena.
//!
//! [`EidTrie`]: crate::EidTrie

use sda_types::MemStats;

use crate::bits::{BitStr, MAX_BITS};

/// Sentinel child index: no child.
const NONE: u32 = u32::MAX;

/// Root node index. The root always exists and is never freed.
const ROOT: u32 = 0;

/// Opportunistic compaction floor: below this many free slots, churn is
/// ignored (tiny tries re-lay in nanoseconds anyway; the threshold keeps
/// steady small-scale insert/remove cycles from compacting every call).
const COMPACT_FREE_MIN: usize = 64;

/// One arena node (32 bytes — two per cache line).
#[derive(Clone, Copy)]
struct Node {
    /// Label bits between the parent and this node, left-aligned.
    bits: u128,
    /// Children indexed by their label's first bit ([`NONE`] = absent).
    children: [u32; 2],
    /// Label length in bits.
    label_len: u8,
    /// Whether `values[this index]` holds an entry (kept in the node so
    /// the descent reads the value slab only where there is a value).
    has_value: bool,
}

impl Node {
    fn new(label: BitStr, has_value: bool) -> Self {
        Node {
            bits: label.raw(),
            children: [NONE, NONE],
            label_len: label.len() as u8,
            has_value,
        }
    }

    #[inline]
    fn label(&self) -> BitStr {
        // Labels only ever come from `BitStr` surgery, so the word is
        // canonical (bits past `label_len` are zero) by construction.
        BitStr::from_raw(self.bits, self.label_len as usize)
    }

    fn set_label(&mut self, label: BitStr) {
        self.bits = label.raw();
        self.label_len = label.len() as u8;
    }

    fn child_count(&self) -> usize {
        (self.children[0] != NONE) as usize + (self.children[1] != NONE) as usize
    }
}

/// One descent step, shared by the lookups: from `idx` at `depth`, with
/// `rem` holding the key's unconsumed bits left-aligned, the child whose
/// label the key continues with — or `None` (no child, a label mismatch,
/// or a label longer than what is left of the key).
#[inline(always)]
fn step(
    nodes: &[Node],
    idx: u32,
    key_len: usize,
    depth: usize,
    rem: u128,
) -> Option<(u32, usize, u128)> {
    let child = nodes[idx as usize].children[(rem >> (MAX_BITS - 1)) as usize];
    if child == NONE {
        return None;
    }
    let node = &nodes[child as usize];
    let ll = node.label_len as usize;
    // Non-root labels are 1..=128 bits, so `128 - ll` is a valid shift;
    // the XOR-shift compares exactly the label's bits against the key's
    // next `ll` bits (both words are left-aligned).
    if depth + ll > key_len || (node.bits ^ rem) >> (MAX_BITS - ll) != 0 {
        return None;
    }
    let rem = if ll >= MAX_BITS { 0 } else { rem << ll };
    Some((child, depth + ll, rem))
}

/// A Patricia trie mapping bit-string prefixes to values.
#[derive(Clone)]
pub struct PatriciaTrie<V> {
    /// The node arena. `nodes[0]` is the root (empty label, never freed).
    nodes: Vec<Node>,
    /// Values parallel to `nodes`: `values[i]` belongs to `nodes[i]`.
    values: Vec<Option<V>>,
    /// Dead arena slots available for reuse by `insert`.
    free: Vec<u32>,
    /// Stored entry count.
    len: usize,
}

impl<V: core::fmt::Debug> core::fmt::Debug for PatriciaTrie<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> Default for PatriciaTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PatriciaTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PatriciaTrie {
            nodes: vec![Node::new(BitStr::empty(), false)],
            values: vec![None],
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates an arena slot (reusing the free-list when possible).
    fn alloc_node(&mut self, label: BitStr, value: Option<V>) -> u32 {
        let has_value = value.is_some();
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node::new(label, has_value);
            self.values[idx as usize] = value;
            idx
        } else {
            let idx = self.nodes.len();
            assert!(idx < NONE as usize, "arena exceeds u32 index space");
            self.nodes.push(Node::new(label, has_value));
            self.values.push(value);
            idx as u32
        }
    }

    /// Returns a slot to the free-list, dropping its value.
    fn free_node(&mut self, idx: u32) {
        debug_assert_ne!(idx, ROOT, "the root is never freed");
        self.nodes[idx as usize] = Node::new(BitStr::empty(), false);
        self.values[idx as usize] = None;
        self.free.push(idx);
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: &BitStr, value: V) -> Option<V> {
        let mut idx = ROOT;
        // The unconsumed tail of `key` below `idx`.
        let mut rest = *key;
        loop {
            if rest.is_empty() {
                // Key ends exactly at this node.
                let old = self.values[idx as usize].replace(value);
                if old.is_some() {
                    return old;
                }
                self.nodes[idx as usize].has_value = true;
                break;
            }

            let next_bit = rest.bit(0) as usize;
            let child = self.nodes[idx as usize].children[next_bit];
            if child == NONE {
                let leaf = self.alloc_node(rest, Some(value));
                self.nodes[idx as usize].children[next_bit] = leaf;
                break;
            }

            let child_label = self.nodes[child as usize].label();
            let common = child_label.common_prefix_len(&rest);
            if common == child_label.len() {
                // Child label fully matches; descend.
                idx = child;
                rest = rest.slice(common, rest.len());
                continue;
            }

            // Split the child at `common`: a new interior node takes the
            // shared head of the label, the old child keeps the tail.
            let head = child_label.slice(0, common);
            let tail = child_label.slice(common, child_label.len());
            let tail_bit = tail.bit(0) as usize;
            let ends_here = common == rest.len();
            let split = self.alloc_node(head, None);
            self.nodes[child as usize].set_label(tail);
            self.nodes[split as usize].children[tail_bit] = child;
            self.nodes[idx as usize].children[next_bit] = split;
            if ends_here {
                // Key ends exactly at the split point.
                self.nodes[split as usize].has_value = true;
                self.values[split as usize] = Some(value);
            } else {
                let bit = rest.bit(common) as usize;
                debug_assert_ne!(bit, tail_bit);
                let label = rest.slice(common, rest.len());
                let leaf = self.alloc_node(label, Some(value));
                self.nodes[split as usize].children[bit] = leaf;
            }
            break;
        }
        self.len += 1;
        None
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &BitStr) -> Option<&V> {
        let (mut idx, mut depth, mut rem) = (ROOT, 0, key.raw());
        while depth < key.len() {
            (idx, depth, rem) = step(&self.nodes, idx, key.len(), depth, rem)?;
        }
        self.values[idx as usize].as_ref()
    }

    /// Longest-prefix match that **skips entries failing `keep`**: the
    /// value of the longest stored prefix of `key` whose value satisfies
    /// the predicate, with that prefix's bit length (`|_| true` is the
    /// plain longest match). A logically dead entry — a TTL-expired
    /// map-cache mapping, which only the table *owner* may structurally
    /// remove — is treated as absent, so a dead host route never shadows
    /// a live covering subnet. The predicate runs once per valued node on
    /// the path: the nested covers of one key, a handful at most.
    pub fn longest_match_where<F>(&self, key: &BitStr, mut keep: F) -> Option<(usize, &V)>
    where
        F: FnMut(&V) -> bool,
    {
        let (mut idx, mut depth, mut rem) = (ROOT, 0, key.raw());
        let mut best = None;
        loop {
            if self.nodes[idx as usize].has_value {
                if let Some(v) = self.values[idx as usize].as_ref().filter(|v| keep(v)) {
                    best = Some((depth, v));
                }
            }
            if depth == key.len() {
                return best;
            }
            match step(&self.nodes, idx, key.len(), depth, rem) {
                Some(next) => (idx, depth, rem) = next,
                None => return best,
            }
        }
    }

    /// Keeps only entries for which `f` returns true, re-compressing the
    /// structure in a single traversal. Returns how many entries were
    /// removed.
    pub fn retain<F: FnMut(&BitStr, &mut V) -> bool>(&mut self, mut f: F) -> usize {
        let mut removed = 0usize;
        self.retain_at(ROOT, BitStr::empty(), &mut f, &mut removed);
        self.len -= removed;
        if self.free.len() >= COMPACT_FREE_MIN && self.free.len() * 2 >= self.nodes.len() {
            // Amortized O(1) per freed slot: a compaction halves the
            // arena, so the next one needs that many frees again.
            self.compact();
        }
        removed
    }

    fn retain_at<F: FnMut(&BitStr, &mut V) -> bool>(
        &mut self,
        idx: u32,
        prefix: BitStr,
        f: &mut F,
        removed: &mut usize,
    ) {
        let here = prefix.concat(&self.nodes[idx as usize].label());
        if let Some(v) = self.values[idx as usize].as_mut() {
            if !f(&here, v) {
                self.values[idx as usize] = None;
                self.nodes[idx as usize].has_value = false;
                *removed += 1;
            }
        }
        for bit in 0..2 {
            let child = self.nodes[idx as usize].children[bit];
            if child != NONE {
                self.retain_at(child, here, f, removed);
                self.fix_child(idx, bit);
            }
        }
    }

    /// Removes the value at `key`, returning it. Re-compresses the path;
    /// freed slots go to the free-list. Never compacts: O(key bits) and
    /// allocation-free.
    pub fn remove(&mut self, key: &BitStr) -> Option<V> {
        let removed = self.remove_at(ROOT, key, 0);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_at(&mut self, idx: u32, key: &BitStr, depth: usize) -> Option<V> {
        if depth == key.len() {
            self.nodes[idx as usize].has_value = false;
            return self.values[idx as usize].take();
        }
        let bit = key.bit(depth) as usize;
        let child = self.nodes[idx as usize].children[bit];
        if child == NONE {
            return None;
        }
        let label = self.nodes[child as usize].label();
        if !label.is_prefix_of(&key.slice(depth, key.len())) {
            return None;
        }
        let removed = self.remove_at(child, key, depth + label.len())?;
        self.fix_child(idx, bit);
        Some(removed)
    }

    /// Restores the path-compression invariant for `parent`'s `bit`
    /// child: a valueless child with zero children is freed, with one
    /// child merges into its grandchild (which absorbs its label).
    fn fix_child(&mut self, parent: u32, bit: usize) {
        let child = self.nodes[parent as usize].children[bit];
        let node = self.nodes[child as usize];
        if node.has_value {
            return;
        }
        match node.child_count() {
            0 => {
                self.nodes[parent as usize].children[bit] = NONE;
                self.free_node(child);
            }
            1 => {
                let gc = if node.children[0] != NONE {
                    node.children[0]
                } else {
                    node.children[1]
                };
                let merged = node.label().concat(&self.nodes[gc as usize].label());
                self.nodes[gc as usize].set_label(merged);
                self.nodes[parent as usize].children[bit] = gc;
                self.free_node(child);
            }
            _ => {}
        }
    }

    /// Re-lays the arena in DFS preorder — a node's 0-subtree
    /// immediately follows it, so the deepest levels share cache lines —
    /// and empties the free-list. Call once a bulk load settles.
    pub fn compact(&mut self) {
        let live = self.nodes.len() - self.free.len();
        let mut nodes = Vec::with_capacity(live);
        let mut values = Vec::with_capacity(live);
        self.compact_at(ROOT, &mut nodes, &mut values);
        debug_assert_eq!(nodes.len(), live, "compaction lost or gained nodes");
        self.nodes = nodes;
        self.values = values;
        self.free = Vec::new();
    }

    /// Moves the subtree at `idx` into `nodes`/`values` in preorder,
    /// returning its new index.
    fn compact_at(&mut self, idx: u32, nodes: &mut Vec<Node>, values: &mut Vec<Option<V>>) -> u32 {
        let node = self.nodes[idx as usize];
        let new_idx = nodes.len() as u32;
        nodes.push(Node {
            children: [NONE, NONE],
            ..node
        });
        values.push(self.values[idx as usize].take());
        for bit in 0..2 {
            let child = node.children[bit];
            if child != NONE {
                nodes[new_idx as usize].children[bit] = self.compact_at(child, nodes, values);
            }
        }
        new_idx
    }

    /// Bytes the arena has reserved: node slab, value slab and
    /// free-list capacities.
    pub fn mem_stats(&self) -> MemStats {
        MemStats {
            capacity_bytes: self.nodes.capacity() * core::mem::size_of::<Node>()
                + self.values.capacity() * core::mem::size_of::<Option<V>>()
                + self.free.capacity() * core::mem::size_of::<u32>(),
            ..MemStats::default()
        }
    }

    /// Iterates `(prefix, value)` pairs in depth-first order.
    pub fn iter(&self) -> impl Iterator<Item = (BitStr, &V)> {
        let mut out = Vec::with_capacity(self.len);
        self.collect_at(ROOT, BitStr::empty(), &mut out);
        out.into_iter()
    }

    fn collect_at<'a>(&'a self, idx: u32, prefix: BitStr, out: &mut Vec<(BitStr, &'a V)>) {
        let here = prefix.concat(&self.nodes[idx as usize].label());
        if let Some(v) = self.values[idx as usize].as_ref() {
            out.push((here, v));
        }
        for bit in 0..2 {
            let child = self.nodes[idx as usize].children[bit];
            if child != NONE {
                self.collect_at(child, here, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(bits: &str) -> BitStr {
        let mut s = BitStr::empty();
        for c in bits.chars() {
            s.push(c == '1');
        }
        s
    }

    /// `(depth of the deepest node in edges, nodes reachable from the
    /// root)` — the shape the invariants bound.
    fn shape<V>(t: &PatriciaTrie<V>) -> (usize, usize) {
        fn walk(nodes: &[Node], idx: u32, depth: usize, out: &mut (usize, usize)) {
            out.0 = out.0.max(depth);
            out.1 += 1;
            for c in nodes[idx as usize].children {
                if c != NONE {
                    walk(nodes, c, depth + 1, out);
                }
            }
        }
        let mut out = (0, 0);
        walk(&t.nodes, ROOT, 0, &mut out);
        out
    }

    fn lpm<'a, V>(t: &'a PatriciaTrie<V>, k: &BitStr) -> Option<(usize, &'a V)> {
        t.longest_match_where(k, |_| true)
    }

    #[test]
    fn node_is_two_per_cache_line() {
        // The layout claim the module docs make: 32-byte nodes.
        assert_eq!(core::mem::size_of::<Node>(), 32);
    }

    #[test]
    fn insert_get_basic() {
        let mut t = PatriciaTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(&key("1010"), "a"), None);
        assert_eq!(t.insert(&key("1011"), "b"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&key("1010")), Some(&"a"));
        assert_eq!(t.get(&key("1011")), Some(&"b"));
        assert_eq!(t.get(&key("101")), None);
        assert_eq!(t.get(&key("10110")), None);
    }

    #[test]
    fn insert_replaces() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("111"), 1);
        assert_eq!(t.insert(&key("111"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key("111")), Some(&2));
    }

    #[test]
    fn empty_key_is_a_valid_entry() {
        let mut t = PatriciaTrie::new();
        t.insert(&BitStr::empty(), "default");
        assert_eq!(t.get(&BitStr::empty()), Some(&"default"));
        // Default route matches everything via LPM.
        assert_eq!(lpm(&t, &key("10101")), Some((0, &"default")));
    }

    #[test]
    fn longest_match_prefers_longest() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("10"), "short");
        t.insert(&key("1010"), "long");
        assert_eq!(lpm(&t, &key("101011")), Some((4, &"long")));
        assert_eq!(lpm(&t, &key("100111")), Some((2, &"short")));
        assert_eq!(lpm(&t, &key("0")), None);
        // Exact length counts too.
        assert_eq!(lpm(&t, &key("1010")), Some((4, &"long")));
    }

    #[test]
    fn longest_match_where_skips_filtered_entries() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("10"), 1u32); // live subnet
        t.insert(&key("1010"), 2u32); // "dead" host route
                                      // Unfiltered: the deepest entry wins.
        assert_eq!(
            t.longest_match_where(&key("101011"), |_| true),
            Some((4, &2))
        );
        // Filtered: the dead host route must not shadow the live subnet.
        assert_eq!(
            t.longest_match_where(&key("101011"), |v| *v != 2),
            Some((2, &1))
        );
        // Everything filtered: no match, even though entries cover.
        assert_eq!(t.longest_match_where(&key("101011"), |_| false), None);
        // Filtered root default route still answers.
        t.insert(&BitStr::empty(), 0u32);
        assert_eq!(
            t.longest_match_where(&key("0111"), |v| *v == 0),
            Some((0, &0))
        );
    }

    #[test]
    fn split_preserves_existing_entries() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("110011"), "deep");
        t.insert(&key("1100"), "mid"); // ends exactly at split point
        t.insert(&key("110100"), "fork"); // splits at bit 3
        assert_eq!(t.get(&key("110011")), Some(&"deep"));
        assert_eq!(t.get(&key("1100")), Some(&"mid"));
        assert_eq!(t.get(&key("110100")), Some(&"fork"));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn remove_and_recompress() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("1010"), 1);
        t.insert(&key("1011"), 2);
        t.insert(&key("10"), 3);
        assert_eq!(t.remove(&key("1010")), Some(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&key("1010")), None);
        assert_eq!(t.get(&key("1011")), Some(&2));
        assert_eq!(t.get(&key("10")), Some(&3));
        assert_eq!(t.remove(&key("1010")), None);
        assert_eq!(t.remove(&key("10")), Some(3));
        assert_eq!(t.remove(&key("1011")), Some(2));
        assert!(t.is_empty());
        assert_eq!(shape(&t), (0, 1), "only the root is left");
    }

    #[test]
    fn remove_nonexistent_divergent_key() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("1111"), 1);
        assert_eq!(t.remove(&key("1110")), None);
        assert_eq!(t.remove(&key("11")), None);
        assert_eq!(t.remove(&key("11110")), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = PatriciaTrie::new();
        let keys = ["0", "00", "01", "1", "101", "111111"];
        for (i, k) in keys.iter().enumerate() {
            t.insert(&key(k), i);
        }
        let mut got: Vec<String> = t.iter().map(|(k, _)| k.to_string()).collect();
        got.sort();
        let mut want: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn depth_bounded_by_key_width() {
        // Insert many 32-bit keys; depth can never exceed 32, and path
        // compression keeps at most one valueless branch node per entry.
        let mut t = PatriciaTrie::new();
        for i in 0u32..2000 {
            let bytes = i.wrapping_mul(2_654_435_761).to_be_bytes();
            t.insert(&BitStr::from_bytes(&bytes, 32), i);
        }
        let (depth, nodes) = shape(&t);
        assert!(depth <= 32, "depth {depth} exceeds 32");
        assert!(
            nodes <= 2 * t.len(),
            "{nodes} nodes for {} entries",
            t.len()
        );
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn compact_preserves_everything() {
        let mut t = PatriciaTrie::new();
        for i in 0u32..500 {
            let bytes = i.wrapping_mul(2_654_435_761).to_be_bytes();
            t.insert(&BitStr::from_bytes(&bytes, 32), i);
        }
        // Punch holes, then compact.
        for i in 0u32..500 {
            if i % 3 == 0 {
                let bytes = i.wrapping_mul(2_654_435_761).to_be_bytes();
                t.remove(&BitStr::from_bytes(&bytes, 32));
            }
        }
        let before: Vec<(String, u32)> = t.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let len = t.len();
        t.compact();
        assert_eq!(t.len(), len);
        let after: Vec<(String, u32)> = t.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        assert_eq!(before, after, "compaction must not change contents");
        assert!(t.free.is_empty(), "compaction empties the free-list");
        assert_eq!(
            t.nodes.len(),
            shape(&t).1,
            "the arena holds live nodes only"
        );
        // Compact is idempotent.
        t.compact();
        let again: Vec<(String, u32)> = t.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        assert_eq!(after, again);
        for i in 0u32..500 {
            let bytes = i.wrapping_mul(2_654_435_761).to_be_bytes();
            let k = BitStr::from_bytes(&bytes, 32);
            assert_eq!(t.get(&k).copied(), (i % 3 != 0).then_some(i));
        }
    }

    #[test]
    fn compact_lays_preorder() {
        // After compaction, a pure-0-bit descent touches strictly
        // ascending, adjacent-when-possible indices: child 0 of node i
        // is exactly i + 1 (preorder property).
        let mut t = PatriciaTrie::new();
        for i in 0u32..64 {
            t.insert(&BitStr::from_bytes(&(i << 2).to_be_bytes(), 32), i);
        }
        t.compact();
        let mut idx = ROOT;
        loop {
            let child = t.nodes[idx as usize].children[0];
            if child == NONE {
                break;
            }
            assert_eq!(child, idx + 1, "0-child must immediately follow parent");
            idx = child;
        }
    }

    #[test]
    fn retain_churn_triggers_opportunistic_compaction() {
        let mut t = PatriciaTrie::new();
        for i in 0u32..1000 {
            t.insert(&BitStr::from_bytes(&i.to_be_bytes(), 32), i);
        }
        // Evict 90% through retain (the maintenance path): far past the
        // free-list threshold, so the arena must have re-laid itself.
        let removed = t.retain(|_, v| *v % 10 == 0);
        assert_eq!(removed, 900);
        assert!(
            t.free.len() * 2 < t.nodes.len().max(COMPACT_FREE_MIN * 2),
            "retain churn must have compacted: {} free of {}",
            t.free.len(),
            t.nodes.len()
        );
        assert_eq!(t.len(), 100);
        for i in (0u32..1000).step_by(10) {
            assert_eq!(t.get(&BitStr::from_bytes(&i.to_be_bytes(), 32)), Some(&i));
        }
    }

    #[test]
    fn remove_never_compacts() {
        // `remove` runs per control-plane event between packet bursts,
        // so it must only free-list its slots — the re-layout belongs
        // to `retain`/`compact`.
        let mut t = PatriciaTrie::new();
        for i in 0u32..1000 {
            t.insert(&BitStr::from_bytes(&i.to_be_bytes(), 32), i);
        }
        let slots = t.nodes.len();
        for i in 0u32..1000 {
            if i % 10 != 0 {
                t.remove(&BitStr::from_bytes(&i.to_be_bytes(), 32));
            }
        }
        assert_eq!(t.nodes.len(), slots, "remove must not re-lay the arena");
        assert!(!t.free.is_empty(), "freed slots await reuse");
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn mem_stats_reports_layout() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("0"), 0u32);
        t.insert(&key("00"), 1);
        t.insert(&key("01"), 2);
        t.compact();
        // root -> "0" -> {"0","1"} tails, laid exactly: four nodes and
        // four value slots, no free-list.
        let stats = t.mem_stats();
        assert_eq!(
            stats.capacity_bytes,
            4 * (32 + core::mem::size_of::<Option<u32>>())
        );
        assert_eq!((stats.stride_slots, stats.stride_filled), (0, 0));
        let mut merged = stats.clone();
        merged.merge(&t.mem_stats());
        assert_eq!(merged.capacity_bytes, 2 * stats.capacity_bytes);
    }

    /// All 256 8-bit keys, each valued with its bit pattern.
    fn dense8() -> PatriciaTrie<u32> {
        let mut t = PatriciaTrie::new();
        for i in 0u32..256 {
            t.insert(&BitStr::from_bytes(&[i as u8], 8), i);
        }
        t
    }

    #[test]
    fn value_on_an_interior_node_is_a_new_key() {
        let mut t = dense8();
        // The 1-bit node exists (valueless) inside the full subtree:
        // giving it a value adds an entry but no node.
        let nodes = shape(&t).1;
        assert_eq!(t.insert(&key("1"), 1000), None);
        assert_eq!(shape(&t).1, nodes);
        assert_eq!(t.len(), 257);
        let probe = BitStr::from_bytes(&[0xFF], 8);
        assert_eq!(
            t.longest_match_where(&probe, |v| *v != 255),
            Some((1, &1000))
        );
    }

    #[test]
    fn filtered_lookup_falls_back_to_a_shallower_live_cover() {
        let mut t = dense8();
        t.insert(&key("1"), 1000);
        t.compact();
        let probe = BitStr::from_bytes(&[0xFF], 8);
        // Unfiltered: the deepest entry wins.
        assert_eq!(lpm(&t, &probe), Some((8, &255)));
        // Rejecting it surfaces the depth-1 entry above it.
        assert_eq!(
            t.longest_match_where(&probe, |v| *v != 255),
            Some((1, &1000))
        );
        // Rejecting the only entry on the 0x00 path leaves no match.
        assert_eq!(
            t.longest_match_where(&BitStr::from_bytes(&[0x00], 8), |v| *v != 0),
            None
        );
    }
}
