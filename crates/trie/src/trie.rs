//! The path-compressed binary radix (Patricia) trie, arena-compacted,
//! with a multibit **stride layer** over its dense upper levels.
//!
//! Structure: every node carries a *label* (the bits between its parent
//! and itself), an optional value, and up to two children indexed by the
//! first bit of their labels. Invariants maintained by all operations:
//!
//! 1. A child's label is never empty and starts with the bit it is
//!    indexed under.
//! 2. No interior node without a value has fewer than two children
//!    (otherwise it is merged with its single child) — *path compression*.
//!
//! Lookup cost is therefore O(key bits), independent of the number of
//! stored entries — the property Fig. 7a/7b measures.
//!
//! ## Arena layout: contiguous nodes, index children
//!
//! Nodes do **not** live in individual heap boxes. The whole trie is
//! three `Vec`s:
//!
//! * `nodes: Vec<Node>` — the descent-critical data only: label bits
//!   (inline `u128` word + length), two `u32` child indices (`NONE` =
//!   no child), the stride table reference (base slot + width) and a
//!   value-presence flag. `Node` is exactly 32 bytes, so **two nodes
//!   share every cache line**.
//! * `values: Vec<Option<V>>` — the payloads, touched once per lookup
//!   (at the final best match), never during the descent.
//! * `stride_tables: Vec<u32>` — the shared fanout-table slab (see the
//!   stride section below).
//!
//! The previous layout (`Option<Box<Node<V>>>` children) made every trie
//! step an independent cache miss into malloc-scattered memory, and the
//! descent is memory-latency bound. The arena attacks that from the
//! layout side: child hops are `u32` loads from one slab, the hot upper
//! levels pack densely into a few cache lines, and splitting the values
//! out roughly halves the bytes the descent streams through. Every
//! descent step additionally issues a prefetch for **both** children of
//! the node it lands on — the next hop's line is in flight one hop
//! early, overlapping what would otherwise be a strictly serial miss
//! chain.
//!
//! ## Free-list and compaction
//!
//! `remove`/`retain` push dead slots onto a free-list that `insert`
//! reuses, so churn does not grow the arena. Holes cost locality, not
//! correctness — descents simply skip them — so the trie re-lays itself
//! two ways:
//!
//! * [`PatriciaTrie::compact`] rebuilds the arena in **DFS preorder**:
//!   a node's 0-subtree immediately follows it, so a descent walks
//!   nearly-sequential memory. Bulk-load paths (map-cache population,
//!   RIB sync) call it once loading settles.
//! * When the free-list exceeds `COMPACT_FREE_MIN` slots *and* half
//!   the arena, `retain` compacts opportunistically — amortized O(1)
//!   per freed slot, so bulk eviction cannot strand a mostly-dead
//!   arena. `remove` never compacts: it runs once per control-plane
//!   event (a negative Map-Reply, a de-registration) between packet
//!   bursts, so it must stay O(key bits) and allocation-free.
//!
//! [`PatriciaTrie::mem_stats`] exposes the layout (live nodes, arena
//! capacity, free-list length, stride occupancy/fill, depth histogram)
//! so benches can print it and regressions are visible in bench output.
//!
//! ## Stride layer: multibit fanout over the dense top
//!
//! At route-table scale the upper trie levels are *dense*: 100k spread
//! keys force branching at nearly every one of the first ~17 bits, so a
//! binary descent burns a dependent load per bit exactly where the data
//! guarantees the fanout exists. The stride layer collapses such levels
//! into 4- or 8-bit fanout tables, Luleå/Tree-Bitmap style: a strided
//! node consumes `s` key bits in **one hop** — direct index extraction
//! from the running key word, no label compare — cutting descent depth
//! ~3-4x at 100k+ routes (18 binary hops become 2-3 table hops plus a
//! short Patricia tail).
//!
//! Tables live in one shared `stride_tables: Vec<u32>` slab in the same
//! arena spirit as the nodes. A width-`s` table is `2^s` slots of two
//! words each:
//!
//! * `next` — the node whose label ends exactly `s` bits below the
//!   strided node along that bit path (`NONE` = the path dies inside
//!   the span). Valid because compaction splits every label crossing an
//!   active span boundary, so a landing node always exists.
//! * `best` — the deepest *valued* node strictly inside the span on
//!   that path, packed as `(depth delta << 28) | arena index`, so the
//!   hop records the in-span longest-prefix candidate without walking
//!   the span. The strided node's own value and the landing node's
//!   value are covered by the ordinary arrival checks on either side.
//!
//! **Promotion** happens only inside [`PatriciaTrie::compact`]: during
//! the DFS re-layout each node sitting on a span boundary counts the
//! label-ends in its first 4 and 8 levels; at least
//! `STRIDE8_MIN_ENDS` ends promotes an 8-bit table, else
//! `STRIDE4_MIN_ENDS` a 4-bit one, else the level stays Patricia — so
//! sparse regions never pay for empty tables, and the choice is
//! re-derived from occupancy on every compaction (a thinned-out level
//! **demotes** the same way).
//!
//! **Invalidation** follows what a table actually holds — arena indices
//! of landing nodes and `has_value`-derived `best` slots:
//!
//! * *Replacing the value of a key that already has one* (`insert` on a
//!   stored key — every refresh or move re-registration, every map-cache
//!   `update_rloc`) changes neither, so it keeps **every** table; so
//!   does a `retain` that frees nothing. The stride layer a `compact()`
//!   built survives any amount of value churn.
//! * *A structural change* stays conservative: an `insert` that adds a
//!   key (a new leaf, a split, or a value on a so-far valueless node)
//!   and a `remove` that takes one out drop the tables of the strided
//!   nodes on the key's path (the span below them may have changed
//!   shape or gained/lost a `best`), and `retain` drops all tables when
//!   anything was freed. Lookups fall back to plain binary steps along
//!   such a path until the next `compact()` re-promotes — in particular
//!   a *new* key inserted into a compacted trie leaves its own path
//!   table-less until then, even where the table above it would not
//!   have needed to change.
//!
//! Mutators never build tables; the slab is rebuilt from scratch at each
//! compaction, so stale-slot hazards cannot outlive it.
//!
//! ## Inline keys, `&self` descents, zero allocations
//!
//! Labels are [`BitStr`]s: inline `(u128, u8)` words, never heap data
//! (every key in the system is at most 128 bits — see the `bits` module
//! docs for why that bound holds). All label surgery during descent —
//! slicing off matched bits, comparing a label against the remaining key —
//! is shift/mask/`leading_zeros` arithmetic on words. And no lookup needs
//! the trie mutably: a caller that keeps per-entry metadata (the
//! map-cache's `last_used` stamp and stale flag) stores it in atomics
//! inside `V` and writes it through the `&V` a match hands back, so one
//! path serves a single-threaded owner and any number of reader threads.
//! Consequently [`PatriciaTrie::get`], [`PatriciaTrie::longest_match`]
//! (unfiltered) and [`PatriciaTrie::longest_match_where`] (skipping
//! values a predicate rejects) perform **zero heap allocations** —
//! including after a `compact()` (proved by `tests/no_alloc.rs`); only
//! `insert` may allocate (arena growth), and `remove`/`retain` only free
//! or compact.

use crate::bits::BitStr;

/// Sentinel child index: no child / no best match.
const NONE: u32 = u32::MAX;

/// Root node index. The root always exists and is never freed.
const ROOT: u32 = 0;

/// Opportunistic compaction floor: below this many free slots, churn is
/// ignored (tiny tries re-lay in nanoseconds anyway; the threshold keeps
/// steady small-scale insert/remove cycles from compacting every call).
const COMPACT_FREE_MIN: usize = 64;

/// Stride promotion floor at width 8: label-ends inside the first 8 bits
/// below the candidate (max 510 for a full subtree). 128 ≈ 25% fill, so
/// a 2 KiB table never backs a sparse path.
const STRIDE8_MIN_ENDS: usize = 128;

/// Stride promotion floor at width 4 (max 30 ends; 8 ≈ 27% fill for a
/// 128-byte table).
const STRIDE4_MIN_ENDS: usize = 8;

/// `best` slot packing: bits 28.. hold the value's depth below the
/// strided node (1..=7), bits 0..28 the arena index.
const STRIDE_DELTA_SHIFT: u32 = 28;
const STRIDE_IDX_MASK: u32 = (1 << STRIDE_DELTA_SHIFT) - 1;

/// Most strided nodes one root-to-leaf path can carry. Tables are only
/// built on span boundaries, so two of them on a path are at least a
/// 4-bit stride apart, and mutators drop tables but never add or move
/// one — `insert` notes the ones it passes in an array of this size.
const MAX_PATH_TABLES: usize = crate::bits::MAX_BITS / 4;

/// Promotion is skipped entirely once the arena is too large for packed
/// slot indices (boundary splits can still grow it past this during the
/// same compaction, hence the margin below [`STRIDE_IDX_MASK`]).
const STRIDE_MAX_NODES: usize = 1 << 26;

/// One arena node: the descent-critical data only (32 bytes — two nodes
/// per cache line). Values live in the parallel `values` vec and are
/// only touched at the end of a lookup.
#[derive(Clone, Copy)]
struct Node {
    /// Label bits between the parent and this node, left-aligned.
    bits: u128,
    /// Children indexed by their label's first bit ([`NONE`] = absent).
    children: [u32; 2],
    /// Base slot of this node's stride fanout table in the
    /// `stride_tables` slab ([`NONE`] = no table).
    table: u32,
    /// Label length in bits.
    label_len: u8,
    /// Stride fanout width in bits (0 = plain Patricia node, else 4/8).
    stride: u8,
    /// Whether `values[this index]` holds an entry (kept in the node so
    /// the descent never touches the values slab).
    has_value: bool,
}

/// Hints the CPU to pull both children of `node` into cache. The
/// descent is a chain of dependent loads — each hop's line must arrive
/// before the next hop's address is known — so fetching both possible
/// next lines one hop early overlaps successive misses. [`NONE`]
/// children are skipped; a live index may still be a free-listed slot
/// (stale line, harmless): `wrapping_add` keeps the address arithmetic
/// defined without a bounds check, and PREFETCH never faults.
#[inline(always)]
fn prefetch_children(nodes: &[Node], node: &Node) {
    #[cfg(target_arch = "x86_64")]
    {
        let base = nodes.as_ptr();
        for bit in 0..2 {
            let c = node.children[bit];
            if c != NONE {
                // SAFETY: prefetch is a hint; it dereferences nothing.
                unsafe {
                    core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                        base.wrapping_add(c as usize).cast::<i8>(),
                    );
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (nodes, node);
    }
}

/// One step of the descent state machine, shared by every lookup path:
/// from `idx` at `depth` with `rem` holding the unconsumed key bits
/// left-aligned, try to advance along `key`. Returns the child index,
/// or [`NONE`] when the descent ends here (no child / label mismatch /
/// label overruns the key).
#[inline(always)]
fn descend_step(
    nodes: &[Node],
    idx: u32,
    key_len: usize,
    depth: usize,
    rem: u128,
) -> (u32, usize, u128) {
    let bit = (rem >> (crate::bits::MAX_BITS - 1)) as usize;
    let child = nodes[idx as usize].children[bit];
    if child == NONE {
        return (NONE, depth, rem);
    }
    let node = &nodes[child as usize];
    let ll = node.label_len as usize;
    // Non-root labels are 1..=128 bits, so `128 - ll` is a valid shift;
    // the XOR-shift compares exactly the label's bits against the key's
    // next `ll` bits (both words are left-aligned).
    if depth + ll > key_len || (node.bits ^ rem) >> (crate::bits::MAX_BITS - ll) != 0 {
        return (NONE, depth, rem);
    }
    prefetch_children(nodes, node);
    let rem = if ll >= crate::bits::MAX_BITS {
        0
    } else {
        rem << ll
    };
    (child, depth + ll, rem)
}

/// Reads the stride fanout slot for the next `stride` key bits at `idx`:
/// `Some((stride, next, best_packed))` when `idx` carries a table and the
/// key has at least `stride` bits left, else `None` (take a binary step).
/// `next` is the node whose label ends exactly `stride` bits below `idx`
/// on that path ([`NONE`] = the path dies inside the span); `best_packed`
/// is the deepest valued node strictly inside the span (depth delta in
/// the top nibble, arena index below — see [`STRIDE_DELTA_SHIFT`]).
#[inline(always)]
fn stride_slot(
    nodes: &[Node],
    tables: &[u32],
    idx: u32,
    key_len: usize,
    depth: usize,
    rem: u128,
) -> Option<(usize, u32, u32)> {
    let node = &nodes[idx as usize];
    let s = node.stride as usize;
    if s == 0 || key_len - depth < s {
        return None;
    }
    let j = (rem >> (crate::bits::MAX_BITS - s)) as usize;
    let base = node.table as usize + 2 * j;
    Some((s, tables[base], tables[base + 1]))
}

/// Unpacks a non-[`NONE`] `best` slot into `(depth delta, arena index)`.
#[inline(always)]
fn unpack_best(bp: u32) -> (usize, u32) {
    ((bp >> STRIDE_DELTA_SHIFT) as usize, bp & STRIDE_IDX_MASK)
}

/// Fills the fanout table of a freshly laid strided node `root` by
/// expanding every `s`-bit path below it in the **new** arena (children
/// are already laid, and boundary-crossing labels already split, when
/// this runs): per slot, the landing node whose label ends exactly `s`
/// bits down (`next`) and the deepest valued node strictly inside the
/// span (`best`, packed). Paths that die early leave `next` = [`NONE`]
/// with the `best` accumulated to the point of death, so a jump that
/// hits such a slot resolves the whole span in one load pair.
fn fill_stride_table(nodes: &[Node], tables: &mut [u32], base: usize, s: usize, root: u32) {
    #[allow(clippy::too_many_arguments)]
    fn walk(
        nodes: &[Node],
        tables: &mut [u32],
        base: usize,
        s: usize,
        cur: u32,
        len: usize,
        jpfx: usize,
        best: u32,
    ) {
        if len == s {
            tables[base + 2 * jpfx] = cur;
            tables[base + 2 * jpfx + 1] = best;
            return;
        }
        let node = &nodes[cur as usize];
        // The strided node's own value (len == 0) is the *caller's*
        // running best at jump time, never a span entry.
        let best = if len > 0 && node.has_value {
            ((len as u32) << STRIDE_DELTA_SHIFT) | cur
        } else {
            best
        };
        for bit in 0..2 {
            let c = node.children[bit];
            if c == NONE {
                // Path dies inside the span: `next` stays NONE, the
                // accumulated best covers every slot under this prefix.
                let width = s - len - 1;
                let start = ((jpfx << 1) | bit) << width;
                for j in start..start + (1usize << width) {
                    tables[base + 2 * j + 1] = best;
                }
                continue;
            }
            let cnode = &nodes[c as usize];
            let cl = cnode.label_len as usize;
            debug_assert!(len + cl <= s, "label crosses a stride boundary");
            let cbits = (cnode.bits >> (crate::bits::MAX_BITS - cl)) as usize;
            // Paths diverging *inside* a multi-bit label die at the
            // divergence point: their slots keep `next` = NONE and
            // inherit the best accumulated above the label (the child's
            // own value lies past the divergence and must not leak in).
            for p in 1..cl {
                let matched = cbits >> (cl - p);
                let flipped = 1 ^ ((cbits >> (cl - 1 - p)) & 1);
                let width = s - (len + p + 1);
                let start = (((jpfx << p) | matched) << 1 | flipped) << width;
                for j in start..start + (1usize << width) {
                    tables[base + 2 * j + 1] = best;
                }
            }
            walk(
                nodes,
                tables,
                base,
                s,
                c,
                len + cl,
                (jpfx << cl) | cbits,
                best,
            );
        }
    }
    walk(nodes, tables, base, s, root, 0, 0, NONE);
}

impl Node {
    fn new(label: BitStr, has_value: bool) -> Self {
        Node {
            bits: label.raw(),
            children: [NONE, NONE],
            table: NONE,
            label_len: label.len() as u8,
            stride: 0,
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

/// Arena layout diagnostics — what [`PatriciaTrie::mem_stats`] reports
/// and the `lpm_hot_path` bench prints, so layout regressions (bloated
/// arenas, stranded free-lists, deep tries) show up in bench output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Live nodes (including the root and valueless interior nodes).
    pub live_nodes: usize,
    /// Arena slots currently allocated (live + free).
    pub arena_len: usize,
    /// Bytes reserved by the arenas: node slab + value slab capacities.
    pub capacity_bytes: usize,
    /// Dead slots awaiting reuse.
    pub free_list_len: usize,
    /// Stride fanout tables on live nodes.
    pub stride_tables: usize,
    /// Total stride table slots (sum of `2^stride` over strided nodes).
    pub stride_slots: usize,
    /// Stride slots whose landing pointer is live — the fill measure
    /// that makes table bloat (sparse promotions) visible in benches.
    pub stride_filled: usize,
    /// `depth_histogram[d]` = live nodes at `d` edges from the root.
    pub depth_histogram: Vec<usize>,
}

impl MemStats {
    /// Merges another family's stats into this one (the [`crate::EidTrie`]
    /// aggregate: counts add, histograms add element-wise).
    pub fn merge(&mut self, other: &MemStats) {
        self.live_nodes += other.live_nodes;
        self.arena_len += other.arena_len;
        self.capacity_bytes += other.capacity_bytes;
        self.free_list_len += other.free_list_len;
        self.stride_tables += other.stride_tables;
        self.stride_slots += other.stride_slots;
        self.stride_filled += other.stride_filled;
        if self.depth_histogram.len() < other.depth_histogram.len() {
            self.depth_histogram.resize(other.depth_histogram.len(), 0);
        }
        for (d, n) in other.depth_histogram.iter().enumerate() {
            self.depth_histogram[d] += n;
        }
    }

    /// Maximum node depth (edges from the root).
    pub fn max_depth(&self) -> usize {
        self.depth_histogram.len().saturating_sub(1)
    }
}

impl core::fmt::Display for MemStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} live nodes / {} slots ({} free), {} KiB reserved, max depth {}, {} stride tables ({}/{} slots filled)",
            self.live_nodes,
            self.arena_len,
            self.free_list_len,
            self.capacity_bytes / 1024,
            self.max_depth(),
            self.stride_tables,
            self.stride_filled,
            self.stride_slots,
        )
    }
}

/// A Patricia trie mapping bit-string prefixes to values.
#[derive(Clone)]
pub struct PatriciaTrie<V> {
    /// The node arena. `nodes[0]` is the root (empty label, never freed).
    nodes: Vec<Node>,
    /// Values parallel to `nodes`: `values[i]` belongs to `nodes[i]`.
    values: Vec<Option<V>>,
    /// Stride fanout slab: each table with width `s` is `2^s` slots of
    /// two `u32`s (`[next, best_packed]`), built only by `compact()`.
    /// Mutation drops tables without reclaiming their slots; the next
    /// compaction rebuilds the slab from scratch.
    stride_tables: Vec<u32>,
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
            stride_tables: Vec::new(),
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
    ///
    /// One descent serves both outcomes. It is the stride-aware exact
    /// descent of [`PatriciaTrie::get`] — a fanout table whose slot has a
    /// landing node is hopped through, anything else takes binary steps —
    /// and it only *notes* the strided nodes it passes:
    ///
    /// * **The key already holds a value**: the value is replaced in
    ///   place and every table stays. Tables hold arena indices and
    ///   `has_value`-derived `best` slots; a replacement changes neither,
    ///   so a refresh or move of a registered key leaves the stride layer
    ///   exactly as `compact()` built it.
    /// * **The key is new** (a new leaf, a split, or a value on a
    ///   so-far valueless node): the tables of the strided nodes on the
    ///   path are dropped, as conservatively as before — their slots leak
    ///   until the next `compact()` rebuilds the slab, and until then
    ///   lookups take binary steps along this path.
    pub fn insert(&mut self, key: &BitStr, value: V) -> Option<V> {
        let mut idx = ROOT;
        // The unconsumed tail of `key` below `idx`.
        let mut rest = *key;
        let mut strided = [NONE; MAX_PATH_TABLES];
        let mut n_strided = 0usize;
        loop {
            if rest.is_empty() {
                // Key ends exactly at this node. Its own table (if any)
                // only describes structure below it and stays either way.
                let old = self.values[idx as usize].replace(value);
                if old.is_some() {
                    return old;
                }
                self.nodes[idx as usize].has_value = true;
                break;
            }

            // Key continues below this node.
            if self.nodes[idx as usize].stride != 0 {
                strided[n_strided] = idx;
                n_strided += 1;
                let slot = stride_slot(
                    &self.nodes,
                    &self.stride_tables,
                    idx,
                    rest.len(),
                    0,
                    rest.raw(),
                );
                if let Some((s, next, _)) = slot {
                    if next != NONE {
                        idx = next;
                        rest = rest.slice(s, rest.len());
                        continue;
                    }
                    // The path dies inside the span, so the key is new:
                    // binary steps below find where it diverges.
                }
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
        // A new key — a leaf, a split, or a first value on an interior
        // node: the spans of the strided nodes above it changed shape or
        // gained a `best`.
        self.len += 1;
        self.drop_tables(&strided[..n_strided]);
        None
    }

    /// Drops the stride tables of `strided` (the slab slots leak until
    /// the next `compact()` rebuilds it).
    fn drop_tables(&mut self, strided: &[u32]) {
        for &idx in strided {
            let n = &mut self.nodes[idx as usize];
            n.stride = 0;
            n.table = NONE;
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &BitStr) -> Option<&V> {
        let nodes = self.nodes.as_slice();
        let tables = self.stride_tables.as_slice();
        let mut idx = ROOT;
        let mut depth = 0usize;
        let mut rem = key.raw();
        loop {
            if depth == key.len() {
                return self.values[idx as usize].as_ref();
            }
            if let Some((s, next, _)) = stride_slot(nodes, tables, idx, key.len(), depth, rem) {
                if next == NONE {
                    // No node ends exactly at the boundary on this path,
                    // so no exact match at or past it either.
                    return None;
                }
                idx = next;
                depth += s;
                rem <<= s;
                prefetch_children(nodes, &nodes[idx as usize]);
                continue;
            }
            let (child, d, r) = descend_step(nodes, idx, key.len(), depth, rem);
            if child == NONE {
                return None;
            }
            (idx, depth, rem) = (child, d, r);
        }
    }

    /// Longest-prefix match: the value of the longest stored prefix of
    /// `key`, together with its bit length.
    pub fn longest_match(&self, key: &BitStr) -> Option<(usize, &V)> {
        let (depth, idx) = self.longest_match_idx(key)?;
        Some((
            depth,
            self.values[idx as usize]
                .as_ref()
                .expect("has_value node holds a value"),
        ))
    }

    /// The unfiltered best-candidate descent: `(matched bit length,
    /// arena index)` of the deepest valued node on `key`'s path, or
    /// `None`. It never touches the value slab; `longest_match`
    /// materializes its reference from the returned index.
    #[inline]
    fn longest_match_idx(&self, key: &BitStr) -> Option<(usize, u32)> {
        let nodes = self.nodes.as_slice();
        let tables = self.stride_tables.as_slice();
        let mut idx = ROOT;
        let mut depth = 0usize;
        let mut rem = key.raw();
        let mut best = if nodes[ROOT as usize].has_value {
            (0usize, ROOT)
        } else {
            (0, NONE)
        };
        while depth < key.len() {
            if let Some((s, next, bp)) = stride_slot(nodes, tables, idx, key.len(), depth, rem) {
                if bp != NONE {
                    let (delta, bidx) = unpack_best(bp);
                    best = (depth + delta, bidx);
                }
                if next == NONE {
                    break;
                }
                idx = next;
                depth += s;
                rem <<= s;
                prefetch_children(nodes, &nodes[idx as usize]);
                if nodes[idx as usize].has_value {
                    best = (depth, idx);
                }
                continue;
            }
            let (child, d, r) = descend_step(nodes, idx, key.len(), depth, rem);
            if child == NONE {
                break;
            }
            (idx, depth, rem) = (child, d, r);
            if nodes[idx as usize].has_value {
                best = (depth, idx);
            }
        }
        (best.1 != NONE).then_some(best)
    }

    /// Longest-prefix match that **skips entries failing `keep`**: the
    /// deepest valued node on `key`'s path whose value satisfies the
    /// predicate (`longest_match` is the unfiltered special case). A
    /// logically dead entry — a TTL-expired map-cache mapping, which only
    /// the table *owner* may structurally remove — is treated as absent,
    /// so a dead host route never shadows a live covering subnet. The
    /// predicate runs once per valued node on the path — the nested
    /// covers of one key, a handful at most — so the filtered descent
    /// streams the same memory as the plain one plus those value-slab
    /// reads.
    ///
    /// Kept as a separate body from the unfiltered descent behind
    /// [`PatriciaTrie::longest_match`] on purpose: that one never reads
    /// the value slab on its way down, and what a predicate call per
    /// valued node would cost it is unmeasured.
    pub fn longest_match_where<F>(&self, key: &BitStr, mut keep: F) -> Option<(usize, &V)>
    where
        F: FnMut(&V) -> bool,
    {
        let nodes = self.nodes.as_slice();
        let tables = self.stride_tables.as_slice();
        let mut idx = ROOT;
        let mut depth = 0usize;
        let mut rem = key.raw();
        let mut best = NONE;
        let mut best_depth = 0usize;
        if nodes[ROOT as usize].has_value
            && keep(
                self.values[ROOT as usize]
                    .as_ref()
                    .expect("root holds a value"),
            )
        {
            best = ROOT;
        }
        while depth < key.len() {
            if let Some((s, next, bp)) = stride_slot(nodes, tables, idx, key.len(), depth, rem) {
                let mut jump = true;
                if bp != NONE {
                    let (delta, bidx) = unpack_best(bp);
                    if keep(
                        self.values[bidx as usize]
                            .as_ref()
                            .expect("span best holds a value"),
                    ) {
                        best = bidx;
                        best_depth = depth + delta;
                    } else {
                        // The span's deepest value is filtered out, but a
                        // shallower one inside the span might not be: walk
                        // this span node-by-node instead of jumping it.
                        jump = false;
                    }
                }
                if jump {
                    if next == NONE {
                        break;
                    }
                    idx = next;
                    depth += s;
                    rem <<= s;
                    prefetch_children(nodes, &nodes[idx as usize]);
                    if nodes[idx as usize].has_value
                        && keep(
                            self.values[idx as usize]
                                .as_ref()
                                .expect("has_value node holds a value"),
                        )
                    {
                        best = idx;
                        best_depth = depth;
                    }
                    continue;
                }
            }
            let (child, d, r) = descend_step(nodes, idx, key.len(), depth, rem);
            if child == NONE {
                break;
            }
            (idx, depth, rem) = (child, d, r);
            if nodes[idx as usize].has_value
                && keep(
                    self.values[idx as usize]
                        .as_ref()
                        .expect("has_value node holds a value"),
                )
            {
                best = idx;
                best_depth = depth;
            }
        }
        (best != NONE).then(|| {
            (
                best_depth,
                self.values[best as usize]
                    .as_ref()
                    .expect("kept node holds a value"),
            )
        })
    }

    /// Keeps only entries for which `f` returns true, re-compressing the
    /// structure in a single traversal. Returns how many entries were
    /// removed.
    ///
    /// This replaces the collect-victims-then-remove-each pattern: one
    /// pass over the trie instead of one full descent per victim.
    pub fn retain<F: FnMut(&BitStr, &mut V) -> bool>(&mut self, mut f: F) -> usize {
        let free_before = self.free.len();
        let mut removed = 0usize;
        self.retain_at(ROOT, BitStr::empty(), &mut f, &mut removed);
        self.len -= removed;
        if removed > 0 || self.free.len() > free_before {
            // Structure (and span bests) may have changed anywhere: drop
            // every stride table and the slab wholesale — the next
            // compact() rebuilds them from the surviving occupancy. The
            // free-list check matters even at zero removals: `fix_child`
            // merges away valueless boundary-split nodes that stride
            // tables point at as landing nodes. A true no-op retain
            // (nothing freed, values only mutated) keeps its tables:
            // value edits never move nodes.
            for n in &mut self.nodes {
                n.stride = 0;
                n.table = NONE;
            }
            self.stride_tables.clear();
        }
        self.maybe_compact();
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
                // Re-establish compression exactly as `remove` does: a
                // valueless child with zero children disappears, with one
                // child merges into its grandchild.
                self.fix_child(idx, bit);
            }
        }
    }

    /// Removes the value at `key`, returning it. Re-compresses the path.
    ///
    /// Never compacts (the module docs say why): O(key bits) and
    /// allocation-free. Freed slots go to the free-list for `insert` to
    /// reuse; arena re-layout happens in `retain` (the maintenance-path
    /// bulk operation) or an explicit `compact()`.
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
        // Re-establish compression on the way out, dropping this
        // ancestor's stride table first: its span may reference the
        // removed value or a node the merge below frees. The target's
        // own table (deepest frame) stays — it only describes structure
        // *below* the target, which a value removal leaves intact.
        {
            let n = &mut self.nodes[idx as usize];
            n.stride = 0;
            n.table = NONE;
        }
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

    /// Re-lays the arena in DFS preorder so a descent walks
    /// nearly-sequential memory, and empties the free-list.
    ///
    /// A node's 0-subtree immediately follows it in the new arena; the
    /// deepest levels — where subtrees span a handful of nodes — end up
    /// sharing cache lines, which is where the pointer-chasing layout
    /// paid one full miss per hop. Call after bulk loads (the map-cache
    /// and RIB population paths do); churn-heavy workloads get the
    /// same treatment automatically via the free-list threshold in
    /// `remove`/`retain`.
    pub fn compact(&mut self) {
        let live = self.nodes.len() - self.free.len();
        let mut nodes = Vec::with_capacity(live);
        let mut values = Vec::with_capacity(live);
        let mut tables = Vec::new();
        let allow_stride = live < STRIDE_MAX_NODES;
        self.compact_at(ROOT, 0, allow_stride, &mut nodes, &mut values, &mut tables);
        debug_assert!(nodes.len() >= live, "compaction dropped nodes");
        // Boundary splits push past the `live` reservation, and Vec
        // growth doubles — at 1M routes that doubling alone would blow
        // the scale-tier memory budget. Compact is the bulk-load hook,
        // so one trailing realloc to exact size is the right trade.
        nodes.shrink_to_fit();
        values.shrink_to_fit();
        tables.shrink_to_fit();
        self.nodes = nodes;
        self.values = values;
        self.stride_tables = tables;
        self.free.clear();
    }

    /// Moves the subtree at `idx` into `nodes`/`values` in preorder,
    /// returning its new index, and grows the stride layer as it goes:
    /// a node sitting on a span boundary (`span_rem == 0` — landing
    /// nodes of an enclosing table, or any node outside one) whose old
    /// subtree is dense enough gets a fanout table, and labels that
    /// would cross an active boundary are split there so every covered
    /// path has a landing node. Layout order is unchanged — node, its
    /// 0-subtree, its 1-subtree, split nodes in path position — so the
    /// preorder locality the module docs promise survives.
    fn compact_at(
        &mut self,
        idx: u32,
        span_rem: usize,
        allow_stride: bool,
        nodes: &mut Vec<Node>,
        values: &mut Vec<Option<V>>,
        tables: &mut Vec<u32>,
    ) -> u32 {
        let node = self.nodes[idx as usize];
        let new_idx = nodes.len() as u32;
        nodes.push(Node {
            children: [NONE, NONE],
            table: NONE,
            stride: 0,
            ..node
        });
        values.push(self.values[idx as usize].take());

        // Promotion: only at span boundaries, from old-arena occupancy.
        let mut stride = 0usize;
        if span_rem == 0 && allow_stride {
            let (e4, e8) = self.count_span_ends(idx);
            if e8 >= STRIDE8_MIN_ENDS {
                stride = 8;
            } else if e4 >= STRIDE4_MIN_ENDS {
                stride = 4;
            }
        }
        if stride != 0 {
            let base = tables.len();
            tables.resize(base + (2usize << stride), NONE);
            nodes[new_idx as usize].table = base as u32;
            nodes[new_idx as usize].stride = stride as u8;
        }
        let child_avail = if stride != 0 { stride } else { span_rem };

        for bit in 0..2 {
            let child = node.children[bit];
            if child == NONE {
                continue;
            }
            let cl = self.nodes[child as usize].label_len as usize;
            let c_new = if child_avail > 0 && cl > child_avail {
                // The label crosses the enclosing stride boundary: split
                // it there — in the old arena, so the (valueless) split
                // node is laid and considered for promotion like any
                // other boundary node — and recurse on the split.
                let clabel = self.nodes[child as usize].label();
                let head = clabel.slice(0, child_avail);
                let tail = clabel.slice(child_avail, cl);
                self.nodes[child as usize].set_label(tail);
                let mut split = Node::new(head, false);
                split.children[tail.bit(0) as usize] = child;
                self.nodes.push(split);
                self.values.push(None);
                let split_idx = (self.nodes.len() - 1) as u32;
                self.compact_at(split_idx, 0, allow_stride, nodes, values, tables)
            } else {
                let crem = child_avail.saturating_sub(cl);
                self.compact_at(child, crem, allow_stride, nodes, values, tables)
            };
            nodes[new_idx as usize].children[bit] = c_new;
        }

        if stride != 0 {
            let base = nodes[new_idx as usize].table as usize;
            fill_stride_table(nodes, tables, base, stride, new_idx);
        }
        new_idx
    }

    /// Occupancy probe for stride promotion: counts label-ends within
    /// the first 4 and 8 bits below `idx` in the (old) arena. A label
    /// crossing a limit contributes nothing to it — it is a single
    /// sparse path, and the split a table would force on it is only
    /// worth paying under a dense fanout.
    fn count_span_ends(&self, idx: u32) -> (usize, usize) {
        fn go(nodes: &[Node], idx: u32, depth: usize, e4: &mut usize, e8: &mut usize) {
            for bit in 0..2 {
                let c = nodes[idx as usize].children[bit];
                if c == NONE {
                    continue;
                }
                let end = depth + nodes[c as usize].label_len as usize;
                if end > 8 {
                    continue;
                }
                *e8 += 1;
                if end <= 4 {
                    *e4 += 1;
                }
                if end < 8 {
                    go(nodes, c, end, e4, e8);
                }
            }
        }
        let (mut e4, mut e8) = (0, 0);
        go(&self.nodes, idx, 0, &mut e4, &mut e8);
        (e4, e8)
    }

    /// Opportunistic re-layout once the free-list dominates the arena:
    /// at least [`COMPACT_FREE_MIN`] dead slots *and* as many dead as
    /// live. Amortized O(1) per freed slot (a compaction halves the
    /// arena, so the next trigger needs that many frees again). Called
    /// only from `retain` — the maintenance-path bulk eviction — never
    /// from `remove`, which must stay cheap per control-plane event.
    fn maybe_compact(&mut self) {
        if self.free.len() >= COMPACT_FREE_MIN && self.free.len() * 2 >= self.nodes.len() {
            self.compact();
        }
    }

    /// Arena layout diagnostics: live node count, slot count, reserved
    /// bytes, free-list length and the live-nodes-per-depth histogram.
    pub fn mem_stats(&self) -> MemStats {
        let mut stats = MemStats {
            live_nodes: 0,
            arena_len: self.nodes.len(),
            capacity_bytes: self.nodes.capacity() * core::mem::size_of::<Node>()
                + self.values.capacity() * core::mem::size_of::<Option<V>>()
                + self.stride_tables.capacity() * core::mem::size_of::<u32>()
                + self.free.capacity() * core::mem::size_of::<u32>(),
            free_list_len: self.free.len(),
            stride_tables: 0,
            stride_slots: 0,
            stride_filled: 0,
            depth_histogram: Vec::new(),
        };
        self.depth_census(ROOT, 0, &mut stats);
        stats
    }

    fn depth_census(&self, idx: u32, depth: usize, stats: &mut MemStats) {
        stats.live_nodes += 1;
        if stats.depth_histogram.len() <= depth {
            stats.depth_histogram.resize(depth + 1, 0);
        }
        stats.depth_histogram[depth] += 1;
        let node = &self.nodes[idx as usize];
        if node.stride != 0 {
            stats.stride_tables += 1;
            let slots = 1usize << node.stride;
            stats.stride_slots += slots;
            let base = node.table as usize;
            for j in 0..slots {
                if self.stride_tables[base + 2 * j] != NONE {
                    stats.stride_filled += 1;
                }
            }
        }
        for bit in 0..2 {
            let child = self.nodes[idx as usize].children[bit];
            if child != NONE {
                self.depth_census(child, depth + 1, stats);
            }
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

    /// Maximum node depth (edges from the root), a diagnostics metric:
    /// bounded by key bit-width regardless of entry count.
    pub fn max_depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: u32) -> usize {
            let mut max = 0;
            for bit in 0..2 {
                let child = nodes[idx as usize].children[bit];
                if child != NONE {
                    max = max.max(1 + depth_of(nodes, child));
                }
            }
            max
        }
        depth_of(&self.nodes, ROOT)
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
        assert_eq!(t.longest_match(&key("10101")), Some((0, &"default")));
    }

    #[test]
    fn longest_match_prefers_longest() {
        let mut t = PatriciaTrie::new();
        t.insert(&key("10"), "short");
        t.insert(&key("1010"), "long");
        assert_eq!(t.longest_match(&key("101011")), Some((4, &"long")));
        assert_eq!(t.longest_match(&key("100111")), Some((2, &"short")));
        assert_eq!(t.longest_match(&key("0")), None);
        // Exact length counts too.
        assert_eq!(t.longest_match(&key("1010")), Some((4, &"long")));
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
        assert_eq!(t.max_depth(), 0);
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
        // Insert many 32-bit keys; depth can never exceed 32.
        let mut t = PatriciaTrie::new();
        for i in 0u32..2000 {
            let bytes = i.wrapping_mul(2_654_435_761).to_be_bytes();
            t.insert(&BitStr::from_bytes(&bytes, 32), i);
        }
        assert!(t.max_depth() <= 32, "depth {} exceeds 32", t.max_depth());
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
        let stats = t.mem_stats();
        assert_eq!(stats.free_list_len, 0, "compaction empties the free-list");
        assert_eq!(stats.arena_len, stats.live_nodes);
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
        let stats = t.mem_stats();
        assert!(
            stats.free_list_len * 2 < stats.arena_len.max(COMPACT_FREE_MIN * 2),
            "retain churn must have compacted: {stats}"
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
        let slots = t.mem_stats().arena_len;
        for i in 0u32..1000 {
            if i % 10 != 0 {
                t.remove(&BitStr::from_bytes(&i.to_be_bytes(), 32));
            }
        }
        let stats = t.mem_stats();
        assert_eq!(stats.arena_len, slots, "remove must not re-lay the arena");
        assert!(stats.free_list_len > 0, "freed slots await reuse");
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn mem_stats_reports_layout() {
        let mut t = PatriciaTrie::new();
        assert_eq!(t.mem_stats().live_nodes, 1, "root only");
        t.insert(&key("0"), 0);
        t.insert(&key("00"), 1);
        t.insert(&key("01"), 2);
        let stats = t.mem_stats();
        // root -> "0" -> {"0","1"} tails.
        assert_eq!(stats.live_nodes, 4);
        assert_eq!(stats.depth_histogram, vec![1, 1, 2]);
        assert_eq!(stats.max_depth(), 2);
        assert!(stats.capacity_bytes > 0);
        let mut merged = stats.clone();
        merged.merge(&t.mem_stats());
        assert_eq!(merged.live_nodes, 8);
        assert_eq!(merged.depth_histogram, vec![2, 2, 4]);
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
    fn compact_promotes_dense_top_to_stride8() {
        let mut t = dense8();
        assert_eq!(t.mem_stats().stride_tables, 0, "promotion is compact-only");
        t.compact();
        let stats = t.mem_stats();
        // A full 8-bit subtree has 510 label-ends within 8 levels — well
        // past STRIDE8_MIN_ENDS — so exactly the root promotes (landing
        // nodes have nothing below them).
        assert_eq!(stats.stride_tables, 1);
        assert_eq!(stats.stride_slots, 256);
        assert_eq!(stats.stride_filled, 256, "every path has a landing node");
        for i in 0u32..256 {
            let k = BitStr::from_bytes(&[i as u8], 8);
            assert_eq!(t.get(&k), Some(&i), "stride get {i}");
            assert_eq!(t.longest_match(&k), Some((8, &i)), "stride LPM {i}");
        }
        // Longer probes jump the span, then fall off the landing node.
        let long = BitStr::from_bytes(&[0xAB, 0xCD], 16);
        assert_eq!(t.longest_match(&long), Some((8, &0xABu32)));
    }

    #[test]
    fn compact_promotes_moderate_density_to_stride4() {
        let mut t = PatriciaTrie::new();
        // A full 4-bit subtree: 30 ends within 4 levels (>= the 4-bit
        // floor), far short of the 8-bit floor.
        for i in 0u32..16 {
            t.insert(&BitStr::from_bytes(&[(i as u8) << 4], 4), i);
        }
        t.compact();
        let stats = t.mem_stats();
        assert_eq!(stats.stride_tables, 1);
        assert_eq!(stats.stride_slots, 16);
        for i in 0u32..16 {
            let k = BitStr::from_bytes(&[(i as u8) << 4], 4);
            assert_eq!(t.longest_match(&k), Some((4, &i)));
        }
    }

    #[test]
    fn compact_splits_labels_crossing_the_span_boundary() {
        // All 8-bit keys except 0xFF keep the root dense enough to
        // promote; the 12-bit key then hangs off the depth-7 branch with
        // a label crossing the 8-bit boundary, forcing a split.
        let mut t = PatriciaTrie::new();
        for i in 0u32..255 {
            t.insert(&BitStr::from_bytes(&[i as u8], 8), i);
        }
        t.insert(&BitStr::from_bytes(&[0xFF, 0x50], 12), 999);
        let live_before = t.mem_stats().live_nodes;
        t.compact();
        let stats = t.mem_stats();
        assert_eq!(stats.stride_tables, 1);
        assert_eq!(
            stats.live_nodes,
            live_before + 1,
            "exactly one boundary split node"
        );
        assert_eq!(stats.stride_filled, 256, "the split fills slot 0xFF");
        assert_eq!(
            t.longest_match(&BitStr::from_bytes(&[0xFF, 0x50], 12)),
            Some((12, &999))
        );
        // The split node at depth 8 is valueless: an exact 8-bit probe
        // under it must fall back to the best *above* the span.
        assert_eq!(t.get(&BitStr::from_bytes(&[0xFF], 8)), None);
        assert_eq!(t.longest_match(&BitStr::from_bytes(&[0xFF], 8)), None);
        assert_eq!(t.len(), 256, "splits add structure, not entries");
    }

    #[test]
    fn insert_and_remove_invalidate_stride_tables() {
        let mut t = dense8();
        t.compact();
        assert_eq!(t.mem_stats().stride_tables, 1);
        // Insert through the strided root: its table is cleared (the
        // span's shape may have changed) and lookups take binary steps
        // until the next compact re-derives promotion from occupancy.
        t.insert(&BitStr::from_bytes(&[0x12, 0x34], 16), 4660);
        assert_eq!(t.mem_stats().stride_tables, 0);
        assert_eq!(
            t.longest_match(&BitStr::from_bytes(&[0x12, 0x34], 16)),
            Some((16, &4660))
        );
        assert_eq!(t.get(&BitStr::from_bytes(&[0x12], 8)), Some(&0x12));
        t.compact();
        assert!(t.mem_stats().stride_tables >= 1, "re-promoted");
        // Remove through it: same deal.
        assert_eq!(t.remove(&BitStr::from_bytes(&[0x12, 0x34], 16)), Some(4660));
        assert_eq!(t.mem_stats().stride_tables, 0);
        for i in 0u32..256 {
            let k = BitStr::from_bytes(&[i as u8], 8);
            assert_eq!(t.get(&k), Some(&i), "post-remove get {i}");
        }
    }

    #[test]
    fn replace_keeps_stride_tables() {
        let mut t = dense8();
        t.compact();
        let before = t.mem_stats();
        assert_eq!(before.stride_tables, 1);
        for i in 0u32..256 {
            let k = BitStr::from_bytes(&[i as u8], 8);
            assert_eq!(t.insert(&k, 1000 + i), Some(i), "replace {i}");
        }
        assert_eq!(t.mem_stats(), before, "a replacement moves nothing");
        assert_eq!(t.len(), 256);
        for i in 0u32..256 {
            let v = 1000 + i;
            assert_eq!(t.get(&BitStr::from_bytes(&[i as u8], 8)), Some(&v));
            let long = BitStr::from_bytes(&[i as u8, 0xCD], 16);
            assert_eq!(t.longest_match(&long), Some((8, &v)), "LPM {i}");
        }
    }

    #[test]
    fn replace_hops_through_nested_tables() {
        // 12-bit keys: a dense 8-bit top with a full 4-bit subtree under
        // every landing node — one stride-8 table over 256 stride-4 ones.
        let key12 = |a: u32, b: u32| BitStr::from_bytes(&[a as u8, (b as u8) << 4], 12);
        let mut t = PatriciaTrie::new();
        for a in 0..256 {
            for b in 0..16 {
                t.insert(&key12(a, b), a * 16 + b);
            }
        }
        t.compact();
        let before = t.mem_stats();
        assert_eq!(before.stride_tables, 257);
        for a in 0..256 {
            for b in 0..16 {
                assert_eq!(t.insert(&key12(a, b), 7), Some(a * 16 + b));
            }
        }
        assert_eq!(t.mem_stats(), before);
        assert_eq!(t.get(&key12(0xAB, 0xC)), Some(&7));
        // A new key below one landing node drops the two tables on its
        // path and no other.
        t.insert(&BitStr::from_bytes(&[0xAB, 0xCD], 16), 8);
        assert_eq!(t.mem_stats().stride_tables, 255);
        assert_eq!(t.get(&key12(0xAB, 0xC)), Some(&7));
        assert_eq!(
            t.longest_match(&BitStr::from_bytes(&[0xAB, 0xCD, 0xEF], 24)),
            Some((16, &8))
        );
    }

    #[test]
    fn value_on_an_interior_node_invalidates_like_a_new_key() {
        let mut t = dense8();
        t.compact();
        // The 1-bit node exists (valueless) strictly inside the root's
        // span: giving it a value changes the span's `best` slots, so the
        // table must go although no node was added.
        let nodes = t.mem_stats().live_nodes;
        assert_eq!(t.insert(&key("1"), 1000), None);
        let stats = t.mem_stats();
        assert_eq!(stats.live_nodes, nodes);
        assert_eq!(stats.stride_tables, 0);
        assert_eq!(t.len(), 257);
        let probe = BitStr::from_bytes(&[0xFF], 8);
        assert_eq!(
            t.longest_match_where(&probe, |v| *v != 255),
            Some((1, &1000))
        );
    }

    #[test]
    fn filtered_lookups_fall_back_across_stride_spans() {
        let mut t = dense8();
        t.insert(&key("1"), 1000);
        t.compact();
        assert_eq!(t.mem_stats().stride_tables, 1);
        let probe = BitStr::from_bytes(&[0xFF], 8);
        // Unfiltered: the landing node wins.
        assert_eq!(t.longest_match(&probe), Some((8, &255)));
        // Rejecting the landing value forces the walk back into the
        // span; the packed best (the depth-1 entry) must surface.
        assert_eq!(
            t.longest_match_where(&probe, |v| *v != 255),
            Some((1, &1000))
        );
        // Rejecting both falls through to no match on the 0x00 path.
        assert_eq!(
            t.longest_match_where(&BitStr::from_bytes(&[0x00], 8), |v| *v != 0),
            None
        );
    }
}
