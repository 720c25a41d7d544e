//! Proof, not promise: the LPM lookup paths perform **zero heap
//! allocations**. A counting global allocator wraps the system one; the
//! test drives `get` / `longest_match` / `longest_match_where` and the
//! `EidTrie` wrappers over a populated trie — before *and after* an arena
//! `compact()`, i.e. over both the plain Patricia and the
//! stride-promoted layouts — and asserts the allocation counter does
//! not move. (`compact()` itself allocates the re-laid arena; it runs
//! outside the measured windows, as the bulk-load hooks do in
//! production.)
//!
//! This file deliberately holds a single `#[test]` — the counter is
//! process-global, and a concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sda_trie::{BitStr, EidTrie, PatriciaTrie};
use sda_types::{Eid, EidPrefix};
use std::net::Ipv4Addr;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Drives every lookup surface once per key and returns the hit count.
/// Runs under the measured (must-not-allocate) windows.
fn drive_lookups(trie: &PatriciaTrie<u32>, eids: &EidTrie<u32>) -> u64 {
    let mut hits = 0u64;
    for i in 0u32..10_000 {
        let k = i.wrapping_mul(2_654_435_761);
        let key = BitStr::from_bytes(&k.to_be_bytes(), 32);
        if trie.get(&key).is_some() {
            hits += 1;
        }
        if trie.longest_match(&key).is_some() {
            hits += 1;
        }
        if trie.longest_match_where(&key, |v| *v == k).is_some() {
            hits += 1;
        }
        let e = Eid::V4(Ipv4Addr::from(0x0A00_0000 | i));
        // `EidTrie::lookup` reconstructs the matched `EidPrefix` — also
        // allocation-free (stack byte buffer).
        if eids.lookup(&e).is_some() {
            hits += 1;
        }
        if eids.lookup_where(&e, |v| *v == i).is_some() {
            hits += 1;
        }
        // Misses must not allocate either.
        let miss = Eid::V4(Ipv4Addr::from(0xC0A8_0000 | i));
        if eids.lookup(&miss).is_some() {
            hits += 1;
        }
    }
    hits
}

#[test]
fn lookup_paths_allocate_nothing() {
    // -- Raw PatriciaTrie over 32-bit keys.
    let mut trie = PatriciaTrie::new();
    for i in 0u32..10_000 {
        let k = i.wrapping_mul(2_654_435_761);
        trie.insert(&BitStr::from_bytes(&k.to_be_bytes(), 32), k);
    }

    // -- EidTrie as the map layers use it.
    let mut eids: EidTrie<u32> = EidTrie::new();
    for i in 0u32..10_000 {
        let e = Eid::V4(Ipv4Addr::from(0x0A00_0000 | i));
        eids.insert(EidPrefix::host(e), i);
    }

    // Five hitting surfaces per key; the sixth probes a deliberate miss.
    const EXPECTED_HITS: u64 = 50_000;

    // Window 1: the insertion-order arena.
    let before = allocations();
    let hits = drive_lookups(&trie, &eids);
    let after = allocations();
    assert_eq!(hits, EXPECTED_HITS, "every present key must hit");
    assert_eq!(
        after - before,
        0,
        "lookup hot path performed {} heap allocations",
        after - before
    );

    // Window 2: the DFS-compacted arena (the production layout after
    // bulk-load hooks run), now with dense upper levels promoted to
    // stride fanout tables — so this window proves the *stride* descent
    // (table hop + packed best extraction) allocates nothing too.
    // Compaction itself may allocate — it happens between the windows —
    // but lookups afterwards must not.
    trie.compact();
    eids.compact();
    assert!(
        trie.mem_stats().stride_tables > 0,
        "10k well-spread keys must promote at least one stride table, \
         or window 2 no longer exercises the stride descent"
    );
    let before = allocations();
    let hits = drive_lookups(&trie, &eids);
    let after = allocations();
    assert_eq!(hits, EXPECTED_HITS, "compaction must not change results");
    assert_eq!(
        after - before,
        0,
        "post-compact lookups performed {} heap allocations",
        after - before
    );
}
